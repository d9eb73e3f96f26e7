"""Scenario configuration: JSON file loading, defaulting and validation.

An empty file (or empty object) yields the default smart-city showcase:
2x3 grid of RSUs, ~200 vehicles per RSU, Poisson task workload, layered
mode, 300 s, seed 0.  Unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .cloud import DIRECTIVE_BYTES
from .edge import PARAM_RANGES, Policy
from .kernel import US_PER_S, LinkSpec
from .mobility import ConfigError

# Fleet and run-length bounds, checked before anything is built; the cells cap
# the vehicle x RSU distance matrix, the windows the index series, the ticks
# and the expected task count the events of a run.
MAX_GRID_SIDE = 1_000
MAX_VEHICLES_PER_RSU = 100_000
MAX_DISTANCE_CELLS = 10_000_000
MAX_DURATION_S = 86_400
MAX_INDEX_WINDOWS = 100_000
MAX_TICKS = 1_000_000
MAX_TASKS = 100_000_000
# Every time the run derives from the configuration fits the integer
# microsecond clock with room to add; a task's service time is bounded so
# that a queue of MAX_TASKS of them does too.
MAX_TIME_US = 2**62
MAX_SERVICE_US = MAX_TIME_US // MAX_TASKS
# Every squared distance, squared segment length (a heading's norm) and sum
# of report speeds stays a finite, nonzero float with room to add.
MAX_MAP_SIDE_M = 1e150
MIN_SPACING_M = 1e-150
MAX_SPEED_MPS = 1e150


@dataclass
class GridConfig:
    rows: int = 2
    cols: int = 3
    spacing_m: float = 1000.0
    rsu_radius_m: float = 600.0
    hysteresis_m: float = 100.0


@dataclass
class LinksConfig:
    v2r: LinkSpec = field(default_factory=lambda: LinkSpec(5.0, 1e7, 0.01, 20.0, 3))
    r2c: LinkSpec = field(default_factory=lambda: LinkSpec(25.0, 1e8, 0.0, 20.0, 1))
    v2v: LinkSpec = field(default_factory=lambda: LinkSpec(3.0, 1e6, 0.05, 20.0, 3))
    e2e: LinkSpec = field(default_factory=lambda: LinkSpec(10.0, 1e8, 0.0, 20.0, 1))


@dataclass
class WorkloadConfig:
    task_rate_hz: float = 0.2            # per vehicle
    cost_range_cu: tuple = (1.0, 10.0)
    request_bytes: int = 2000
    response_bytes: int = 1000
    report_bytes: int = 500
    beacon_bytes: int = 100
    uplink_bytes: int = 1500
    blueprint_bytes: int = 300


@dataclass
class CapacityConfig:
    local_cu_s: float = 50.0
    edge_cu_s: float = 1000.0
    cloud_cu_s: float = 1500.0


@dataclass
class ThresholdConfig:
    util_high: float = 0.85
    util_low: float = 0.5
    backlog_to_cloud_s: float = 5.0
    local_backlog_s: float = 2.0
    handoff_gap_s: float = 1.0
    v2v_range_m: float = 150.0
    neighbor_expiry_s: float = 3.0


@dataclass
class PeriodConfig:
    sense_ms: float = 100.0
    report_s: float = 1.0
    fusion_s: float = 5.0
    epoch_s: float = 30.0
    index_window_s: float = 10.0


@dataclass
class HotspotConfig:
    region: int = 0
    rate_multiplier: float = 12.0
    t_start_s: float = 0.0
    t_end_s: float = 300.0


@dataclass
class ScriptedTask:
    device: int
    at_s: float
    cost_cu: float


@dataclass
class ScenarioConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    vehicles_per_rsu: int = 200
    speed_range_mps: tuple = (8.0, 15.0)
    links: LinksConfig = field(default_factory=LinksConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    periods: PeriodConfig = field(default_factory=PeriodConfig)
    policy: Policy = field(default_factory=Policy)
    mode: str = "layered"
    duration_s: float = 300.0
    seed: int = 0
    hotspot: HotspotConfig | None = None
    scripted_tasks: list = field(default_factory=list)

    @property
    def n_rsus(self) -> int:
        return self.grid.rows * self.grid.cols

    @property
    def n_vehicles(self) -> int:
        return self.vehicles_per_rsu * self.n_rsus

    @property
    def duration_us(self) -> int:
        return round(self.duration_s * US_PER_S)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str, whole: bool = False):
    """``value`` if it is a number (JSON true/false is not) that a float can
    hold, else a ConfigError that names the key.  With ``whole``, where the
    default is an ``int``, it must be a whole number and comes back as an
    ``int``."""
    if not _is_number(value):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{name}: integer too large for a float") from None
    if whole and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name}: expected a whole number, got {value!r}")
    return int(value) if whole else value


_COUNT_WORDS = {2: "two", 3: "three"}


def _keys(obj) -> list[str]:
    """The scenario keys of dataclass ``obj``: its init fields, not ``LinkSpec.delays``."""
    return [f.name for f in fields(obj) if f.init]


def _fill(obj, data, name: str = ""):
    """A copy of dataclass ``obj`` with the keys of JSON object ``data``
    filled in; ``name`` is ``obj``'s path in the scenario, for errors.  A
    tuple default takes a list of as many numbers."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object")
    prefix = f"{name}." if name else ""
    keys, changes = _keys(obj), {}
    for key, value in data.items():
        if key not in keys:
            raise ConfigError(f"unknown key: {prefix}{key}")
        current = getattr(obj, key)
        path = prefix + key
        if is_dataclass(current):
            value = _fill(current, value, path)
        elif isinstance(current, tuple):
            if not isinstance(value, (list, tuple)) or len(value) != len(current):
                raise ConfigError(f"{path}: expected {_COUNT_WORDS[len(current)]} numbers")
            value = tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(value))
        elif _is_number(current):
            value = _number(value, path, whole=isinstance(current, int))
        changes[key] = value
    return replace(obj, **changes)


def parse_scenario(data: dict) -> ScenarioConfig:
    cfg = ScenarioConfig()
    data = dict(data)
    # links, hotspot and scripted tasks first: a multi-fault input names the same fault
    if "links" in data:
        cfg.links = _fill(cfg.links, data.pop("links"), "links")
    if "hotspot" in data:
        hs = data.pop("hotspot")
        cfg.hotspot = None if hs is None else _fill(HotspotConfig(), hs, "hotspot")
    if "scripted_tasks" in data:
        st = data.pop("scripted_tasks")
        if st is not None and not isinstance(st, list):
            raise ConfigError("scripted_tasks: expected a list")
        for i, entry in enumerate(st or []):
            if not isinstance(entry, dict):
                raise ConfigError(f"scripted_tasks[{i}]: expected an object")
            extra = set(entry) - {"device", "at_s", "cost_cu"}
            if extra:
                raise ConfigError(f"unknown key: scripted_tasks[{i}].{extra.pop()}")
            device, at_s, cost_cu = (_number(entry.get(k), f"scripted_tasks[{i}].{k}",
                                             whole=k == "device")
                                     for k in ("device", "at_s", "cost_cu"))
            cfg.scripted_tasks.append(ScriptedTask(device, float(at_s), float(cost_cu)))
    cfg = _fill(cfg, data)
    validate(cfg)
    return cfg


def _numbers(obj, path: str = ""):
    """``(path, value)`` of every number in configuration object ``obj``."""
    if _is_number(obj):
        yield path, obj
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _numbers(value, f"{path}[{i}]")
    elif is_dataclass(obj):
        for key in _keys(obj):
            yield from _numbers(getattr(obj, key), f"{path}.{key}" if path else key)


def validate(cfg: ScenarioConfig) -> None:
    def check(cond, name, msg):
        if not cond:
            raise ConfigError(f"{name}: {msg}")

    # the one check of the policy: blueprints and edges trust it from here
    # on; before the finiteness check, so that a NaN reads as out of range
    p = cfg.policy
    for key in ("local_serve_threshold", "offload_fraction", "congestion_speed_threshold"):
        lo, hi = PARAM_RANGES[key]
        check(lo <= getattr(p, key) <= hi, f"policy.{key}", f"must be in [{lo:g}, {hi:g}]")
    check(len(p.role_quotas) == 3 and min(p.role_quotas) >= 0
          and abs(sum(p.role_quotas) - 1) < 1e-9,
          "policy.role_quotas", "three non-negative fractions summing to 1")
    for path, value in _numbers(cfg):
        check(math.isfinite(value), path, "must be finite")
    for name, value, hi in (("grid.rows", cfg.grid.rows, MAX_GRID_SIDE),
                            ("grid.cols", cfg.grid.cols, MAX_GRID_SIDE),
                            ("vehicles_per_rsu", cfg.vehicles_per_rsu, MAX_VEHICLES_PER_RSU)):
        check(1 <= value <= hi, name, f"must be in [1, {hi:,}]")
    check(cfg.n_vehicles * cfg.n_rsus <= MAX_DISTANCE_CELLS, "vehicles_per_rsu",
          f"vehicles x RSUs must be <= {MAX_DISTANCE_CELLS:,}")
    check(cfg.grid.spacing_m >= MIN_SPACING_M, "grid.spacing_m", f"must be >= {MIN_SPACING_M:g}")
    check((max(cfg.grid.rows, cfg.grid.cols) - 1) * cfg.grid.spacing_m <= MAX_MAP_SIDE_M,
          "grid.spacing_m", f"(max(rows, cols) - 1) x spacing_m must be <= {MAX_MAP_SIDE_M:g} m")
    check(cfg.grid.rsu_radius_m > 0, "grid.rsu_radius_m", "must be > 0")
    check(cfg.grid.hysteresis_m >= 0, "grid.hysteresis_m", "must be >= 0")
    # on the lattice the road point farthest from every RSU is a segment's
    # midpoint, spacing_m / 2 from the RSUs at both ends
    check(cfg.n_rsus == 1 or cfg.grid.rsu_radius_m >= cfg.grid.spacing_m / 2,
          "grid.rsu_radius_m", f"leaves road uncovered: must be >= spacing_m / 2 = "
          f"{cfg.grid.spacing_m / 2}")
    check(0 < cfg.speed_range_mps[0] <= cfg.speed_range_mps[1] <= MAX_SPEED_MPS,
          "speed_range_mps", f"invalid range: need 0 < low <= high <= {MAX_SPEED_MPS:g}")
    w = cfg.workload
    sizes = {k: getattr(w, k) for k in _keys(w) if k.endswith("_bytes")}
    max_bytes = max(DIRECTIVE_BYTES, *sizes.values())
    for name, link in vars(cfg.links).items():
        check(link.bandwidth_bps > 0, f"links.{name}.bandwidth_bps", "must be > 0")
        check(0 <= link.loss_prob < 1, f"links.{name}.loss_prob", "must be in [0, 1)")
        check(link.max_attempts >= 1, f"links.{name}.max_attempts", "must be >= 1")
        # a negative delay schedules a delivery or retransmission in the past
        for key in ("base_latency_ms", "retx_timeout_ms"):
            check(0 <= getattr(link, key) * 1000 <= MAX_TIME_US, f"links.{name}.{key}",
                  f"must be in [0, {MAX_TIME_US / 1000:g}]")
        check(max_bytes * US_PER_S / link.bandwidth_bps <= MAX_TIME_US,
              f"links.{name}.bandwidth_bps", f"a {max_bytes} B message must take at most "
              f"{MAX_TIME_US:g} us")
    check(w.task_rate_hz >= 0, "workload.task_rate_hz", "must be >= 0")
    check(0 < w.cost_range_cu[0] <= w.cost_range_cu[1], "workload.cost_range_cu", "invalid range")
    c = cfg.capacity
    check(c.local_cu_s > 0 and c.edge_cu_s > 0 and c.cloud_cu_s > 0,
          "capacity", "capacities must be > 0")
    max_cost = max([w.cost_range_cu[1], *(st.cost_cu for st in cfg.scripted_tasks)])
    for key in ("local_cu_s", "edge_cu_s", "cloud_cu_s"):
        check(max_cost / getattr(c, key) * US_PER_S <= MAX_SERVICE_US, f"capacity.{key}",
              f"the costliest task ({max_cost:g} CU) must take at most "
              f"{MAX_SERVICE_US / US_PER_S:g} s")
    t = cfg.thresholds
    check(0 <= t.util_low < t.util_high <= 1, "thresholds.util_low/util_high", "need 0 <= low < high <= 1")
    # a negative query range makes every vehicle pair a V2V neighbour
    check(t.v2v_range_m >= 0, "thresholds.v2v_range_m", "must be >= 0")
    check(0 <= t.neighbor_expiry_s * US_PER_S <= MAX_TIME_US, "thresholds.neighbor_expiry_s",
          f"must be in [0, {MAX_TIME_US / US_PER_S:g}]")
    # the runner counts time in whole microseconds and every period in
    # whole sensing ticks
    periods = cfg.periods
    sense_us = round(periods.sense_ms * 1000) if 0 < periods.sense_ms < math.inf else 0
    check(sense_us >= 1 and math.isclose(periods.sense_ms * 1000, sense_us),
          "periods.sense_ms", "must be a positive whole number of microseconds")
    for key in ("report_s", "fusion_s", "epoch_s"):
        value = getattr(periods, key)
        ticks = round(value * US_PER_S / sense_us) if 0 < value < math.inf else 0
        check(ticks >= 1 and math.isclose(value * US_PER_S, ticks * sense_us), f"periods.{key}",
              "must be a positive integer multiple of periods.sense_ms")
    check(cfg.mode in ("layered", "cloud_only"), "mode", "must be layered or cloud_only")
    check(cfg.periods.epoch_s < cfg.duration_s <= MAX_DURATION_S, "duration_s",
          f"must exceed one epoch and be at most {MAX_DURATION_S:,} s")
    window_us = periods.index_window_s * US_PER_S
    check(0 < periods.index_window_s <= cfg.duration_s and math.isclose(window_us, round(window_us)),
          "periods.index_window_s", "must be a whole number of microseconds in (0, duration_s]")
    check(cfg.duration_s / periods.index_window_s <= MAX_INDEX_WINDOWS, "periods.index_window_s",
          f"duration_s / index_window_s must be <= {MAX_INDEX_WINDOWS:,}")
    check(cfg.duration_s * 1000 / periods.sense_ms <= MAX_TICKS, "periods.sense_ms",
          f"duration_s / sense period must be <= {MAX_TICKS:,} ticks")
    # every vehicle at the hottest rate for the whole run, as an upper bound
    tasks = w.task_rate_hz * cfg.n_vehicles * cfg.duration_s
    check(tasks <= MAX_TASKS, "workload.task_rate_hz",
          f"task_rate_hz x vehicles x duration_s must be <= {MAX_TASKS:,} tasks")
    if cfg.hotspot is not None:
        check(0 <= cfg.hotspot.region < cfg.n_rsus, "hotspot.region", "not a valid RSU index")
        check(cfg.hotspot.rate_multiplier >= 0, "hotspot.rate_multiplier", "must be >= 0")
        check(cfg.hotspot.t_start_s <= cfg.hotspot.t_end_s, "hotspot.t_start_s", "must be <= t_end_s")
        check(tasks * max(1, cfg.hotspot.rate_multiplier) <= MAX_TASKS, "hotspot.rate_multiplier",
              f"task_rate_hz x rate_multiplier x vehicles x duration_s must be <= {MAX_TASKS:,} tasks")
    for i, st in enumerate(cfg.scripted_tasks):
        check(0 <= st.device < cfg.n_vehicles, f"scripted_tasks[{i}].device",
              "not a valid vehicle index")
        check(0 <= st.at_s * US_PER_S <= MAX_TIME_US, f"scripted_tasks[{i}].at_s",
              f"must be in [0, {MAX_TIME_US / US_PER_S:g}]")
        check(st.cost_cu > 0, f"scripted_tasks[{i}].cost_cu", "must be > 0")
    # a negative size gives a negative serialization time: a delivery in the past
    for key, size in sizes.items():
        check(size >= 0, f"workload.{key}", "must be >= 0")


def load_scenario(path: str | Path) -> ScenarioConfig:
    text = Path(path).read_text()
    if not text.strip():
        return ScenarioConfig()
    try:
        data = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal of too many digits
        raise ConfigError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("scenario file must contain a JSON object")
    return parse_scenario(data)


def default_hotspot_scenario(seed: int = 0) -> ScenarioConfig:
    """Built-in hotspot sub-scenario: region 0 runs hot for the whole run so
    coordination and policy evolution have overload episodes to work on."""
    cfg = ScenarioConfig(seed=seed)
    cfg.hotspot = HotspotConfig(region=0, rate_multiplier=12.0, t_start_s=0.0,
                                t_end_s=cfg.duration_s)
    return cfg
