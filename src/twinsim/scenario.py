"""Scenario configuration: JSON file loading, defaulting and validation.

An empty file (or empty object) yields the default smart-city showcase:
2x3 grid of RSUs, ~200 vehicles per RSU, Poisson task workload, layered
mode, 300 s, seed 0.  Unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .kernel import LinkSpec
from .mobility import ConfigError

US_PER_S = 1_000_000


@dataclass
class GridConfig:
    rows: int = 2
    cols: int = 3
    spacing_m: float = 1000.0
    rsu_radius_m: float = 600.0
    hysteresis_m: float = 100.0


@dataclass
class LinkConfig:
    base_latency_ms: float
    bandwidth_bps: float
    loss_prob: float = 0.0
    retx_timeout_ms: float = 20.0
    max_attempts: int = 1

    def to_spec(self) -> LinkSpec:
        return LinkSpec(
            base_latency_us=round(self.base_latency_ms * 1000),
            bandwidth_bps=self.bandwidth_bps,
            loss_prob=self.loss_prob,
            retx_timeout_us=round(self.retx_timeout_ms * 1000),
            max_attempts=self.max_attempts,
        )


def default_links() -> dict:
    return {
        "v2r": LinkConfig(5.0, 1e7, 0.01, 20.0, 3),
        "r2c": LinkConfig(25.0, 1e8, 0.0, 20.0, 1),
        "v2v": LinkConfig(3.0, 1e6, 0.05, 20.0, 3),
        "e2e": LinkConfig(10.0, 1e8, 0.0, 20.0, 1),
    }


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
class PolicyConfig:
    local_serve_threshold: float = 2.0
    offload_fraction: float = 0.2
    congestion_speed_threshold: float = 6.0
    role_quotas: tuple = (0.4, 0.4, 0.2)


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
    links: dict = field(default_factory=default_links)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    periods: PeriodConfig = field(default_factory=PeriodConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
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


def _fill(obj, data: dict, path: str):
    known = set(obj.__dataclass_fields__)
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key: {path}{key}")
        current = getattr(obj, key)
        if isinstance(current, (GridConfig, WorkloadConfig, CapacityConfig,
                                ThresholdConfig, PeriodConfig, PolicyConfig)):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{key}: expected an object")
            _fill(current, value, f"{path}{key}.")
        elif isinstance(current, tuple) and value is not None:
            setattr(obj, key, tuple(value))
        else:
            setattr(obj, key, value)


def parse_scenario(data: dict) -> ScenarioConfig:
    cfg = ScenarioConfig()
    data = dict(data)
    if "links" in data:
        links = data.pop("links")
        if not isinstance(links, dict):
            raise ConfigError("links: expected an object")
        for name, spec in links.items():
            if name not in cfg.links:
                raise ConfigError(f"unknown key: links.{name}")
            base = cfg.links[name]
            for k, v in spec.items():
                if k not in base.__dataclass_fields__:
                    raise ConfigError(f"unknown key: links.{name}.{k}")
                setattr(base, k, v)
    if "hotspot" in data:
        hs = data.pop("hotspot")
        if hs is not None:
            cfg.hotspot = HotspotConfig()
            _fill(cfg.hotspot, hs, "hotspot.")
    if "scripted_tasks" in data:
        st = data.pop("scripted_tasks")
        cfg.scripted_tasks = []
        for i, entry in enumerate(st or []):
            extra = set(entry) - {"device", "at_s", "cost_cu"}
            if extra:
                raise ConfigError(f"unknown key: scripted_tasks[{i}].{extra.pop()}")
            cfg.scripted_tasks.append(
                ScriptedTask(int(entry["device"]), float(entry["at_s"]), float(entry["cost_cu"]))
            )
    _fill(cfg, data, "")
    validate(cfg)
    return cfg


def validate(cfg: ScenarioConfig) -> None:
    def check(cond, name, msg):
        if not cond:
            raise ConfigError(f"{name}: {msg}")

    check(cfg.grid.rows >= 1 and cfg.grid.cols >= 1, "grid.rows/cols", "must be >= 1")
    check(cfg.grid.spacing_m > 0, "grid.spacing_m", "must be > 0")
    check(cfg.grid.rsu_radius_m > 0, "grid.rsu_radius_m", "must be > 0")
    check(cfg.grid.hysteresis_m >= 0, "grid.hysteresis_m", "must be >= 0")
    check(cfg.vehicles_per_rsu >= 0, "vehicles_per_rsu", "must be >= 0")
    check(0 < cfg.speed_range_mps[0] <= cfg.speed_range_mps[1], "speed_range_mps", "invalid range")
    for name, link in cfg.links.items():
        check(link.bandwidth_bps > 0, f"links.{name}.bandwidth_bps", "must be > 0")
        check(0 <= link.loss_prob < 1, f"links.{name}.loss_prob", "must be in [0, 1)")
        check(link.max_attempts >= 1, f"links.{name}.max_attempts", "must be >= 1")
    w = cfg.workload
    check(w.task_rate_hz >= 0, "workload.task_rate_hz", "must be >= 0")
    check(0 < w.cost_range_cu[0] <= w.cost_range_cu[1], "workload.cost_range_cu", "invalid range")
    c = cfg.capacity
    check(c.local_cu_s > 0 and c.edge_cu_s > 0 and c.cloud_cu_s > 0,
          "capacity", "capacities must be > 0")
    t = cfg.thresholds
    check(0 <= t.util_low < t.util_high <= 1, "thresholds.util_low/util_high", "need 0 <= low < high <= 1")
    p = cfg.policy
    check(0 <= p.local_serve_threshold <= 10, "policy.local_serve_threshold", "must be in [0, 10]")
    check(0 <= p.offload_fraction <= 1, "policy.offload_fraction", "must be in [0, 1]")
    check(len(p.role_quotas) == 3 and abs(sum(p.role_quotas) - 1) < 1e-9,
          "policy.role_quotas", "three fractions summing to 1")
    check(cfg.mode in ("layered", "cloud_only"), "mode", "must be layered or cloud_only")
    check(cfg.duration_s > cfg.periods.epoch_s, "duration_s", "must exceed one epoch")
    if cfg.hotspot is not None:
        check(0 <= cfg.hotspot.region < cfg.n_rsus, "hotspot.region", "not a valid RSU index")
        check(cfg.hotspot.rate_multiplier >= 0, "hotspot.rate_multiplier", "must be >= 0")
        check(cfg.hotspot.t_start_s <= cfg.hotspot.t_end_s, "hotspot.t_start_s", "must be <= t_end_s")
    for i, st in enumerate(cfg.scripted_tasks):
        check(0 <= st.device < cfg.n_vehicles, f"scripted_tasks[{i}].device",
              "not a valid vehicle index")
        check(st.at_s >= 0, f"scripted_tasks[{i}].at_s", "must be >= 0")
        check(st.cost_cu > 0, f"scripted_tasks[{i}].cost_cu", "must be > 0")


def load_scenario(path: str | Path) -> ScenarioConfig:
    text = Path(path).read_text()
    if not text.strip():
        return ScenarioConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
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
