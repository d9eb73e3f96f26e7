"""Per-vehicle local twin: sensing, task placement and status reporting.

Sensing runs at 100 ms cadence.  A status report goes up every second with
the mean speed of the last 1 s window, the last channel quality, the road
segment and the local queue backlog, plus immediately on an RSU handover or
when the local queue backlog exceeds the trigger threshold.  The simulation
runner builds these reports from its per-vehicle arrays and does not use
``preprocess``, ``FeatureRecord``, ``StatusReport`` or ``NeighborTable``:
they are scalar per-vehicle models of a sensing window, a report and a
beacon cache.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

US_PER_S = 1_000_000


@dataclass(frozen=True)
class RawSample:
    t_us: int
    position: tuple[float, float]
    speed: float
    energy: float
    channel_quality: float  # 1 - normalized distance to serving RSU, in [0,1]


@dataclass(frozen=True)
class FeatureRecord:
    t_start_us: int
    t_end_us: int
    mean_speed: float
    ewma_speed: float
    position_last: tuple[float, float]
    energy_last: float
    channel_quality_last: float


@dataclass(frozen=True)
class StatusReport:
    device_id: int
    features: FeatureRecord
    nav_intent: int
    queue_backlog_cu: float
    role: str


@dataclass
class Task:
    id: int
    origin: int
    cost_cu: float
    request_bytes: int
    response_bytes: int
    created_at_us: int

    def __post_init__(self):
        if self.cost_cu <= 0:
            raise ValueError("task cost must be > 0")


def channel_quality(distance_m: float, radius_m: float) -> float:
    return min(1.0, max(0.0, 1.0 - distance_m / radius_m))


def preprocess(samples: list[RawSample], alpha: float = 0.3) -> FeatureRecord:
    """Collapse one sensing window into a single record.

    The EWMA s_t = alpha*x_t + (1-alpha)*s_{t-1} is seeded with the first
    sample of the window, so its output is bounded by the window's min/max.
    """
    if not samples:
        raise ValueError("empty sensing window")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    ewma = samples[0].speed
    total = 0.0
    for s in samples:
        total += s.speed
        ewma = alpha * s.speed + (1.0 - alpha) * ewma
    # correct the seed double-count: first iteration gives alpha*x0+(1-a)*x0 = x0
    last = samples[-1]
    return FeatureRecord(
        t_start_us=samples[0].t_us,
        t_end_us=last.t_us,
        mean_speed=total / len(samples),
        ewma_speed=ewma,
        position_last=last.position,
        energy_last=last.energy,
        channel_quality_last=last.channel_quality,
    )


def decide_local(task: Task, local_serve_threshold: float, backlog_cu: float,
                 local_capacity_cu_s: float, backlog_limit_s: float = 2.0) -> str:
    """Pure placement rule: 'local' iff the task is below the policy threshold
    and the local queue is short enough, else 'edge'."""
    if (
        task.cost_cu <= local_serve_threshold
        and backlog_cu / local_capacity_cu_s <= backlog_limit_s
    ):
        return "local"
    return "edge"


def report_to_json(report: StatusReport) -> str:
    """Canonical wire format: fixed field order, compact separators."""
    f = report.features
    payload = {
        "device_id": report.device_id,
        "window": [f.t_start_us, f.t_end_us],
        "mean_speed": round(f.mean_speed, 6),
        "ewma_speed": round(f.ewma_speed, 6),
        "position": [round(f.position_last[0], 3), round(f.position_last[1], 3)],
        "energy": round(f.energy_last, 6),
        "channel_quality": round(f.channel_quality_last, 6),
        "nav_intent": report.nav_intent,
        "backlog": round(report.queue_backlog_cu, 6),
        "role": report.role,
    }
    return json.dumps(payload, separators=(",", ":"))


@dataclass
class NeighborEntry:
    heard_at_us: int
    position: tuple[float, float]
    speed: float
    role: str
    backlog_cu: float


class NeighborTable:
    """V2V beacon cache with fixed expiry."""

    def __init__(self, expiry_us: int = 3 * US_PER_S):
        self.expiry_us = expiry_us
        self.entries: dict[int, NeighborEntry] = {}

    def observe(self, sender: int, entry: NeighborEntry) -> None:
        self.entries[sender] = entry

    def prune(self, now_us: int) -> None:
        dead = [k for k, e in self.entries.items() if now_us - e.heard_at_us > self.expiry_us]
        for k in dead:
            del self.entries[k]

    def alive(self, now_us: int) -> dict[int, NeighborEntry]:
        self.prune(now_us)
        return self.entries

    def handoff_candidate(self, now_us: int, own_backlog_cu: float,
                          capacity_cu_s: float, gap_s: float = 1.0) -> int | None:
        """Processing-role neighbor whose backlog is at least gap_s shorter
        than ours; lowest backlog wins, ties by device id."""
        best = None
        for dev in sorted(self.alive(now_us)):
            e = self.entries[dev]
            if e.role != "processing":
                continue
            if e.backlog_cu / capacity_cu_s < own_backlog_cu / capacity_cu_s - gap_s:
                if best is None or (e.backlog_cu, dev) < best[1]:
                    best = (dev, (e.backlog_cu, dev))
        return best[0] if best else None
