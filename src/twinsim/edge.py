"""Edge twin at each RSU: population roles, regional fusion, task
scheduling (FIFO server, counter thinning, cloud overflow), uplink packages,
and localization of cloud blueprints.

An RSU's population is the vehicles it serves (``Simulation.current_rsu``).
"""
from __future__ import annotations

from dataclasses import dataclass

from .kernel import US_PER_S

ROLES = ("acquisition", "processing", "coordination")


@dataclass(frozen=True)
class LocalPolicy:
    local_serve_threshold: float       # CU, in [0, 10]
    offload_fraction: float            # [0, 1]
    congestion_speed_threshold: float  # m/s, [3, 10]
    role_quotas: tuple[float, float, float]


PARAM_RANGES = {
    "local_serve_threshold": (0.0, 10.0),
    "offload_fraction": (0.0, 1.0),
    "congestion_speed_threshold": (3.0, 10.0),
    "acquisition_quota": (0.05, 0.9),
}


def clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


@dataclass
class UplinkPackage:
    """What the cloud reads of a region's fusion window."""
    rsu_id: int
    event_labels: tuple[str, ...]
    utilization: float


def largest_remainder_seats(quotas: tuple[float, ...], n: int) -> tuple[int, ...]:
    """Seats per role: floor of quota*n plus largest remainders; remainder
    ties go to the first-listed role."""
    if abs(sum(quotas) - 1.0) > 1e-6:
        raise ValueError("quotas must sum to 1")
    exact = [q * n for q in quotas]
    seats = [int(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, seats)]
    missing = n - sum(seats)
    order = sorted(range(len(quotas)), key=lambda i: (-remainders[i], i))
    for i in order[:missing]:
        seats[i] += 1
    return tuple(seats)


def assign_roles(
    members: list[int],
    quotas: tuple[float, float, float],
    channel_quality: dict[int, float],
    idle_compute: dict[int, float],
) -> dict[int, str]:
    """Capability-sorted seat filling: channel quality for acquisition, idle
    compute for processing, every remaining member for coordination; ties
    by device id."""
    if not members:
        return {}
    seats = largest_remainder_seats(quotas, len(members))
    assigned: dict[int, str] = {}
    pool = set(members)
    by_cq = sorted(pool, key=lambda d: (-channel_quality.get(d, 0.0), d))
    for d in by_cq[: seats[0]]:
        assigned[d] = "acquisition"
        pool.discard(d)
    by_idle = sorted(pool, key=lambda d: (-idle_compute.get(d, 0.0), d))
    for d in by_idle[: seats[1]]:
        assigned[d] = "processing"
        pool.discard(d)
    for d in pool:
        assigned[d] = "coordination"
    return assigned


def fuse_labels(mean_speed: float, utilization: float, congestion_speed: float,
                util_high: float = 0.85, util_low: float = 0.5) -> tuple[str, ...]:
    labels = []
    if mean_speed < congestion_speed:
        labels.append("Congestion")
    if utilization > util_high:
        labels.append("Overload")
    elif utilization < util_low:
        labels.append("Underload")
    if not labels:
        labels.append("Normal")
    return tuple(labels)


def localize_policy(blueprint_params: dict, congestion_active: bool) -> LocalPolicy:
    """Clamp blueprint parameters into their declared ranges and apply the
    edge's contextual refinement: under congestion the acquisition quota is
    raised by 0.1 at the expense of coordination (floor 0.05).

    Raises ValueError on a malformed blueprint (caller keeps the old policy).
    """
    required = {"local_serve_threshold", "offload_fraction",
                "congestion_speed_threshold", "role_quotas"}
    if not isinstance(blueprint_params, dict) or not required.issubset(blueprint_params):
        raise ValueError("malformed blueprint: missing parameters")
    quotas = blueprint_params["role_quotas"]
    if len(quotas) != 3 or any(q < 0 for q in quotas) or abs(sum(quotas) - 1.0) > 1e-6:
        raise ValueError("malformed blueprint: bad role quotas")
    acq, proc, coord = (float(q) for q in quotas)
    if congestion_active:
        shift = min(0.1, coord - 0.05)
        if shift > 0:
            acq += shift
            coord -= shift
    return LocalPolicy(
        local_serve_threshold=clamp(
            float(blueprint_params["local_serve_threshold"]), *PARAM_RANGES["local_serve_threshold"]
        ),
        offload_fraction=clamp(
            float(blueprint_params["offload_fraction"]), *PARAM_RANGES["offload_fraction"]
        ),
        congestion_speed_threshold=clamp(
            float(blueprint_params["congestion_speed_threshold"]),
            *PARAM_RANGES["congestion_speed_threshold"],
        ),
        role_quotas=(acq, proc, coord),
    )


class ThinningCounter:
    """Deterministic fractional selection: over k arrivals exactly
    floor-accumulated fraction*k are selected."""

    def __init__(self):
        self.acc = 0.0

    def take(self, fraction: float) -> bool:
        self.acc += fraction
        if self.acc >= 1.0 - 1e-12:
            self.acc -= 1.0
            return True
        return False


@dataclass
class FusionWindow:
    """Accumulators for the current 5 s fusion window."""
    speed_sum: float = 0.0
    speed_count: int = 0
    processed_cu: float = 0.0


class EdgeServer:
    """Single shared FIFO queue at fixed CU/s capacity."""

    def __init__(self, capacity_cu_s: float):
        self.capacity = capacity_cu_s
        self.busy_until_us = 0

    def backlog_s(self, now_us: int) -> float:
        return max(0, self.busy_until_us - now_us) / US_PER_S

    def enqueue(self, now_us: int, cost_cu: float) -> int:
        """Returns the completion time of the newly queued task."""
        start = max(now_us, self.busy_until_us)
        service_us = round(cost_cu / self.capacity * US_PER_S)
        self.busy_until_us = start + service_us
        return self.busy_until_us
