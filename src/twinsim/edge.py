"""Edge twins: one ``EdgeTwin`` per RSU, whose kernel endpoint is its RSU
index.  It owns its population's roles, regional fusion and labels, task
scheduling (FIFO server, counter thinning to a partner edge, cloud
overflow), results to vehicles, the uplink package, and the localization of
the cloud's blueprints and directives.  An RSU's population is the vehicles
it serves (``current_rsu[v] == rsu_id``).

``Policy`` is the one policy type: the scenario's initial policy, the policy
a cloud blueprint carries, and the edge's localized copy of it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import US_PER_S
from .local import drop_task

ROLES = ("acquisition", "processing", "coordination")


@dataclass(frozen=True)
class Policy:
    """Checked once, by ``scenario.validate``: each scalar within
    ``PARAM_RANGES``, the quotas three non-negative fractions summing to 1.
    Mutation and localization keep it so, and nothing checks it again."""
    local_serve_threshold: float = 2.0       # CU, in [0, 10]
    offload_fraction: float = 0.2            # [0, 1]
    congestion_speed_threshold: float = 6.0  # m/s, [3, 10]
    role_quotas: tuple[float, float, float] = (0.4, 0.4, 0.2)


PARAM_RANGES = {
    "local_serve_threshold": (0.0, 10.0),
    "offload_fraction": (0.0, 1.0),
    "congestion_speed_threshold": (3.0, 10.0),
    "acquisition_quota": (0.05, 0.9),
}


@dataclass
class UplinkPackage:
    """What the cloud reads of a region's fusion window."""
    rsu_id: int
    event_labels: tuple[str, ...]
    utilization: float


def largest_remainder_seats(quotas: tuple[float, ...], n: int) -> tuple[int, ...]:
    """Seats per role: floor of quota*n plus largest remainders; remainder
    ties go to the first-listed role."""
    exact = [q * n for q in quotas]
    seats = [int(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, seats)]
    missing = n - sum(seats)
    order = sorted(range(len(quotas)), key=lambda i: (-remainders[i], i))
    for i in order[:missing]:
        seats[i] += 1
    return tuple(seats)


def assign_roles(ids: np.ndarray, quotas: tuple[float, float, float],
                 channel_quality: np.ndarray, idle_compute: np.ndarray) -> np.ndarray:
    """Role codes (indices into ``ROLES``) of the members ``ids``, ascending,
    by capability-sorted seat filling: channel quality for acquisition, idle
    compute for processing, every remaining member for coordination; ties by
    id.  Both capability arrays are aligned with ``ids``."""
    acquisition, processing, _ = largest_remainder_seats(quotas, len(ids))
    by_cq = np.lexsort((ids, -channel_quality))
    rest = by_cq[acquisition:]
    by_idle = rest[np.lexsort((ids[rest], -idle_compute[rest]))]
    roles = np.full(len(ids), 2, dtype=np.int8)
    roles[by_cq[:acquisition]] = 0
    roles[by_idle[:processing]] = 1
    return roles


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


def localize_policy(policy: Policy, congestion_active: bool) -> Policy:
    """The edge's contextual refinement of a blueprint's policy: under
    congestion the acquisition quota is raised by 0.1 at the expense of
    coordination (floor 0.05)."""
    acq, proc, coord = policy.role_quotas
    shift = min(0.1, coord - 0.05)
    if not congestion_active or shift <= 0:
        return policy
    return replace(policy, role_quotas=(acq + shift, proc, coord - shift))


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


@dataclass
class LabelLogEntry:
    window_end_us: int
    rsu_id: int
    labels: tuple
    utilization: float
    mean_speed: float


class HeldReports:
    """Per vehicle, whether its serving edge holds a report of it, that
    report's channel quality and backlog, and its role (index into ``ROLES``).
    Only the edge layer writes these arrays."""

    def __init__(self, n: int):
        self.has = np.zeros(n, dtype=bool)
        self.cq = np.zeros(n)
        self.backlog = np.zeros(n)
        self.role = np.zeros(n, dtype=np.int8)

    def forget(self, moved: np.ndarray) -> None:
        """Vehicles that changed RSU start at their new edge unreported."""
        self.has[moved] = False
        self.role[moved] = 0

    def take_batch(self, edges: list, current_rsu: np.ndarray, batch: tuple,
                   v: np.ndarray) -> None:
        """The reports of vehicles ``v`` (ascending) that got through from a
        batch of ``(rsu, speed, cq, backlog)`` arrays, taken as the edges'
        ``_report`` takes them one by one in that order: a report counts at
        the edge it was sent to if that edge still serves its vehicle."""
        rsu, speed, cq, backlog = batch
        kept = v[rsu[v] == current_rsu[v]]
        self.has[kept] = True
        self.cq[kept] = cq[kept]
        self.backlog[kept] = backlog[kept]
        at, speed = rsu[kept], speed[kept]
        for e in edges:
            mine = speed[at == e.rsu_id].tolist()
            w = e.window
            total = w.speed_sum
            for s in mine:
                total += s
            w.speed_sum = total
            w.speed_count += len(mine)


class EdgeTwin:
    """The twin of RSU ``rsu_id``; ``held`` and ``label_log`` are shared by
    every edge twin, ``world`` is the runner's read-only view."""

    def __init__(self, rsu_id: int, world, held: HeldReports, label_log: list,
                 window_us: int):
        cfg = self.cfg = world.cfg
        self.rsu_id = rsu_id
        self.engine = world.engine
        self.current_rsu = world.current_rsu
        self.held = held
        self.label_log = label_log
        # kernel endpoints: the cloud, then one shared by every vehicle
        self._cloud = cfg.n_rsus
        self._vehicles = cfg.n_rsus + 1
        self._window_cu = cfg.capacity.edge_cu_s * window_us / US_PER_S
        self.server = EdgeServer(cfg.capacity.edge_cu_s)
        self.thinning = ThinningCounter()
        self.policy = cfg.policy
        self.pending_blueprint = None  # a cloud PolicyBlueprint, applied at fusion
        self.directive = None          # the cloud's latest OffloadDirective
        self.window = FusionWindow()
        self.labels: tuple = ("Normal",)
        self.last_utilization = 0.0
        self.last_mean_speed: float | None = None
        # what each task reads
        self._serves = cfg.mode != "cloud_only"
        self._util_high = cfg.thresholds.util_high
        self._backlog_to_cloud_s = cfg.thresholds.backlog_to_cloud_s
        self._request_bytes = cfg.workload.request_bytes
        self._response_bytes = cfg.workload.response_bytes
        self._v2r, self._r2c, self._e2e = cfg.links.v2r, cfg.links.r2c, cfg.links.e2e

    def receive(self, payload) -> None:
        kind = payload[0]
        if kind == "task":
            self._task(payload[1], False)
        elif kind == "relay_task":
            self._task(payload[1], True)
        elif kind == "report":
            self._report(payload[1])
        elif kind == "blueprint":
            self.pending_blueprint = payload[1]
        elif kind == "directive":
            self.directive = payload[1]
        elif kind == "result":
            self.engine.send(self._vehicles, ("result", payload[1]), self._response_bytes,
                             self._v2r, on_drop=drop_task)

    def _task(self, task, relayed: bool) -> None:
        now = self.engine.now
        if not relayed:
            task.edge_arrival_us = now
            task.overloaded_at_arrival = "Overload" in self.labels
        # cloud_only relays every task to the cloud
        if self._serves:
            directive = self.directive
            if (not relayed and directive is not None and now < directive.expires_at_us
                    and self.last_utilization > self._util_high
                    and self.thinning.take(directive.fraction)):
                self.engine.send(directive.to_rsu, ("relay_task", task), self._request_bytes,
                                 self._e2e, on_drop=drop_task)
                return
            if self.server.backlog_s(now) <= self._backlog_to_cloud_s:
                finish = self.server.enqueue(now, task.cost_cu)
                task.tier = "PartnerEdge" if relayed else "Edge"
                self.engine.schedule(finish, self._done, task, kind="compute")
                return
        self.engine.send(self._cloud, ("task", task), self._request_bytes,
                         self._r2c, on_drop=drop_task)

    def _done(self, task) -> None:
        self.window.processed_cu += task.cost_cu
        if task.tier == "Edge" and self.current_rsu.item(task.origin) != self.rsu_id:
            # member left during service: forward the result via the cloud relay
            self.engine.send(self._cloud, ("relay_result", task), self._response_bytes,
                             self._r2c, on_drop=drop_task)
            return
        self.engine.send(self._vehicles, ("result", task), self._response_bytes,
                         self._v2r, on_drop=drop_task)

    def _report(self, report: tuple) -> None:
        """report is (device, mean_speed, channel_quality, backlog_cu)."""
        device = report[0]
        if self.current_rsu.item(device) != self.rsu_id:
            return
        w = self.window
        w.speed_sum += report[1]
        w.speed_count += 1
        held = self.held
        held.has[device] = True
        held.cq[device] = report[2]
        held.backlog[device] = report[3]

    def fuse_and_uplink(self, now: int) -> None:
        """Close the fusion window; reassign the population's roles."""
        cfg = self.cfg
        # policy descent takes effect only at window boundaries
        if self.pending_blueprint is not None:
            self.policy = localize_policy(self.pending_blueprint.policy,
                                          congestion_active="Congestion" in self.labels)
            self.pending_blueprint = None
        w = self.window
        utilization = min(1.0, w.processed_cu / self._window_cu)
        if w.speed_count:
            mean_speed = w.speed_sum / w.speed_count
            self.last_mean_speed = mean_speed
            labels = fuse_labels(mean_speed, utilization,
                                 self.policy.congestion_speed_threshold,
                                 cfg.thresholds.util_high, cfg.thresholds.util_low)
        else:
            mean_speed = self.last_mean_speed if self.last_mean_speed is not None else 0.0
            labels = ("Normal",)
        self.labels = labels
        self.last_utilization = utilization
        self.label_log.append(LabelLogEntry(now, self.rsu_id, labels, utilization, mean_speed))
        self.engine.send(self._cloud, ("uplink", UplinkPackage(self.rsu_id, labels, utilization)),
                         cfg.workload.uplink_bytes, self._r2c)
        self.window = FusionWindow()

        # role churn follows the fused picture
        held = self.held
        ids = np.flatnonzero(self.current_rsu == self.rsu_id)
        has = held.has[ids]
        held.role[ids] = assign_roles(
            ids, self.policy.role_quotas, np.where(has, held.cq[ids], 0.0),
            np.where(has, cfg.capacity.local_cu_s - held.backlog[ids], 0.0))
