"""Edge twins: one vectorized ``EdgeTwins`` for the twins of every RSU,
behind the one kernel endpoint ``EDGES``.  It owns each region's roles,
fusion and labels, task scheduling (FIFO server, counter thinning to a
partner edge, cloud overflow), results to vehicles, and the localization of
the cloud's blueprints and directives.  An RSU's population is the vehicles
it serves (``current_rsu[v] == r``).  Status reports come as rows of report
batches, which the kernel hands straight to ``take_batch``; every other
message comes through ``EDGES``.

``Policy`` is the one policy type: the scenario's initial policy, the policy
a cloud blueprint carries, and the edge's localized copy of it.
``RegionState`` is the one record of a region's fused window: the edge acts
on it, logs it and uplinks it, and the cloud's knowledge graph latches it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import CLOUD, EDGES, US_PER_S, VEHICLES
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


@dataclass(frozen=True)
class RegionState:
    """A region's fused picture at the close of the fusion window that ends
    at ``window_end_us``; the defaults are its state before the first."""
    rsu_id: int
    window_end_us: int = 0
    labels: tuple[str, ...] = ("Normal",)
    utilization: float = 0.0
    mean_speed: float = 0.0


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


class EdgeTwins:
    """The twins of every RSU.  Per region, indexed by RSU: the policy, the
    pending cloud blueprint (applied at fusion), the cloud's latest
    directive, the ``RegionState`` of the last closed window, one
    ``EdgeServer``, one ``ThinningCounter`` and the sums of the current
    fusion window, all in lists but the speed sums and counts, which are
    arrays that a report batch adds to.  Per vehicle, in arrays that only
    this layer writes: whether its serving edge holds a report of it, that
    report's channel quality and backlog, and its role (index into
    ``ROLES``).  ``world`` is the runner's read-only view."""

    def __init__(self, world, window_us: int):
        cfg = self.cfg = world.cfg
        self.engine = world.engine
        self.current_rsu = world.current_rsu
        n, m = cfg.n_vehicles, cfg.n_rsus
        self.has = np.zeros(n, dtype=bool)
        self.cq = np.zeros(n)
        self.backlog = np.zeros(n)
        self.role = np.zeros(n, dtype=np.int8)
        self.policy = [cfg.policy] * m
        self.pending_blueprint = [None] * m
        self.directive = [None] * m
        self.state = [RegionState(r) for r in range(m)]
        self.server = [EdgeServer(cfg.capacity.edge_cu_s) for _ in range(m)]
        self.thinning = [ThinningCounter() for _ in range(m)]
        # the current fusion window: report speeds and their count, CU served
        self.speed_sum = np.zeros(m)
        self.speed_count = np.zeros(m, dtype=np.int64)
        self.processed_cu = [0.0] * m
        self.label_log: list[RegionState] = []
        self._window_cu = cfg.capacity.edge_cu_s * window_us / US_PER_S
        # what each task reads
        self._serves = cfg.mode != "cloud_only"
        self._util_high = cfg.thresholds.util_high
        self._backlog_to_cloud_s = cfg.thresholds.backlog_to_cloud_s
        self._request_bytes = cfg.workload.request_bytes
        self._response_bytes = cfg.workload.response_bytes
        self._v2r, self._r2c, self._e2e = cfg.links.v2r, cfg.links.r2c, cfg.links.e2e

    def receive(self, payload) -> None:
        """Each message names its region: a task by its ``origin_rsu``, a
        relayed task by its ``to_rsu``, a blueprint by its ``target``, a
        directive by its ``from_rsu``; a result from the cloud goes on to its
        vehicle.  Reports come in batches, to ``take_batch``."""
        kind = payload[0]
        if kind == "task":
            self._task(payload[1].origin_rsu, payload[1], False)
        elif kind == "relay_task":
            self._task(payload[1], payload[2], True)
        elif kind == "blueprint":
            self.pending_blueprint[payload[1].target] = payload[1]
        elif kind == "directive":
            self.directive[payload[1].from_rsu] = payload[1]
        elif kind == "result":
            self.engine.send(VEHICLES, ("result", payload[1]), self._response_bytes,
                             self._v2r, on_drop=drop_task)

    def _task(self, r: int, task, relayed: bool) -> None:
        now = self.engine.now
        if not relayed:
            task.edge_arrival_us = now
            task.overloaded_at_arrival = "Overload" in self.state[r].labels
        # cloud_only relays every task to the cloud
        if self._serves:
            directive = self.directive[r]
            if (not relayed and directive is not None and now < directive.expires_at_us
                    and self.state[r].utilization > self._util_high
                    and self.thinning[r].take(directive.fraction)):
                self.engine.send(EDGES, ("relay_task", directive.to_rsu, task),
                                 self._request_bytes, self._e2e, on_drop=drop_task)
                return
            server = self.server[r]
            if server.backlog_s(now) <= self._backlog_to_cloud_s:
                finish = server.enqueue(now, task.cost_cu)
                task.tier = "PartnerEdge" if relayed else "Edge"
                self.engine.schedule(finish, self._done, r, task, kind="compute")
                return
        self.engine.send(CLOUD, ("task", task), self._request_bytes,
                         self._r2c, on_drop=drop_task)

    def _done(self, r: int, task) -> None:
        self.processed_cu[r] += task.cost_cu
        if task.tier == "Edge" and self.current_rsu.item(task.origin) != r:
            # member left during service: forward the result via the cloud relay
            self.engine.send(CLOUD, ("relay_result", task), self._response_bytes,
                             self._r2c, on_drop=drop_task)
            return
        self.engine.send(VEHICLES, ("result", task), self._response_bytes,
                         self._v2r, on_drop=drop_task)

    def take_batch(self, batch: tuple, rows: np.ndarray) -> None:
        """The rows ``rows`` (ascending) that got through of a report batch of
        ``(v, rsu, speed, cq, backlog)`` arrays.  A row counts at edge ``rsu``
        if that edge still serves its vehicle; ``np.add.at`` adds the speeds
        in row order, so each region's sum is that of one-by-one adds."""
        v, rsu, speed, cq, backlog = batch
        kept = rows[rsu[rows] == self.current_rsu[v[rows]]]
        ids = v[kept]
        self.has[ids] = True
        self.cq[ids] = cq[kept]
        self.backlog[ids] = backlog[kept]
        at = rsu[kept]
        np.add.at(self.speed_sum, at, speed[kept])
        self.speed_count += np.bincount(at, minlength=len(self.speed_count))

    def forget(self, moved: np.ndarray) -> None:
        """Vehicles that changed RSU start at their new edge unreported."""
        self.has[moved] = False
        self.role[moved] = 0

    def fuse_and_uplink(self, now: int) -> None:
        """Close every region's fusion window, in region order: adopt its
        pending blueprint, fuse its new ``RegionState`` (a window with no
        report reads Normal and keeps the last mean speed), log it and uplink
        it, then reassign its members' roles.  One stable ``argsort`` of
        ``current_rsu`` lists each region's members in ascending id."""
        cfg = self.cfg
        util_high, util_low = cfg.thresholds.util_high, cfg.thresholds.util_low
        sums, counts = self.speed_sum.tolist(), self.speed_count.tolist()
        self.speed_sum[:] = 0.0
        self.speed_count[:] = 0
        members = np.argsort(self.current_rsu, kind="stable")
        ends = np.bincount(self.current_rsu, minlength=len(sums)).cumsum().tolist()
        start = 0
        for r, end in enumerate(ends):
            # policy descent takes effect only at window boundaries
            blueprint = self.pending_blueprint[r]
            if blueprint is not None:
                congested = "Congestion" in self.state[r].labels
                self.policy[r] = localize_policy(blueprint.policy, congested)
                self.pending_blueprint[r] = None
            policy = self.policy[r]
            utilization = min(1.0, self.processed_cu[r] / self._window_cu)
            self.processed_cu[r] = 0.0
            if counts[r]:
                mean_speed = sums[r] / counts[r]
                labels = fuse_labels(mean_speed, utilization, policy.congestion_speed_threshold,
                                     util_high, util_low)
            else:
                mean_speed, labels = self.state[r].mean_speed, ("Normal",)
            state = self.state[r] = RegionState(r, now, labels, utilization, mean_speed)
            self.label_log.append(state)
            self.engine.send(CLOUD, ("uplink", state), cfg.workload.uplink_bytes, self._r2c)

            # role churn follows the fused picture
            ids, start = members[start:end], end
            has = self.has[ids]
            self.role[ids] = assign_roles(
                ids, policy.role_quotas, np.where(has, self.cq[ids], 0.0),
                np.where(has, cfg.capacity.local_cu_s - self.backlog[ids], 0.0))
