"""Local twins: one vectorized ``LocalTwins`` for every vehicle's twin.  It
owns task arrivals, placement, the local queue, V2V handoff, completion and
drop, status reports and the V2V beacon pass.  All vehicles share the one
kernel endpoint ``VEHICLES``: a result names its vehicle by its task's
origin, a handoff ``("handoff", peer, task)`` by the peer that serves it.

A status report goes up every second with the vehicle's speed (it keeps its
spawn speed), its channel quality at the report tick and its local queue
backlog, plus immediately on an RSU handover or when the local queue backlog
exceeds the trigger threshold.  Every report is a row of a report batch,
which names each row's vehicle and serving RSU: the 1 Hz batch holds every
vehicle, a handover batch the vehicles that moved, a backlog batch one.  The
runner hands the report tick's distances in.  The serving edge adds the
speeds to its fusion window and ranks its vehicles for roles by the channel
quality and idle compute of their latest report.
The scalar models of channel quality and of the neighbour table that the
per-vehicle arrays stand in for live in tests/oracles.py, where the tests
check this module against them.
"""
from __future__ import annotations

from functools import partial
from math import log

import numpy as np

from .kernel import EDGES, US_PER_S, VEHICLES, link_latency, numpy_stream, rng_stream
from .metrics import TaskRecord
from .mobility import form_pairs


def decide_local(cost_cu: float, local_serve_threshold: float, backlog_cu: float,
                 local_capacity_cu_s: float, backlog_limit_s: float = 2.0) -> str:
    """Pure placement rule: 'local' iff the task's cost is below the policy
    threshold and the local queue is short enough, else 'edge'."""
    if (
        cost_cu <= local_serve_threshold
        and backlog_cu / local_capacity_cu_s <= backlog_limit_s
    ):
        return "local"
    return "edge"


def drop_task(payload) -> None:
    """``on_drop`` of every message that carries a task as its last element.
    Only one message carries a task at a time, so a task settles once: it
    completes or it is dropped."""
    payload[-1].dropped = True


class BeaconSnapshot:
    """One 1 Hz V2V beacon pass: the vehicle pairs in range, the loss draw
    of each directed beacon, and the senders' local queue and role at send
    time.

    ``keys()`` forms the pairs as sorted ``mobility.form_pairs`` keys
    ``p0 << bits | p1``; ``ok[i]`` belongs to the ``i``-th directed beacon in
    their order: the first half ``p0 -> p1``, the second half ``p1 -> p0``.
    The first ``senders`` call forms the keys and builds the index that
    replaces these raw arrays, so a pass that no handoff reads forms and
    sorts nothing: per vehicle its ranking ``key`` (its backlog in CU as a
    Processing-role sender, else inf), and each receiver's senders in
    ``(key, id)`` order, ``src[indptr[v]:indptr[v + 1]]``.
    """

    __slots__ = ("t_send", "heard_at", "raw", "cap", "key", "src", "indptr")

    def __init__(self, t_send: int, heard_at: int, keys, ok: np.ndarray,
                 busy: np.ndarray, role: np.ndarray, cap: float):
        self.t_send = t_send
        self.heard_at = heard_at
        self.raw = (keys, ok, busy, role)
        self.cap = cap

    def senders(self, v: int) -> np.ndarray:
        """Senders of the delivered beacons vehicle ``v`` heard, in ``(key, id)`` order."""
        if self.raw is not None:
            self._build_index()
        return self.src[self.indptr.item(v):self.indptr.item(v + 1)]

    def _build_index(self) -> None:
        keys, ok, busy, role = self.raw
        pairs = keys()
        n, bits = len(busy), (len(busy) - 1).bit_length()
        low = (1 << bits) - 1
        self.key = np.where(role == 1, np.maximum(busy - self.t_send, 0) / US_PER_S * self.cap,
                            np.inf)
        by_key = np.argsort(self.key, kind="stable")
        rank = np.empty(n, dtype=pairs.dtype)
        rank[by_key] = np.arange(n, dtype=pairs.dtype)
        # the beacons p0 -> p1, then p1 -> p0, as receiver << bits | rank of
        # the sender; a lost one is all ones and sorts last
        p0, p1 = pairs >> bits, pairs & low
        run = np.concatenate((p1 << bits | rank.take(p0), p0 << bits | rank.take(p1)))
        run = np.sort(run | np.negative(~ok, dtype=pairs.dtype))[:np.count_nonzero(ok)]
        self.src = by_key.take(run & low)
        self.indptr = np.searchsorted(run >> bits, np.arange(n + 1, dtype=run.dtype))
        self.raw = None


class LocalTwins:
    """The twins of every vehicle, over per-vehicle arrays; ``world`` is the
    runner's read-only view.  Construction schedules the first task arrival
    of every vehicle and every scripted task."""

    def __init__(self, world, edges, cloud):
        cfg = self.cfg = world.cfg
        self.engine = world.engine
        self.current_rsu = world.current_rsu
        self.rng_tasks = rng_stream(cfg.seed, "tasks")
        self.rng_beacons = numpy_stream(cfg.seed, "beacons")
        self.edges = edges
        self._tally = cloud.tally
        n = cfg.n_vehicles
        self.records: list[TaskRecord] = []
        self.busy_until = np.zeros(n, dtype=np.int64)
        self.backlog_triggered = np.zeros(n, dtype=bool)
        # each vehicle's speed, which the fleet never changes after spawn
        self.speed = world.fleet.speed
        # channel quality of the latest report tick; None until the first
        self._report_cq: np.ndarray | None = None
        # the vehicles of every 1 Hz report batch
        self._vehicles = np.arange(n)
        # beacon snapshots: one per 1 Hz pass, standing in for per-vehicle
        # neighbor tables (indexed lazily on handoff attempts)
        self.beacon_snapshots: list[BeaconSnapshot] = []
        self.neighbor_expiry_us = round(cfg.thresholds.neighbor_expiry_s * US_PER_S)
        # what each task arrival reads: the rate, the hotspot's region,
        # window (us) and multiplier, the cost range, the local capacity,
        # the thresholds, the request size and the links
        w, t, hs = cfg.workload, cfg.thresholds, cfg.hotspot
        self._rate = w.task_rate_hz
        self._hotspot = (None, 0.0, 0.0, 1.0) if hs is None else (
            hs.region, hs.t_start_s * US_PER_S, hs.t_end_s * US_PER_S, hs.rate_multiplier)
        lo, hi = w.cost_range_cu
        self._cost_lo, self._cost_span = lo, hi - lo
        self._cap = cfg.capacity.local_cu_s
        self._layered = cfg.mode == "layered"
        self._backlog_limit_s = t.local_backlog_s
        self._handoff_gap_s = t.handoff_gap_s
        self._duration_us = cfg.duration_us
        self._request_bytes, self._report_bytes = w.request_bytes, w.report_bytes
        self._v2r, self._v2v = cfg.links.v2r, cfg.links.v2v

        if self._rate > 0:
            for v in range(n):
                self._task_arrival(v, arrives=False)
        for st in cfg.scripted_tasks:
            self.engine.schedule(round(st.at_s * US_PER_S), self._spawn_task,
                                 st.device, st.cost_cu, kind="task")

    # -- workload ----------------------------------------------------------

    def _task_arrival(self, v: int, arrives: bool = True) -> None:
        """Vehicle ``v``'s Poisson workload: a task arrives now with a
        drawn cost and is recorded and placed (unless ``arrives`` is false:
        the first draw at set-up, or a re-check at a zero rate); then the gap
        to the next arrival is drawn at the vehicle's rate now.  The draws
        are ``random.Random``'s own ``uniform`` and ``expovariate`` bodies."""
        now = self.engine.now
        draw = self.rng_tasks.random
        if arrives:
            self._spawn_task(v, self._cost_lo + self._cost_span * draw())
        rate = self._rate
        region, t_start, t_end, multiplier = self._hotspot
        if t_start <= now < t_end and self.current_rsu.item(v) == region:
            rate *= multiplier
        if rate <= 0:
            # re-check one second later; the hotspot may switch back on
            self.engine.schedule(now + US_PER_S, self._task_arrival, v, False, kind="task")
            return
        at = now + max(1, round(-log(1.0 - draw()) / rate * US_PER_S))
        if at <= self._duration_us:
            self.engine.schedule(at, self._task_arrival, v, kind="task")

    def _spawn_task(self, v: int, cost: float) -> None:
        """A task of ``cost`` CU arrives at vehicle ``v`` now (a Poisson or a
        scripted task): it is recorded, then served on board, handed off to a
        V2V neighbour or sent to the serving edge."""
        now = self.engine.now
        rsu = self.current_rsu.item(v)
        task = TaskRecord(len(self.records), v, now, None, None, False, rsu, None, False, cost)
        self.records.append(task)
        cap = self._cap
        threshold = self.edges.policy[rsu].local_serve_threshold if self._layered else 0.0
        backlog_cu = max(0, self.busy_until.item(v) - now) / US_PER_S * cap
        if decide_local(cost, threshold, backlog_cu, cap, self._backlog_limit_s) == "edge":
            self.engine.send(EDGES, ("task", task), self._request_bytes, self._v2r,
                             on_drop=drop_task)
            return
        if backlog_cu / cap > self._handoff_gap_s:
            peer = self.handoff_candidate(v, now, backlog_cu)
            if peer is not None:
                self.engine.send(VEHICLES, ("handoff", peer, task), self._request_bytes,
                                 self._v2v, on_drop=drop_task)
                return
        self._serve(v, task)

    def _serve(self, server_vehicle: int, task: TaskRecord) -> None:
        now = self.engine.now
        cap = self._cap
        finish = (max(now, self.busy_until.item(server_vehicle))
                  + round(task.cost_cu / cap * US_PER_S))
        self.busy_until[server_vehicle] = finish
        task.tier = "Local"
        self.engine.schedule(finish, self._local_done, server_vehicle, task, kind="compute")
        # one report when the backlog passes its trigger (backlog_cu's
        # floats over the capacity)
        over = (finish - now) / US_PER_S * cap / cap > self._backlog_limit_s
        if over and not self.backlog_triggered.item(server_vehicle):
            self.send_reports(np.array([server_vehicle]), now)
        self.backlog_triggered[server_vehicle] = over

    def _local_done(self, server_vehicle: int, task: TaskRecord) -> None:
        if server_vehicle == task.origin:
            self.complete(task)
        else:
            self.engine.send(VEHICLES, ("result", task), self.cfg.workload.response_bytes,
                             self._v2v, on_drop=drop_task)

    # -- vehicle endpoint --------------------------------------------------

    def receive(self, payload) -> None:
        """A result reaches its origin; a handoff joins its peer's queue."""
        kind = payload[0]
        if kind == "result":
            self.complete(payload[1])
        elif kind == "handoff":
            self._serve(payload[1], payload[2])

    def complete(self, task: TaskRecord) -> None:
        task.completed_us = self.engine.now
        self._tally(task)

    # -- reports, beacons --------------------------------------------------

    def emit_reports(self, now: int, d_rel: np.ndarray) -> None:
        """1 Hz status reports of every vehicle, with the channel quality at
        distance ``d_rel`` (in RSU radii) from its serving RSU."""
        self._report_cq = np.clip(1.0 - d_rel, 0.0, 1.0)
        self.send_reports(self._vehicles, now)

    def send_reports(self, v: np.ndarray, now: int) -> None:
        """Status reports of the vehicles ``v`` (ascending) to the edge layer,
        as one batch of ``(v, rsu, speed, cq, backlog)`` arrays: each
        vehicle's serving RSU, its speed, its channel quality at the latest
        report tick and its backlog now.  Nothing goes before the first report
        tick."""
        cq = self._report_cq
        if cq is None:
            return
        backlog = np.maximum(self.busy_until[v] - now, 0) / US_PER_S * self._cap
        batch = (v, self.current_rsu[v], self.speed[v], cq[v], backlog)
        self.engine.send_batch(len(v), self._report_bytes, self._v2r,
                               partial(self.edges.take_batch, batch))

    def beacon_pass(self, now: int, found: tuple) -> None:
        """Batched V2V beacon pass over the vehicle pairs in range, as
        ``mobility.pair_search`` found them: Bernoulli loss per beacon,
        without per-message kernel events.

        The loss draws and the message counters happen here, every pass;
        the pass is kept as one ``BeaconSnapshot`` (the search, loss mask and
        the sender-side state arrays at send time), whose pairs and
        per-receiver neighbour index are formed on the first handoff query
        that reads it."""
        v2v = self._v2v
        n_directed = 2 * len(found[3])
        delivered = 0
        if n_directed:
            ok = self.rng_beacons.random(n_directed) >= v2v.loss_prob
            delivered = int(np.count_nonzero(ok))
            latency = link_latency(v2v, self.cfg.workload.beacon_bytes)
            self.beacon_snapshots.append(BeaconSnapshot(
                now, now + latency, partial(form_pairs, *found), ok, self.busy_until.copy(),
                self.edges.role.copy(), self.cfg.capacity.local_cu_s))
        snapshots = self.beacon_snapshots
        while snapshots and now - snapshots[0].heard_at > self.neighbor_expiry_us:
            snapshots.pop(0)
        self.engine.account_batch(n_directed, delivered, n_directed - delivered)

    def handoff_candidate(self, v: int, now: int, own_backlog_cu: float) -> int | None:
        """Processing-role neighbor whose advertised backlog trails ours by
        more than the handoff gap; lowest backlog wins, ties by id.  Uses the
        most recent unexpired beacon per neighbor: newest first, a snapshot's
        senders are walked in ``(key, id)`` order up to the first that fails
        the gap (the test is monotone in the key) or does not beat the best so
        far, and the first that no newer snapshot heard is the new best."""
        cap = self._cap
        need = own_backlog_cu / cap - self._handoff_gap_s
        best = heard = None  # heard: by a newer snapshot
        for snap in reversed(self.beacon_snapshots):
            if not 0 <= now - snap.heard_at <= self.neighbor_expiry_us or not len(
                    c := snap.senders(v)):
                continue
            if heard is None:
                heard = np.zeros(len(snap.key), dtype=bool)
            for i in range(len(c)):
                s = c.item(i)
                key = snap.key.item(s)
                if not key / cap < need or best is not None and (key, s) >= best:
                    break
                if not heard.item(s):
                    best = (key, s)
                    break
            heard[c] = True
        return None if best is None else best[1]
