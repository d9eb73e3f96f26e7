"""Showcase runner: wires the kernel, the mobility world and the three twin
layers into one deterministic simulation instance and produces run artifacts
(task records, index series, epoch log).

Modes: "layered" runs the full pyramid; "cloud_only" is the centralised
baseline (local serving off, edge compute disabled, everything relayed to
the cloud).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from . import edge as edge_mod
from . import kernel, metrics, mobility
from .cloud import (EpochRecord, KnowledgeGraph, OffloadDirective,
                    PolicyBlueprint, RegionEvolution, coordinate)
from .edge import (EdgeServer, FusionWindow, LocalPolicy, ThinningCounter,
                   UplinkPackage, assign_roles, fuse_labels, localize_policy,
                   ols_slope)
from .kernel import Engine, rng_stream, numpy_stream
from .local import decide_local
from .metrics import TaskRecord, build_index_series
from .mobility import Fleet, build_grid, serving_rsu
from .scenario import ScenarioConfig

US_PER_S = 1_000_000


@dataclass
class SimTask:
    id: int
    origin: int
    cost_cu: float
    tier: str | None = None


@dataclass
class DirectiveLogEntry:
    issued_us: int
    epoch: int
    from_rsu: int
    to_rsu: int
    fraction: float
    from_labels: tuple
    to_labels: tuple


@dataclass
class LabelLogEntry:
    window_end_us: int
    rsu_id: int
    labels: tuple
    utilization: float
    mean_speed: float


class EdgeRuntime:
    """Per-RSU edge twin state inside one simulation instance."""

    def __init__(self, rsu_id: int, cfg: ScenarioConfig, policy: LocalPolicy):
        self.rsu_id = rsu_id
        self.cfg = cfg
        self.members: dict[int, edge_mod.Member] = {}
        self.server = EdgeServer(cfg.capacity.edge_cu_s)
        self.thinning = ThinningCounter()
        self.policy = policy
        self.pending_blueprint: PolicyBlueprint | None = None
        self.directive: OffloadDirective | None = None
        self.window = FusionWindow()
        self.util_history: list[float] = []
        self.speed_history: list[float] = []
        self.labels: tuple = ("Normal",)
        self.last_utilization = 0.0
        self.last_mean_speed: float | None = None
        self.rejected_blueprints = 0

    def admit(self, device_id: int, now_us: int) -> None:
        assert device_id not in self.members, "duplicate membership"
        self.members[device_id] = edge_mod.Member(device_id, now_us)

    def release(self, device_id: int) -> None:
        self.members.pop(device_id, None)

    def directive_active(self, now_us: int) -> bool:
        return self.directive is not None and now_us < self.directive.expires_at_us


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list[TaskRecord]
    series: metrics.IndexSeries
    epoch_records: list[EpochRecord]
    directive_log: list[DirectiveLogEntry]
    label_log: list[LabelLogEntry]
    messages: kernel.MessageCounters
    wall_time_s: float

    @property
    def generated(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed_us is not None)

    @property
    def dropped(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    @property
    def in_flight(self) -> int:
        return self.generated - self.completed - self.dropped

    def write(self, outdir: str | Path) -> None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tasks.csv").write_text(metrics.tasks_csv(self.records), newline="")
        (out / "indices.csv").write_text(metrics.indices_csv(self.series), newline="")
        lines = "".join(r.to_json() + "\n" for r in self.epoch_records)
        (out / "epochs.jsonl").write_text(lines, newline="")


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.engine = Engine()
        self.rng_tasks = rng_stream(cfg.seed, "tasks")
        self.rng_loss = rng_stream(cfg.seed, "loss")
        self.rng_mutation = rng_stream(cfg.seed, "mutation")
        self.rng_mobility = numpy_stream(cfg.seed, "mobility")
        self.rng_beacons = numpy_stream(cfg.seed, "beacons")

        self.net = build_grid(cfg.grid.rows, cfg.grid.cols, cfg.grid.spacing_m,
                              cfg.grid.rsu_radius_m)
        n = cfg.n_vehicles
        spawn_rsu = np.repeat(np.arange(cfg.n_rsus), cfg.vehicles_per_rsu)
        self.fleet = Fleet(self.net, n, self.rng_mobility,
                           speed_range=tuple(cfg.speed_range_mps),
                           spawn_rsu=spawn_rsu if cfg.n_rsus > 1 else None)
        self.rsu_pos = self.net.rsu_positions
        self.rsu_radii = self.net.rsu_radii

        # links
        self.links = {name: lc.to_spec() for name, lc in cfg.links.items()}

        # local twin state
        self.local_busy_until = np.zeros(n, dtype=np.int64)
        self.sense_slots = round(cfg.periods.report_s * 1000 / cfg.periods.sense_ms)
        self.speed_buf = np.zeros((n, self.sense_slots))
        self.cq_buf = np.zeros((n, self.sense_slots))
        # mean speed and last channel quality of the latest 1 s report
        # window, per vehicle; None until the first report tick
        self._report_speed: np.ndarray | None = None
        self._report_cq: np.ndarray | None = None
        # the latest report the serving edge holds of each vehicle: written
        # on delivery, forgotten when the vehicle changes RSU
        self._has_report = np.zeros(n, dtype=bool)
        self._rep_cq = np.zeros(n)
        self._rep_backlog = np.zeros(n)
        self._rep_seg = np.zeros((n, 2), dtype=np.int64)
        # beacon snapshots: compact per-tick arrays standing in for per-vehicle
        # neighbor tables (queried lazily on handoff attempts)
        self._beacon_snapshots: list[tuple] = []
        self._neighbor_expiry_us = round(cfg.thresholds.neighbor_expiry_s * US_PER_S)
        self._role_code = np.zeros(n, dtype=np.int8)  # 0 acq, 1 proc, 2 coord
        self.backlog_triggered = np.zeros(n, dtype=bool)

        # edge twins
        init_policy = LocalPolicy(
            cfg.policy.local_serve_threshold,
            cfg.policy.offload_fraction,
            cfg.policy.congestion_speed_threshold,
            tuple(cfg.policy.role_quotas),
        )
        self.edges = [EdgeRuntime(r, cfg, init_policy) for r in range(cfg.n_rsus)]

        # cloud twin
        adjacency = self.net.rsu_adjacency()
        self.graph = KnowledgeGraph(list(range(cfg.n_rsus)), adjacency)
        self.evolutions = {
            r: RegionEvolution(PolicyBlueprint(
                target=r, epoch=0, parent_id=None,
                local_serve_threshold=cfg.policy.local_serve_threshold,
                offload_fraction=cfg.policy.offload_fraction,
                congestion_speed_threshold=cfg.policy.congestion_speed_threshold,
                role_quotas=tuple(cfg.policy.role_quotas),
            ))
            for r in range(cfg.n_rsus)
        }
        self.cloud_busy_until = 0
        self.epoch_rts: dict[int, list[int]] = {r: [] for r in range(cfg.n_rsus)}
        self.epoch_below: dict[int, int] = {r: 0 for r in range(cfg.n_rsus)}
        self.epoch_total: dict[int, int] = {r: 0 for r in range(cfg.n_rsus)}
        self.epoch_records: list[EpochRecord] = []
        self.directive_log: list[DirectiveLogEntry] = []
        self.label_log: list[LabelLogEntry] = []

        self.records: list[TaskRecord] = []
        self._tick_index = 0
        self._sense_us = round(cfg.periods.sense_ms * 1000)
        self._report_ticks = round(cfg.periods.report_s * US_PER_S / self._sense_us)
        self._fusion_ticks = round(cfg.periods.fusion_s * US_PER_S / self._sense_us)
        self._epoch_ticks = round(cfg.periods.epoch_s * US_PER_S / self._sense_us)

        # kernel endpoint ids: edge r is r, then the cloud, then vehicle v
        self._cloud = cfg.n_rsus
        self._veh = cfg.n_rsus + 1
        self._register_endpoints()
        self._initial_membership()
        self._schedule_workload()
        self.engine.schedule(self._sense_us, self._tick, kind="tick")

    # -- setup -------------------------------------------------------------

    def _register_endpoints(self) -> None:
        eng = self.engine
        for r in range(self.cfg.n_rsus):
            eng.register(r, self._make_edge_handler(r))
        eng.register(self._cloud, self._cloud_handler)
        for v in range(self.cfg.n_vehicles):
            eng.register(self._veh + v, self._make_vehicle_handler(v))

    def _initial_membership(self) -> None:
        self.current_rsu, _ = serving_rsu(self.fleet.pos, self.rsu_pos, self.rsu_radii,
                                          None, self.cfg.grid.hysteresis_m)
        for v, rsu in enumerate(self.current_rsu.tolist()):
            self.edges[rsu].admit(v, 0)

    def _schedule_workload(self) -> None:
        cfg = self.cfg
        if cfg.workload.task_rate_hz > 0:
            for v in range(cfg.n_vehicles):
                self._schedule_next_task(v)
        for st in cfg.scripted_tasks:
            self.engine.schedule(round(st.at_s * US_PER_S), self._spawn_task,
                                 st.device, st.cost_cu, kind="task")

    # -- workload ----------------------------------------------------------

    def _task_rate(self, v: int, now_us: int) -> float:
        rate = self.cfg.workload.task_rate_hz
        hs = self.cfg.hotspot
        if hs is not None and self.current_rsu[v] == hs.region:
            if hs.t_start_s * US_PER_S <= now_us < hs.t_end_s * US_PER_S:
                rate *= hs.rate_multiplier
        return rate

    def _schedule_next_task(self, v: int) -> None:
        rate = self._task_rate(v, self.engine.now)
        if rate <= 0:
            # re-check one second later; the hotspot may switch back on
            self.engine.schedule_in(US_PER_S, self._schedule_next_task, v, kind="task")
            return
        gap = round(self.rng_tasks.expovariate(rate) * US_PER_S)
        at = self.engine.now + max(1, gap)
        if at <= self.cfg.duration_us:
            self.engine.schedule(at, self._task_arrival, v, kind="task")

    def _task_arrival(self, v: int) -> None:
        lo, hi = self.cfg.workload.cost_range_cu
        cost = self.rng_tasks.uniform(lo, hi)
        self._spawn_task(v, cost)
        self._schedule_next_task(v)

    def _spawn_task(self, v: int, cost: float) -> None:
        now = self.engine.now
        task = SimTask(len(self.records), v, cost)
        rec = TaskRecord(task.id, v, now, origin_rsu=int(self.current_rsu[v]))
        self.records.append(rec)
        self._place_task(task)

    def _place_task(self, task: SimTask) -> None:
        cfg = self.cfg
        v = task.origin
        rsu = int(self.current_rsu[v])
        now = self.engine.now
        threshold = 0.0
        if cfg.mode == "layered":
            threshold = self.edges[rsu].policy.local_serve_threshold
        backlog_cu = self._local_backlog_cu(v, now)
        placement = decide_local(task.cost_cu, threshold, backlog_cu,
                                 cfg.capacity.local_cu_s, cfg.thresholds.local_backlog_s)
        if placement == "local":
            backlog_s = backlog_cu / cfg.capacity.local_cu_s
            if backlog_s > cfg.thresholds.handoff_gap_s:
                peer = self._handoff_candidate(v, now, backlog_cu)
                if peer is not None:
                    self.engine.send(self._veh + peer, ("handoff", task),
                                     cfg.workload.request_bytes, self.links["v2v"],
                                     self.rng_loss, on_drop=self._drop_task)
                    return
            self._serve_local(v, task)
        else:
            self.engine.send(rsu, ("task", task),
                             cfg.workload.request_bytes, self.links["v2r"],
                             self.rng_loss, on_drop=self._drop_task)

    def _local_backlog_cu(self, v: int, now_us: int) -> float:
        pending_us = max(0, int(self.local_busy_until[v]) - now_us)
        return pending_us / US_PER_S * self.cfg.capacity.local_cu_s

    def _serve_local(self, server_vehicle: int, task: SimTask) -> None:
        now = self.engine.now
        cap = self.cfg.capacity.local_cu_s
        start = max(now, int(self.local_busy_until[server_vehicle]))
        finish = start + round(task.cost_cu / cap * US_PER_S)
        self.local_busy_until[server_vehicle] = finish
        task.tier = "Local"
        self.engine.schedule(finish, self._local_done, server_vehicle, task, kind="compute")
        self._check_backlog_trigger(server_vehicle)

    def _local_done(self, server_vehicle: int, task: SimTask) -> None:
        if server_vehicle == task.origin:
            self._complete_task(task)
        else:
            self.engine.send(self._veh + task.origin, ("result", task),
                             self.cfg.workload.response_bytes, self.links["v2v"],
                             self.rng_loss, on_drop=self._drop_task)

    def _check_backlog_trigger(self, v: int) -> None:
        backlog_s = self._local_backlog_cu(v, self.engine.now) / self.cfg.capacity.local_cu_s
        if backlog_s > self.cfg.thresholds.local_backlog_s:
            if not self.backlog_triggered[v]:
                self.backlog_triggered[v] = True
                self._send_report(v)
        else:
            self.backlog_triggered[v] = False

    # -- edge --------------------------------------------------------------

    def _make_edge_handler(self, r: int):
        def handler(payload):
            kind = payload[0]
            if kind == "task":
                self._edge_task(r, payload[1], relayed=False)
            elif kind == "relay_task":
                self._edge_task(r, payload[1], relayed=True)
            elif kind == "report":
                self._edge_report(r, payload[1])
            elif kind == "blueprint":
                self.edges[r].pending_blueprint = payload[1]
            elif kind == "directive":
                self.edges[r].directive = payload[1]
            elif kind == "result":
                task = payload[1]
                self.engine.send(self._veh + task.origin, ("result", task),
                                 self.cfg.workload.response_bytes, self.links["v2r"],
                                 self.rng_loss, on_drop=self._drop_task)
        return handler

    def _edge_task(self, r: int, task: SimTask, relayed: bool) -> None:
        cfg = self.cfg
        e = self.edges[r]
        now = self.engine.now
        rec = self.records[task.id]
        if not relayed:
            rec.edge_arrival_us = now
            rec.overloaded_at_arrival = "Overload" in e.labels
        if cfg.mode == "cloud_only":
            self.engine.send(self._cloud, ("task", task), cfg.workload.request_bytes,
                             self.links["r2c"], self.rng_loss, on_drop=self._drop_task)
            return
        if (not relayed and e.directive_active(now)
                and e.last_utilization > cfg.thresholds.util_high
                and e.thinning.take(e.directive.fraction)):
            self.engine.send(e.directive.to_rsu, ("relay_task", task),
                             cfg.workload.request_bytes, self.links["e2e"],
                             self.rng_loss, on_drop=self._drop_task)
            return
        if e.server.backlog_s(now) > cfg.thresholds.backlog_to_cloud_s:
            self.engine.send(self._cloud, ("task", task), cfg.workload.request_bytes,
                             self.links["r2c"], self.rng_loss, on_drop=self._drop_task)
            return
        finish = e.server.enqueue(now, task.cost_cu)
        task.tier = "PartnerEdge" if relayed else "Edge"
        self.engine.schedule(finish, self._edge_done, r, task, kind="compute")

    def _edge_done(self, r: int, task: SimTask) -> None:
        e = self.edges[r]
        e.window.processed_cu += task.cost_cu
        v = task.origin
        serving_rsu = r if task.tier == "Edge" else None
        if serving_rsu is not None and v not in e.members:
            # member left during service: forward the result via the cloud relay
            self.engine.send(self._cloud, ("relay_result", task),
                             self.cfg.workload.response_bytes, self.links["r2c"],
                             self.rng_loss, on_drop=self._drop_task)
            return
        self.engine.send(self._veh + v, ("result", task),
                         self.cfg.workload.response_bytes, self.links["v2r"],
                         self.rng_loss, on_drop=self._drop_task)

    def _edge_report(self, r: int, report: tuple) -> None:
        """report is (device, mean_speed, channel_quality, segment, backlog_cu)."""
        e = self.edges[r]
        device = report[0]
        if device not in e.members:
            return
        e.window.speed_sum += report[1]
        e.window.speed_count += 1
        self._has_report[device] = True
        self._rep_cq[device] = report[2]
        self._rep_seg[device] = report[3]
        self._rep_backlog[device] = report[4]

    def _deliver_reports(self, batch: tuple, indices: list) -> None:
        """The reports of one batch that got through, as ``_edge_report``
        would take them one by one in vehicle order: an edge keeps those of
        its members (vehicles it still serves) and adds their mean speeds in
        that order."""
        rsu, speed, cq, seg, backlog = batch
        v = np.array(indices)
        v = v[self.current_rsu[v] == rsu[v]]
        for e in self.edges:
            mine = v[rsu[v] == e.rsu_id]
            w = e.window
            total = w.speed_sum
            for s in speed[mine].tolist():
                total += s
            w.speed_sum = total
            w.speed_count += len(mine)
        self._has_report[v] = True
        self._rep_cq[v] = cq[v]
        self._rep_seg[v] = seg[v]
        self._rep_backlog[v] = backlog[v]

    # -- cloud -------------------------------------------------------------

    def _cloud_handler(self, payload) -> None:
        kind = payload[0]
        if kind == "task":
            task = payload[1]
            now = self.engine.now
            cap = self.cfg.capacity.cloud_cu_s
            start = max(now, self.cloud_busy_until)
            finish = start + round(task.cost_cu / cap * US_PER_S)
            self.cloud_busy_until = finish
            task.tier = "Cloud"
            self.engine.schedule(finish, self._cloud_done, task, kind="compute")
        elif kind == "relay_result":
            task = payload[1]
            self._route_result_to_vehicle(task)
        elif kind == "uplink":
            self.graph.ingest(payload[1])

    def _cloud_done(self, task: SimTask) -> None:
        self._route_result_to_vehicle(task)

    def _route_result_to_vehicle(self, task: SimTask) -> None:
        rsu = int(self.current_rsu[task.origin])
        self.engine.send(rsu, ("result", task),
                         self.cfg.workload.response_bytes, self.links["r2c"],
                         self.rng_loss, on_drop=self._drop_task)

    # -- vehicle endpoint --------------------------------------------------

    def _make_vehicle_handler(self, v: int):
        def handler(payload):
            kind = payload[0]
            if kind == "result":
                self._complete_task(payload[1])
            elif kind == "handoff":
                self._serve_local(v, payload[1])
        return handler

    def _complete_task(self, task: SimTask) -> None:
        rec = self.records[task.id]
        if rec.completed_us is not None or rec.dropped:
            return
        rec.completed_us = self.engine.now
        rec.tier = task.tier
        region = rec.origin_rsu
        self.epoch_rts[region].append(rec.rt_us)
        self.epoch_total[region] += 1
        below = rec.tier in metrics.BELOW_CLOUD
        if below:
            self.epoch_below[region] += 1
        e = self.edges[region]
        e.window.completed_tasks += 1
        if below:
            e.window.completed_below_cloud += 1

    def _drop_task(self, payload) -> None:
        task = payload[1]
        rec = self.records[task.id]
        if rec.completed_us is None:
            rec.dropped = True

    # -- periodic machinery ------------------------------------------------

    def _tick(self) -> None:
        self._tick_index += 1
        now = self.engine.now
        dt = self._sense_us / US_PER_S
        self.fleet.step(dt, self.rng_mobility)
        self._update_coverage(now)
        self._sense(now)
        if self._tick_index % self._report_ticks == 0:
            self._beacon_exchange(now)
            self._emit_reports(now)
        if self._tick_index % self._fusion_ticks == 0:
            for e in self.edges:
                self._fuse_and_uplink(e, now)
        if self._tick_index % self._epoch_ticks == 0:
            self._epoch_boundary(now)
        nxt = now + self._sense_us
        if nxt <= self.cfg.duration_us:
            self.engine.schedule(nxt, self._tick, kind="tick")

    def _update_coverage(self, now: int) -> None:
        old = self.current_rsu
        self.current_rsu, self._d_cur_cache = serving_rsu(
            self.fleet.pos, self.rsu_pos, self.rsu_radii, old, self.cfg.grid.hysteresis_m)
        moved = np.flatnonzero(self.current_rsu != old)
        self._has_report[moved] = False
        for v in moved:
            self.edges[old[v]].release(v)
            self.edges[self.current_rsu[v]].admit(v, now)
            self._role_code[v] = 0
            self._send_report(v)

    def _sense(self, now: int) -> None:
        slot = (self._tick_index - 1) % self.sense_slots
        self.speed_buf[:, slot] = self.fleet.speed
        cq = 1.0 - self._d_cur_cache / self.rsu_radii[self.current_rsu]
        self.cq_buf[:, slot] = np.clip(cq, 0.0, 1.0)

    def _emit_reports(self, now: int) -> None:
        """1 Hz status reports of every vehicle, in vehicle order, sent as
        one batch whose fields stay in arrays: those that get through reach
        their edges in one delivery event (``_deliver_reports``); a lost one
        retransmits as a report tuple."""
        cfg = self.cfg
        fleet = self.fleet
        self._report_speed = speed = self.speed_buf.mean(axis=1)
        self._report_cq = cq = self.cq_buf[:, -1].copy()
        seg = np.sort(np.stack([fleet.segment_from, fleet.waypoint], axis=1), axis=1)
        backlog = (np.maximum(self.local_busy_until - now, 0) / US_PER_S
                   * cfg.capacity.local_cu_s)
        batch = (self.current_rsu, speed, cq, seg, backlog)

        def payload(v):
            lo, hi = seg[v].tolist()
            return "report", (v, float(speed[v]), float(cq[v]), (lo, hi), float(backlog[v]))

        self.engine.send_batch(self.current_rsu.tolist(), cfg.workload.report_bytes,
                               self.links["v2r"], self.rng_loss,
                               partial(self._deliver_reports, batch), payload)

    def _send_report(self, v: int) -> None:
        """Out-of-cycle report (RSU handover, backlog trigger): the latest
        window's speed and channel quality with the current segment and
        backlog."""
        if self._report_speed is None:
            return
        report = (v, float(self._report_speed[v]), float(self._report_cq[v]),
                  self.fleet.current_segment_of(v),
                  self._local_backlog_cu(v, self.engine.now))
        self.engine.send(int(self.current_rsu[v]), ("report", report),
                         self.cfg.workload.report_bytes, self.links["v2r"], self.rng_loss)

    def _beacon_exchange(self, now: int) -> None:
        """Batched V2V beacon pass: neighbor discovery within range with
        Bernoulli loss per beacon, without per-message kernel events.

        Delivered beacons are kept as one compact snapshot per tick (sender,
        receiver, and the sender-side state arrays at send time); handoff
        lookups reconstruct the neighbor-table view lazily."""
        rng = self.rng_beacons
        rrange = self.cfg.thresholds.v2v_range_m
        n = len(self.fleet.pos)
        tree = cKDTree(self.fleet.pos)
        pairs = tree.query_pairs(rrange, output_type="ndarray")
        if len(pairs):
            # pairs are unique, so one key gives the (p0, p1) order
            pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]
        n_directed = 2 * len(pairs)
        latency = kernel.link_latency(self.links["v2v"], self.cfg.workload.beacon_bytes)
        if n_directed:
            src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
            ok = rng.random(n_directed) >= self.links["v2v"].loss_prob
            src, dst = src[ok], dst[ok]
            # the order of a stable sort on dst: each receiver's senders
            # ascend (first half: senders below it, second half: above it)
            by_dst = np.argsort(dst * n + src)
            snapshot = (now, now + latency, dst[by_dst], src[by_dst],
                        self.local_busy_until.copy(), self._role_code.copy())
            self._beacon_snapshots.append(snapshot)
            delivered = int(ok.sum())
        else:
            delivered = 0
        while (self._beacon_snapshots
               and now - self._beacon_snapshots[0][1] > self._neighbor_expiry_us):
            self._beacon_snapshots.pop(0)
        self.engine.account_batch(n_directed, delivered, n_directed - delivered)

    def _handoff_candidate(self, v: int, now: int, own_backlog_cu: float) -> int | None:
        """Processing-role neighbor whose advertised backlog trails ours by
        more than the handoff gap; lowest backlog wins, ties by id.  Uses the
        most recent unexpired beacon per neighbor."""
        cap = self.cfg.capacity.local_cu_s
        need = own_backlog_cu / cap - self.cfg.thresholds.handoff_gap_s
        seen: set[int] = set()
        best: tuple[float, int] | None = None
        for t_send, heard_at, dst, src, busy, role in reversed(self._beacon_snapshots):
            if heard_at > now or now - heard_at > self._neighbor_expiry_us:
                continue
            i0 = np.searchsorted(dst, v, side="left")
            i1 = np.searchsorted(dst, v, side="right")
            for s in src[i0:i1]:
                s = int(s)
                if s in seen:
                    continue
                seen.add(s)
                if role[s] != 1:
                    continue
                backlog_s = max(0, int(busy[s]) - t_send) / US_PER_S
                if backlog_s < need:
                    key = (backlog_s * cap, s)
                    if best is None or key < best:
                        best = key
        return best[1] if best is not None else None

    def _fuse_and_uplink(self, e: EdgeRuntime, now: int) -> None:
        cfg = self.cfg
        # policy descent takes effect only at window boundaries
        if e.pending_blueprint is not None:
            bp = e.pending_blueprint
            e.pending_blueprint = None
            try:
                e.policy = localize_policy(bp.params(), bp.epoch, bp.blueprint_id,
                                           congestion_active="Congestion" in e.labels)
            except ValueError:
                e.rejected_blueprints += 1
        w = e.window
        window_us = self._fusion_ticks * self._sense_us
        utilization = w.processed_cu / (cfg.capacity.edge_cu_s * window_us / US_PER_S)
        utilization = min(1.0, utilization)
        if w.speed_count:
            mean_speed = w.speed_sum / w.speed_count
            e.last_mean_speed = mean_speed
            labels = fuse_labels(mean_speed, utilization,
                                 e.policy.congestion_speed_threshold,
                                 cfg.thresholds.util_high, cfg.thresholds.util_low)
        else:
            mean_speed = e.last_mean_speed if e.last_mean_speed is not None else 0.0
            labels = ("Normal",)
        e.labels = labels
        e.last_utilization = utilization
        e.util_history.append(utilization)
        e.speed_history.append(mean_speed)
        self.label_log.append(LabelLogEntry(now, e.rsu_id, labels, utilization, mean_speed))

        reported = np.flatnonzero(self._has_report & (self.current_rsu == e.rsu_id))
        density = {}
        seg_members: dict = {}
        for seg in map(tuple, self._rep_seg[reported].tolist()):
            seg_members[seg] = seg_members.get(seg, 0) + 1
        for seg_idx in self.net.region_segments(e.rsu_id):
            seg = self.net.segments[seg_idx]
            density[seg_idx] = mobility.vehicle_density(seg_members.get(seg, 0),
                                                        self.net.segment_length(seg_idx))

        autonomy_w = (w.completed_below_cloud / w.completed_tasks
                      if w.completed_tasks else 1.0)
        package = UplinkPackage(
            rsu_id=e.rsu_id, t0_us=now - window_us, t1_us=now,
            event_labels=labels, mean_speed=mean_speed, density_map=density,
            utilization=utilization,
            trend_utilization=ols_slope(e.util_history[-6:]),
            trend_speed=ols_slope(e.speed_history[-6:]),
            autonomy_window=autonomy_w,
        )
        self.engine.send(self._cloud, ("uplink", package), cfg.workload.uplink_bytes,
                         self.links["r2c"], self.rng_loss)
        e.window = FusionWindow()

        # role churn follows the fused picture
        ids = reported.tolist()
        cq = dict(zip(ids, self._rep_cq[reported].tolist()))
        idle = dict(zip(ids, (cfg.capacity.local_cu_s - self._rep_backlog[reported]).tolist()))
        assigned = assign_roles(e.members, e.policy.role_quotas, cq, idle)
        for d, role in assigned.items():
            self._role_code[d] = edge_mod.ROLES.index(role)

    def _epoch_boundary(self, now: int) -> None:
        cfg = self.cfg
        epoch_idx = self._tick_index // self._epoch_ticks - 1  # epoch just ended
        epoch_us = self._epoch_ticks * self._sense_us
        for r in sorted(self.evolutions):
            evo = self.evolutions[r]
            evaluated = evo.candidate if evo.candidate is not None else evo.kept
            rts = self.epoch_rts[r]
            med = metrics.median(rts) if rts else None
            total = self.epoch_total[r]
            autonomy = self.epoch_below[r] / total if total else None
            decision, _ = evo.close_epoch(med)
            self.epoch_records.append(
                EpochRecord(epoch_idx, r, evaluated, med, autonomy, decision))
            self.epoch_rts[r] = []
            self.epoch_below[r] = 0
            self.epoch_total[r] = 0
        if now >= cfg.duration_us:
            return
        fractions = {}
        for r in sorted(self.evolutions):
            candidate = self.evolutions[r].open_epoch(epoch_idx + 1, self.rng_mutation)
            fractions[r] = candidate.offload_fraction
            self.engine.send(r, ("blueprint", candidate),
                             cfg.workload.blueprint_bytes, self.links["r2c"],
                             self.rng_loss)
        directives = coordinate(self.graph, fractions, epoch_idx + 1, now + epoch_us)
        for d in directives:
            self.directive_log.append(DirectiveLogEntry(
                now, d.epoch, d.from_rsu, d.to_rsu, d.fraction,
                self.graph.nodes[d.from_rsu].labels,
                self.graph.nodes[d.to_rsu].labels,
            ))
            self.engine.send(d.from_rsu, ("directive", d), 200,
                             self.links["r2c"], self.rng_loss)

    # -- run ---------------------------------------------------------------

    def run(self) -> RunResult:
        start = time.perf_counter()
        self.engine.run_until(self.cfg.duration_us)
        wall = time.perf_counter() - start
        series = build_index_series(
            self.records, self.cfg.duration_us,
            round(self.cfg.periods.index_window_s * US_PER_S))
        return RunResult(
            config=self.cfg,
            records=self.records,
            series=series,
            epoch_records=self.epoch_records,
            directive_log=self.directive_log,
            label_log=self.label_log,
            messages=self.engine.messages,
            wall_time_s=wall,
        )


def run_showcase(cfg: ScenarioConfig, outdir: str | Path | None = None) -> RunResult:
    """Execute one scenario to completion; optionally write run artifacts."""
    sim = Simulation(cfg)
    result = sim.run()
    if outdir is not None:
        result.write(outdir)
    return result
