"""Scalar reference models of vectorized runtime paths.

Each model here is the per-vehicle statement of a rule that the simulator
evaluates in bulk; the tests check the runtime code against it:

- ``spawn_fleet``: ``mobility.Fleet``'s spawn, one vehicle at a time
  after the same three bulk draws;
- ``VehicleState``/``step_vehicle``: ``mobility.Fleet.step``;
- ``covering_rsu``: ``mobility.serving_rsu``;
- ``nearest_rsu``: ``mobility.nearest``, from the whole distance matrix at
  once;
- ``screen_radius``: ``RoadNetwork.screen_radius``, from every RSU
  distance;
- ``pairs_within``: ``mobility.pairs_within``, the vehicle pairs in V2V
  range;
- ``NeighborEntry``/``NeighborTable``: ``LocalTwins.handoff_candidate``
  over the batched beacon snapshots;
- ``eager_beacons``: the per-receiver sender index that
  ``local.BeaconSnapshot`` builds on its first lookup;
- ``rsu_distances``: the distances ``mobility.serving_rsu`` returns;
- ``channel_quality``: the channel quality of each ``LocalTwins`` status
  report;
- ``take_report``: ``edge.EdgeTwins.take_batch``, one report at a time;
- ``index_series``: ``metrics.build_index_series``, one record at a time;
- ``HeapEngine``: ``kernel.Engine``'s event set, one heap of every pending
  event;
- ``assign_roles``: ``edge.assign_roles``, one member at a time.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import math

import numpy as np

from twinsim.edge import largest_remainder_seats
from twinsim.kernel import CausalityError, Engine
from twinsim.mobility import RoadNetwork, distances

US_PER_S = 1_000_000


@dataclass
class VehicleState:
    id: int
    position: np.ndarray       # (2,) meters
    speed: float               # m/s
    heading: np.ndarray        # unit vector
    waypoint: int              # intersection id ahead


def spawn_fleet(
    net: RoadNetwork,
    rng: np.random.Generator,
    spawn_rsu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Position, heading and waypoint of each vehicle, on a uniform point of
    a segment at its spawn RSU's intersection (at that intersection if the
    network has no segment), rescanning the segments and computing the
    heading per vehicle.  It draws what ``mobility.Fleet`` draws, in its
    order: every vehicle's segment among its intersection's, then every
    direction, then every offset."""
    n = len(spawn_rsu)
    pos, heading, waypoint = np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n, dtype=int)
    if not net.segments:
        pos[:] = net.intersections[0]
        return pos, heading, waypoint
    segs = [[s for s, ends in enumerate(net.segments) if node in ends] for node in spawn_rsu]
    pick = rng.integers([len(c) for c in segs])
    flip = rng.integers(2, size=n)
    u = rng.uniform(size=n)
    for i in range(n):
        a, b = net.segments[segs[i][pick[i]]]
        if flip[i]:
            a, b = b, a
        pa, pb = net.intersections[a], net.intersections[b]
        pos[i] = pa + u[i] * (pb - pa)
        direction = pb - pa
        heading[i] = direction / np.linalg.norm(direction)
        waypoint[i] = b
    return pos, heading, waypoint


def step_vehicle(
    v: VehicleState,
    dt: float,
    rng: np.random.Generator,
    net: RoadNetwork,
) -> VehicleState:
    """Advance speed*dt toward the waypoint.  On arrival the tick is consumed
    there, and a new waypoint is drawn uniformly among adjacent
    intersections."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    target = net.intersections[v.waypoint]
    dx, dy = target - v.position
    dist = math.sqrt(dx * dx + dy * dy)  # the runtime's distance
    move = v.speed * dt
    if move < dist:
        v.position = v.position + v.heading * move
    else:
        v.position = target.copy()
        adj = net.adjacency[v.waypoint]
        if adj:
            v.waypoint = adj[int(rng.integers(len(adj)))]
            direction = net.intersections[v.waypoint] - v.position
            norm = float(np.linalg.norm(direction))
            v.heading = direction / norm if norm > 0 else v.heading
    return v


def covering_rsu(
    net: RoadNetwork,
    position: np.ndarray,
    current: int | None,
    hysteresis_m: float = 100.0,
) -> int | None:
    """Coverage decision with a hysteresis band: keep the current RSU while
    it covers the position and no rival is closer by more than hysteresis_m;
    otherwise the nearest covering RSU; None if uncovered."""
    d = rsu_distances(net, position)
    covered = d <= net.rsu_radius_m
    if current is not None and covered[current]:
        best = int(np.argmin(d))
        if d[current] - d[best] <= hysteresis_m:
            return current
        return best if covered[best] else current
    if not covered.any():
        return None
    d_masked = np.where(covered, d, np.inf)
    return int(np.argmin(d_masked))


def nearest_rsu(pos: np.ndarray, rsu_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest RSU of each position (``argmin``'s, so the first of a
    tie) and its distance, from the whole (n, R) distance matrix."""
    d = distances(pos, rsu_pos)
    nearest = d.argmin(axis=1)
    return nearest, d[np.arange(len(pos)), nearest]


def rsu_distances(net: RoadNetwork, position: np.ndarray) -> np.ndarray:
    """Distance of ``position`` to each RSU of ``net``."""
    return np.linalg.norm(net.intersections - np.asarray(position)[None, :], axis=1)


def screen_radius(net: RoadNetwork) -> float:
    """Half the least of every computed distance between two RSUs, capped at
    the radius, less 2**-40 of itself: the distance-matrix statement of
    ``RoadNetwork.screen_radius``, a block of rows at a time."""
    rsu_pos, least = net.intersections, np.inf
    for start in range(0, len(rsu_pos), 256):
        sep = distances(rsu_pos[start:start + 256], rsu_pos)
        rows = np.arange(len(sep))
        sep[rows, start + rows] = np.inf  # an RSU's distance to itself
        least = min(least, sep.min())
    return min(least / 2, net.rsu_radius_m) * (1 - 2**-40)


def pairs_within(pos: np.ndarray, r: float) -> set[tuple[int, int]]:
    """Every pair ``(i, j)``, ``i < j``, of the points ``pos`` with
    ``dx*dx + dy*dy <= r*r``, by checking each pair.  That is the keep test
    of scipy's ``cKDTree.query_pairs``; ``hypot(dx, dy) <= r`` is not, as
    it rounds some distances just above r down to r."""
    pts = [(float(x), float(y)) for x, y in pos]
    found = set()
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            dx, dy = xi - pts[j][0], yi - pts[j][1]
            if dx * dx + dy * dy <= r * r:
                found.add((i, j))
    return found


def channel_quality(distance_m: float, radius_m: float) -> float:
    return min(1.0, max(0.0, 1.0 - distance_m / radius_m))


def take_report(edges, report: tuple) -> None:
    """``report`` is (rsu, device, speed, channel_quality, backlog_cu); it
    counts at edge ``rsu`` of ``edges`` if that edge still serves the
    device."""
    r, device = report[0], report[1]
    if edges.current_rsu.item(device) != r:
        return
    edges.speed_sum[r] += report[2]
    edges.speed_count[r] += 1
    edges.has[device] = True
    edges.cq[device] = report[3]
    edges.backlog[device] = report[4]


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


def eager_beacons(pairs: np.ndarray, ok: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Delivered directed beacons ``(dst, src)`` of one pass, ordered by
    receiver and then sender.  ``ok[i]`` is the loss draw of the ``i``-th
    directed beacon of the pairs in ``(p0, p1)`` order: first every
    ``p0 -> p1``, then every ``p1 -> p0``."""
    pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])[ok]
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])[ok]
    by_dst = np.argsort(dst * n + src)
    return dst[by_dst], src[by_dst]


def index_series(records, duration_us: int, window_us: int) -> tuple[list, list, list]:
    """Window ends, autonomy and coordination of each index window, counting
    one record at a time (see ``metrics.build_index_series``)."""
    below_cloud = ("Local", "Edge", "PartnerEdge")
    n_windows = duration_us // window_us
    total, below, partner, overload = ([0] * n_windows for _ in range(4))
    for r in records:
        if r.completed_us is not None and r.completed_us > 0:
            w = min(n_windows - 1, (r.completed_us - 1) // window_us)
            total[w] += 1
            below[w] += r.tier in below_cloud
            partner[w] += r.tier == "PartnerEdge"
        if r.edge_arrival_us is not None and r.overloaded_at_arrival:
            overload[min(n_windows - 1, max(0, (r.edge_arrival_us - 1) // window_us))] += 1
    ends, autonomy, coordination = [], [], []
    a, c = 0.0, 0.0
    for w in range(n_windows):
        if total[w]:
            a = below[w] / total[w]
        if overload[w]:
            c = min(1.0, partner[w] / overload[w])
        ends.append((w + 1) * window_us)
        autonomy.append(a)
        coordination.append(c)
    return ends, autonomy, coordination


class HeapEngine(Engine):
    """``Engine`` whose pending events all sit in one heap of
    ``(fire_at, seq, kind, fn, args)``, popped in ``(fire_at, seq)`` order."""

    def schedule(self, at_us: int, fn, *args, kind: str = "timer") -> int:
        if at_us < self.now:
            raise CausalityError(
                f"causality violation: schedule at {at_us} us but clock is {self.now} us"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (at_us, seq, kind, fn, args))
        return seq

    def run_until(self, t_end_us: int) -> int:
        if t_end_us < self.now:
            raise CausalityError(
                f"causality violation: run until {t_end_us} us but clock is {self.now} us")
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            fire_at, _, _, fn, args = heapq.heappop(heap)
            self.now = fire_at
            fn(*args)
            processed += 1
        self.now = t_end_us
        return processed


def assign_roles(
    members: list[int],
    quotas: tuple[float, float, float],
    channel_quality: dict[int, float],
    idle_compute: dict[int, float],
) -> dict[int, str]:
    """Role name of each member: capability-sorted seat filling, channel
    quality for acquisition, idle compute for processing, every remaining
    member for coordination; ties by device id, and a member missing from a
    dict counts 0.0 there."""
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
