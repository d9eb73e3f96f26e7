"""Scalar reference models of vectorized runtime paths.

Each model here is the per-vehicle statement of a rule that the simulator
evaluates in bulk; the tests check the runtime code against it:

- ``VehicleState``/``step_vehicle``: ``mobility.Fleet.step``;
- ``covering_rsu``: ``mobility.serving_rsu``;
- ``NeighborEntry``/``NeighborTable``: ``Simulation._handoff_candidate`` over
  the batched beacon snapshots;
- ``channel_quality``: the runner's per-tick ``cq_buf`` column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from twinsim.mobility import RoadNetwork

US_PER_S = 1_000_000


@dataclass
class VehicleState:
    id: int
    position: np.ndarray       # (2,) meters
    speed: float               # m/s
    heading: np.ndarray        # unit vector
    segment_from: int          # intersection id behind the vehicle
    waypoint: int              # intersection id ahead
    nav_intent: int            # planned intersection after the waypoint


def step_vehicle(
    v: VehicleState,
    dt: float,
    rng: np.random.Generator,
    net: RoadNetwork,
) -> VehicleState:
    """Advance speed*dt toward the waypoint.  On arrival the tick is consumed
    there: a new waypoint is drawn uniformly among adjacent intersections and
    the nav intent is re-drawn one hop further."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    target = net.intersections[v.waypoint]
    delta = target - v.position
    dist = float(np.linalg.norm(delta))
    move = v.speed * dt
    if move < dist:
        v.position = v.position + v.heading * move
    else:
        v.position = target.copy()
        v.segment_from = v.waypoint
        adj = net.adjacency[v.waypoint]
        if adj:
            v.waypoint = adj[int(rng.integers(len(adj)))]
            nxt = net.adjacency[v.waypoint]
            v.nav_intent = nxt[int(rng.integers(len(nxt)))]
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
    d = np.linalg.norm(net.rsu_positions - np.asarray(position)[None, :], axis=1)
    radii = net.rsu_radii
    covered = d <= radii
    if current is not None and covered[current]:
        best = int(np.argmin(d))
        if d[current] - d[best] <= hysteresis_m:
            return current
        return best if covered[best] else current
    if not covered.any():
        return None
    d_masked = np.where(covered, d, np.inf)
    return int(np.argmin(d_masked))


def channel_quality(distance_m: float, radius_m: float) -> float:
    return min(1.0, max(0.0, 1.0 - distance_m / radius_m))


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
