"""Grid road network, vehicle kinematics and RSU coverage with hysteresis.

The default world is a 2x3 lattice with 1000 m spacing, one RSU of 600 m
radius per intersection: the smallest layout with six RSUs, guaranteed
coverage and genuine handovers.  Vehicles follow random waypoints over
intersections; the vectorized Fleet path is equivalent to the scalar
step_vehicle contract (asserted in tests).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(Exception):
    """Invalid world or scenario configuration."""


@dataclass
class RoadNetwork:
    intersections: np.ndarray          # (K, 2) meters
    segments: list[tuple[int, int]]    # pairs of intersection ids, a < b
    rsus: list[tuple[int, float]]      # (intersection id, coverage radius m)
    adjacency: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.intersections)
        for a, b in self.segments:
            if not (0 <= a < k and 0 <= b < k):
                raise ConfigError(f"segment ({a},{b}) references invalid intersection")
        if not self.adjacency:
            adj: dict[int, list[int]] = {i: [] for i in range(k)}
            for a, b in self.segments:
                adj[a].append(b)
                adj[b].append(a)
            self.adjacency = {i: sorted(v) for i, v in adj.items()}

    @property
    def rsu_positions(self) -> np.ndarray:
        return self.intersections[[node for node, _ in self.rsus]]

    @property
    def rsu_radii(self) -> np.ndarray:
        return np.array([r for _, r in self.rsus])

    def segment_length(self, seg: int) -> float:
        a, b = self.segments[seg]
        return float(np.linalg.norm(self.intersections[b] - self.intersections[a]))

    def total_road_length(self) -> float:
        return sum(self.segment_length(i) for i in range(len(self.segments)))

    def region_road_length(self, rsu_idx: int) -> float:
        """Road length attributed to one RSU region: half of every segment
        incident to the RSU's intersection (RSUs sit at intersections)."""
        node = self.rsus[rsu_idx][0]
        return sum(
            0.5 * self.segment_length(i)
            for i, (a, b) in enumerate(self.segments)
            if node in (a, b)
        )

    def region_segments(self, rsu_idx: int) -> list[int]:
        node = self.rsus[rsu_idx][0]
        return [i for i, (a, b) in enumerate(self.segments) if node in (a, b)]

    def rsu_adjacency(self) -> dict[int, list[int]]:
        """RSU neighbor map induced by the segments between their intersections."""
        node_to_rsu = {node: i for i, (node, _) in enumerate(self.rsus)}
        adj: dict[int, set] = {i: set() for i in range(len(self.rsus))}
        for a, b in self.segments:
            if a in node_to_rsu and b in node_to_rsu:
                adj[node_to_rsu[a]].add(node_to_rsu[b])
                adj[node_to_rsu[b]].add(node_to_rsu[a])
        return {i: sorted(v) for i, v in adj.items()}


def build_grid(rows: int, cols: int, spacing_m: float, rsu_radius_m: float = 600.0) -> RoadNetwork:
    """rows x cols lattice, 4-neighbor segments, one RSU per intersection.

    Raises ConfigError if the dimensions are degenerate or some road point
    is outside every RSU's radius (checked by sampling the segments).
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid dimensions must be >= 1")
    if spacing_m <= 0:
        raise ConfigError("grid spacing must be > 0")
    pts = np.array(
        [[c * spacing_m, r * spacing_m] for r in range(rows) for c in range(cols)],
        dtype=float,
    )
    segments = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                segments.append((i, i + 1))
            if r + 1 < rows:
                segments.append((i, i + cols))
    rsus = [(i, float(rsu_radius_m)) for i in range(rows * cols)]
    net = RoadNetwork(pts, segments, rsus)
    _check_full_coverage(net)
    return net


def _check_full_coverage(net: RoadNetwork, step_m: float = 5.0) -> None:
    rsu_pos = net.rsu_positions
    radii = net.rsu_radii
    for a, b in net.segments:
        pa, pb = net.intersections[a], net.intersections[b]
        length = float(np.linalg.norm(pb - pa))
        n = max(2, int(length / step_m) + 1)
        ts = np.linspace(0.0, 1.0, n)
        points = pa[None, :] + ts[:, None] * (pb - pa)[None, :]
        d = np.linalg.norm(points[:, None, :] - rsu_pos[None, :, :], axis=2)
        if not np.all((d <= radii[None, :]).any(axis=1)):
            raise ConfigError(f"segment ({a},{b}) is not fully covered by any RSU")
    # isolated intersections (1x1 grid has no segments)
    if not net.segments:
        d = np.linalg.norm(net.intersections[:, None, :] - rsu_pos[None, :, :], axis=2)
        if not np.all((d <= radii[None, :]).any(axis=1)):
            raise ConfigError("intersection outside all RSU radii")


@dataclass
class VehicleState:
    id: int
    position: np.ndarray       # (2,) meters
    speed: float               # m/s
    heading: np.ndarray        # unit vector
    segment_from: int          # intersection id behind the vehicle
    waypoint: int              # intersection id ahead
    nav_intent: int            # planned intersection after the waypoint
    energy: float = 1.0


def step_vehicle(
    v: VehicleState,
    dt: float,
    rng: np.random.Generator,
    net: RoadNetwork,
    energy_drain_per_m: float = 1e-5,
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
        traveled = move
    else:
        v.position = target.copy()
        traveled = dist
        v.segment_from = v.waypoint
        adj = net.adjacency[v.waypoint]
        if adj:
            v.waypoint = adj[int(rng.integers(len(adj)))]
            nxt = net.adjacency[v.waypoint]
            v.nav_intent = nxt[int(rng.integers(len(nxt)))]
            direction = net.intersections[v.waypoint] - v.position
            norm = float(np.linalg.norm(direction))
            v.heading = direction / norm if norm > 0 else v.heading
    v.energy = max(0.0, v.energy - energy_drain_per_m * traveled)
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


def vehicle_density(count: int, road_length_m: float) -> float:
    """Vehicles per km of road in a region."""
    if road_length_m <= 0:
        raise ValueError("region road length must be > 0")
    return count / (road_length_m / 1000.0)


class Fleet:
    """Vectorized vehicle population; behaviorally identical to applying
    step_vehicle per vehicle in index order."""

    def __init__(
        self,
        net: RoadNetwork,
        n: int,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (8.0, 15.0),
        energy_drain_per_m: float = 1e-5,
        spawn_rsu: np.ndarray | None = None,
    ):
        self.net = net
        self.n = n
        self.energy_drain_per_m = energy_drain_per_m
        self.pos = np.zeros((n, 2))
        self.speed = rng.uniform(speed_range[0], speed_range[1], size=n)
        self.heading = np.zeros((n, 2))
        self.segment_from = np.zeros(n, dtype=int)
        self.waypoint = np.zeros(n, dtype=int)
        self.nav_intent = np.zeros(n, dtype=int)
        self.energy = np.ones(n)
        self._spawn(rng, spawn_rsu)

    def _spawn(self, rng: np.random.Generator, spawn_rsu: np.ndarray | None) -> None:
        net = self.net
        for i in range(self.n):
            if spawn_rsu is not None and net.region_segments(int(spawn_rsu[i])):
                segs = net.region_segments(int(spawn_rsu[i]))
                seg = segs[int(rng.integers(len(segs)))]
            elif net.segments:
                seg = int(rng.integers(len(net.segments)))
            else:
                node = 0
                self.pos[i] = net.intersections[node]
                self.segment_from[i] = node
                self.waypoint[i] = node
                self.nav_intent[i] = node
                continue
            a, b = net.segments[seg]
            if rng.integers(2):
                a, b = b, a
            u = float(rng.uniform())
            pa, pb = net.intersections[a], net.intersections[b]
            self.pos[i] = pa + u * (pb - pa)
            direction = pb - pa
            self.heading[i] = direction / np.linalg.norm(direction)
            self.segment_from[i] = a
            self.waypoint[i] = b
            nxt = net.adjacency[b]
            self.nav_intent[i] = nxt[int(rng.integers(len(nxt)))]

    def step(self, dt: float, rng: np.random.Generator) -> None:
        net = self.net
        targets = net.intersections[self.waypoint]
        delta = targets - self.pos
        dist = np.linalg.norm(delta, axis=1)
        move = self.speed * dt
        arriving = move >= dist
        cruising = ~arriving
        self.pos[cruising] += self.heading[cruising] * move[cruising, None]
        traveled = np.where(arriving, dist, move)
        self.energy = np.maximum(0.0, self.energy - self.energy_drain_per_m * traveled)
        # arrivals are rare; handle per vehicle in index order for determinism
        for i in np.flatnonzero(arriving):
            node = int(self.waypoint[i])
            self.pos[i] = net.intersections[node]
            self.segment_from[i] = node
            adj = net.adjacency[node]
            if not adj:
                continue
            wp = adj[int(rng.integers(len(adj)))]
            self.waypoint[i] = wp
            nxt = net.adjacency[wp]
            self.nav_intent[i] = nxt[int(rng.integers(len(nxt)))]
            direction = net.intersections[wp] - self.pos[i]
            norm = np.linalg.norm(direction)
            if norm > 0:
                self.heading[i] = direction / norm

    def current_segment_of(self, i: int) -> tuple[int, int]:
        a, b = int(self.segment_from[i]), int(self.waypoint[i])
        return (a, b) if a < b else (b, a)
