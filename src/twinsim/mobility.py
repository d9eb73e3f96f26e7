"""Grid road network, vehicle kinematics and RSU coverage with hysteresis.

The default world is a 2x3 lattice with 1000 m spacing, one RSU of 600 m
radius per intersection: the smallest layout with six RSUs, guaranteed
coverage and genuine handovers.  Vehicles follow random waypoints over
intersections.  Fleet and serving_rsu are the vectorized paths; their
scalar reference models live in tests/oracles.py, and the tests check each
pair for equal results.
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
    is outside every RSU's radius.  On this lattice the road point farthest
    from every RSU is a segment's midpoint, spacing_m / 2 from the RSUs at
    both ends, so the roads are covered exactly when the radius reaches it.
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
    if segments and rsu_radius_m < spacing_m / 2:
        raise ConfigError(f"rsu_radius_m {rsu_radius_m} leaves road uncovered: "
                          f"must be >= spacing_m / 2 = {spacing_m / 2}")
    rsus = [(i, float(rsu_radius_m)) for i in range(rows * cols)]
    return RoadNetwork(pts, segments, rsus)


def serving_rsu(
    pos: np.ndarray,
    rsu_pos: np.ndarray,
    radii: np.ndarray,
    current: np.ndarray | None,
    hysteresis_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Serving RSU of each position in ``pos`` (n, 2) and its distance.

    The current RSU is kept while it covers the position and the nearest RSU
    is no more than hysteresis_m closer; otherwise the nearest RSU serves
    (``current=None`` picks the nearest).  RSUs share one radius and
    build_grid covers every road point, so the nearest RSU covers it.
    """
    dx = pos[:, 0, None] - rsu_pos[None, :, 0]
    dy = pos[:, 1, None] - rsu_pos[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)  # bit-identical to np.linalg.norm over (x, y)
    idx = np.arange(len(pos))
    nearest = np.argmin(d, axis=1)
    if current is None:
        return nearest, d[idx, nearest]
    d_cur = d[idx, current]
    keep = (d_cur <= radii[current]) & (d_cur - d[idx, nearest] <= hysteresis_m)
    rsu = np.where(keep, current, nearest)
    return rsu, d[idx, rsu]


def vehicle_density(count: int, road_length_m: float) -> float:
    """Vehicles per km of road in a region."""
    if road_length_m <= 0:
        raise ValueError("region road length must be > 0")
    return count / (road_length_m / 1000.0)


class Fleet:
    """Vectorized vehicle population; behaviorally identical to applying
    the scalar stepper of tests/oracles.py per vehicle in index order."""

    def __init__(
        self,
        net: RoadNetwork,
        n: int,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (8.0, 15.0),
        spawn_rsu: np.ndarray | None = None,
    ):
        self.net = net
        self.n = n
        self.pos = np.zeros((n, 2))
        self.speed = rng.uniform(speed_range[0], speed_range[1], size=n)
        self.heading = np.zeros((n, 2))
        self.segment_from = np.zeros(n, dtype=int)
        self.waypoint = np.zeros(n, dtype=int)
        self.nav_intent = np.zeros(n, dtype=int)
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
        dx = targets[:, 0] - self.pos[:, 0]
        dy = targets[:, 1] - self.pos[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)  # bit-identical to np.linalg.norm over (x, y)
        move = self.speed * dt
        arriving = move >= dist
        cruising = ~arriving
        self.pos[cruising] += self.heading[cruising] * move[cruising, None]
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
