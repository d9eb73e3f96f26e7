"""Grid road network, vehicle kinematics and RSU coverage with hysteresis.

The default world is a 2x3 lattice with 1000 m spacing, one RSU of 600 m
radius per intersection: the smallest layout with six RSUs, guaranteed
coverage and genuine handovers.  Vehicles follow random waypoints over
intersections.  Fleet, serving_rsu and pairs_within (the vehicle pairs in
V2V range) are the vectorized paths; their reference models live in
tests/oracles.py, and the tests check each pair for equal results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(Exception):
    """Invalid world or scenario configuration."""


@dataclass
class RoadNetwork:
    intersections: np.ndarray          # (K, 2) meters; RSU r sits at intersection r
    segments: list[tuple[int, int]]    # pairs of intersection ids, a < b
    rsu_radius_m: float                # coverage radius of every RSU

    def __post_init__(self):
        # per intersection, its segments' ids (in order) and its neighbours (sorted)
        self.incident: dict[int, list[int]] = {i: [] for i in range(len(self.intersections))}
        for s, (a, b) in enumerate(self.segments):
            self.incident[a].append(s)
            self.incident[b].append(s)
        self.adjacency = {i: sorted(sum(self.segments[s]) - i for s in segs)
                          for i, segs in self.incident.items()}
        self._headings: dict[tuple[int, int], np.ndarray] = {}

    def heading(self, a: int, b: int) -> np.ndarray:
        """Unit vector from intersection ``a`` to ``b``, computed on first use."""
        if (h := self._headings.get((a, b))) is None:
            direction = self.intersections[b] - self.intersections[a]
            h = self._headings[a, b] = direction / np.linalg.norm(direction)
        return h

    @property
    def screen_radius(self) -> float:
        """Half the least separation of two RSUs (on the lattice, the least
        gap of consecutive distinct x or y coordinates), capped at the radius,
        less 2**-40 of itself.  A position nearer than this to an RSU is
        nearer to it than to any other (triangle inequality) by more than the
        rounding of the computed distances, so that RSU keeps serving it."""
        gaps = np.diff(np.sort(self.intersections, axis=0), axis=0)
        gaps = gaps[gaps > 0]
        return min(gaps.min() / 2 if len(gaps) else np.inf, self.rsu_radius_m) * (1 - 2**-40)


def build_grid(rows: int, cols: int, spacing_m: float, rsu_radius_m: float = 600.0) -> RoadNetwork:
    """rows x cols lattice, 4-neighbor segments, one RSU of radius
    ``rsu_radius_m`` per intersection.  ``scenario.validate`` checks the
    dimensions, bounds the spacing and checks that the RSUs cover the roads."""
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
    return RoadNetwork(pts, segments, float(rsu_radius_m))


def distances(pos: np.ndarray, rsu_pos: np.ndarray) -> np.ndarray:
    """(n, R) distance of each position in ``pos`` (n, 2) to each of ``rsu_pos``."""
    dx = pos[:, 0, None] - rsu_pos[None, :, 0]
    dy = pos[:, 1, None] - rsu_pos[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)  # bit-identical to np.linalg.norm(..., axis=1)


NEAREST_BLOCK_CELLS = 1 << 16  # distances per block of rows in nearest()


def nearest(pos: np.ndarray, rsu_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``argmin`` RSU of each row of ``distances`` and its distance, a block of rows at a time."""
    rsu, dist = np.empty(len(pos), dtype=np.intp), np.empty(len(pos))
    step = max(1, NEAREST_BLOCK_CELLS // len(rsu_pos))
    for i in range(0, len(pos), step):
        d = distances(pos[i:i + step], rsu_pos)
        rsu[i:i + step], dist[i:i + step] = d.argmin(axis=1), d.min(axis=1)
    return rsu, dist


def serving_rsu(
    pos: np.ndarray,
    rsu_pos: np.ndarray,
    radius: float,
    current: np.ndarray | None,
    hysteresis_m: float,
    screen_m: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Serving RSU of each position in ``pos`` (n, 2) and its distance.

    The current RSU is kept while it covers the position and the nearest RSU
    is no more than hysteresis_m closer; otherwise the nearest RSU serves
    (``current=None`` picks the nearest).  Every RSU has the coverage radius
    ``radius``, which covers every road point, so the nearest RSU covers it.  Only
    positions at least ``screen_m`` from their current RSU are searched; the
    rest keep it, which is exact up to ``RoadNetwork.screen_radius``.
    """
    if current is None:
        return nearest(pos, rsu_pos)
    rsu_x, rsu_y = rsu_pos.T
    dx = pos[:, 0] - rsu_x[current]
    dy = pos[:, 1] - rsu_y[current]
    dist = np.sqrt(dx * dx + dy * dy)  # the column of current in distances()
    rsu = current.copy()
    far = np.flatnonzero(dist >= screen_m)
    if len(far):
        near, d_near = nearest(pos[far], rsu_pos)
        cur, d_cur = current[far], dist[far]
        keep = (d_cur <= radius) & (d_cur - d_near <= hysteresis_m)
        rsu[far] = np.where(keep, cur, near)
        dist[far] = np.where(keep, d_cur, d_near)
    return rsu, dist


class Fleet:
    """Vectorized vehicle population; behaviorally identical to applying
    the scalar stepper of tests/oracles.py per vehicle in index order.  The
    spawn and every waypoint draw come from ``rng``; a step is ``dt`` s.
    Vehicle ``i`` spawns at the intersection of RSU ``spawn_rsu[i]``."""

    def __init__(
        self,
        net: RoadNetwork,
        rng: np.random.Generator,
        dt: float,
        speed_range: tuple[float, float],
        spawn_rsu: np.ndarray,
    ):
        self.net = net
        self.n = n = len(spawn_rsu)
        self.rng = rng
        self.speed = rng.uniform(speed_range[0], speed_range[1], size=n)
        self._spawn(spawn_rsu)
        # constant after spawn, so the status reports carry it as it is
        self.speed.setflags(write=False)
        # per vehicle, its waypoint's coordinates and its step heading *
        # speed * dt (``_move`` = speed * dt); rewritten on waypoint arrival
        self.target = net.intersections[self.waypoint]
        self._move = self.speed * dt
        self.stride = self.heading * self._move[:, None]

    def _spawn(self, spawn_rsu: np.ndarray) -> None:
        """Each vehicle at a uniform point of a segment at its spawn RSU's
        intersection, bound for one end: three draws for the whole fleet,
        the segments, the directions and the offsets."""
        net, rng, n = self.net, self.rng, self.n
        self.heading = np.zeros((n, 2))
        self.waypoint = np.zeros(n, dtype=int)
        if not net.segments:
            self.pos = np.tile(net.intersections[0], (n, 1))
            return
        # every intersection's segments, one after another, in id order
        count = np.array([len(segs) for segs in net.incident.values()])
        flat = np.array([s for segs in net.incident.values() for s in segs])
        first = np.cumsum(count) - count
        ends = np.array(net.segments)[flat[first[spawn_rsu] + rng.integers(count[spawn_rsu])]]
        flip = rng.integers(2, size=n).astype(bool)
        ends[flip] = ends[flip, ::-1]
        u = rng.uniform(size=n)
        pa, pb = net.intersections[ends[:, 0]], net.intersections[ends[:, 1]]
        self.pos = pa + u[:, None] * (pb - pa)
        self.heading[:] = [net.heading(a, b) for a, b in ends.tolist()]
        self.waypoint[:] = ends[:, 1]

    def step(self) -> None:
        net, rng = self.net, self.rng
        target, pos, move = self.target, self.pos, self._move
        dx = target[:, 0] - pos[:, 0]
        dy = target[:, 1] - pos[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)  # bit-identical to np.linalg.norm(..., axis=1)
        arriving = np.flatnonzero(move >= dist)
        # the whole array moves: an arriving vehicle's position is
        # overwritten with its waypoint below
        pos += self.stride
        # arrivals are rare; handle per vehicle in index order for determinism
        for i in arriving.tolist():
            node = int(self.waypoint[i])
            pos[i] = net.intersections[node]
            adj = net.adjacency[node]
            if not adj:
                continue
            wp = adj[int(rng.integers(len(adj)))]
            self.waypoint[i] = wp
            target[i] = net.intersections[wp]
            self.heading[i] = net.heading(node, wp)
            self.stride[i] = self.heading[i] * move[i]


K = 3  # grid cells per query radius


def pairs_within(pos: np.ndarray, r: float) -> np.ndarray:
    """Every pair ``(i, j)``, ``i < j``, of the points ``pos`` (n, 2) with
    ``dx*dx + dy*dy <= r*r`` (scipy's ``cKDTree.query_pairs`` set) as an (m, 2)
    ``intp`` array: the ``form_pairs`` keys of the ``pair_search`` result, unpacked."""
    bits = (len(pos) - 1).bit_length()
    key = form_pairs(*pair_search(pos, r)).astype(np.intp)
    return np.stack((key >> bits, key & ((1 << bits) - 1)), axis=1)


def pair_search(pos: np.ndarray, r: float) -> tuple:
    """The search of ``pairs_within`` on a grid (Bentley, Stanat & Williams,
    IPL 6(6), 1977) of occupied cells wider than span / 2**20 (ids fit int64)
    and than reach / K, reach being the farthest any pair that passes can be,
    so none is K + 1 apart.  Returns ``(order, per, j, keep)``, no view of
    ``pos``: the points in cell order, their candidate counts, and of the
    ``len(keep)`` candidates that pass, their places in that order (``j``)
    and among all candidates (``keep``)."""
    n = len(pos)
    if n < 2:
        return (np.empty(0, dtype=np.intp),) * 4
    x, y = pos[:, 0], pos[:, 1]
    x0, y0 = x.min(), y.min()
    reach = np.inf if r * r == np.inf else max(r, 1e-150) * (1 + 2**-20)
    side = max(reach / K, max(x.max() - x0, y.max() - y0) / 2**20)
    cx = ((x - x0) / side).astype(np.int64)
    width = int(cx.max()) + K + 1  # a run left of column 0 starts in empty cells
    ids = ((y - y0) / side).astype(np.int64) * width + cx
    order = np.argsort(ids)
    ids, x, y = ids[order], x[order], y[order]
    new = np.concatenate(([True], ids[1:] != ids[:-1]))
    # runs: the rest of the own cell, K cells on, 2K + 1 in each of K rows ahead
    rows = ids[new][:, None] + np.arange(K + 1) * width
    cell = np.cumsum(new) - 1
    starts = np.searchsorted(ids, rows - K)[cell]
    starts[:, 0] = np.arange(1, n + 1)
    count = (np.searchsorted(ids, rows + K, "right")[cell] - starts).ravel()
    per = count.reshape(n, K + 1).sum(axis=1)
    j = np.repeat(starts.ravel() - (np.cumsum(count) - count), count)
    j += np.arange(len(j))
    dx, dy = np.repeat(x, per), np.repeat(y, per)
    dx -= x[j]
    dy -= y[j]
    keep = np.flatnonzero(np.square(dx, out=dx) + np.square(dy, out=dy) <= r * r)
    return order, per, j[keep], keep


def form_pairs(order, per, j, keep) -> np.ndarray:
    """The pairs ``p0 < p1`` of one ``pair_search`` of n points, as sorted keys
    ``p0 << bits | p1`` (``bits = (n - 1).bit_length()``) of the narrowest unsigned type."""
    bits = (len(order) - 1).bit_length()
    order = order.astype(np.min_scalar_type((1 << 2 * bits) - 1))
    a, b = np.repeat(order, per)[keep], order[j]
    key = np.minimum(a, b) << bits
    key |= np.maximum(a, b, out=a)
    key.sort()
    return key
