import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinsim import mobility, runner
from twinsim.kernel import numpy_stream
from twinsim.mobility import (ConfigError, Fleet, build_grid, distances, pair_search,
                              pairs_within, serving_rsu)
from twinsim.scenario import MAX_MAP_SIDE_M, MIN_SPACING_M, ScenarioConfig, parse_scenario

import oracles
from oracles import VehicleState, covering_rsu, rsu_distances, step_vehicle


@pytest.fixture
def grid():
    return build_grid(2, 3, 1000.0, rsu_radius_m=600.0)


def test_grid_geometry(grid):
    assert len(grid.intersections) == 6
    # 2x3 lattice: 4 horizontal + 3 vertical segments
    assert len(grid.segments) == 7
    a, b = np.array(grid.segments).T
    lengths = np.linalg.norm(grid.intersections[b] - grid.intersections[a], axis=1)
    assert lengths.sum() == pytest.approx(7000.0)
    assert grid.rsu_radius_m == 600.0


def test_adjacency_matches_lattice(grid):
    # RSU r sits at intersection r, so the lattice's adjacency is the RSUs'
    assert grid.adjacency[0] == [1, 3]
    assert grid.adjacency[4] == [1, 3, 5]


def test_coverage_gap_rejected():
    # rejected when parsed, before a grid is built
    with pytest.raises(ConfigError, match=r"^grid\.rsu_radius_m: "):
        parse_scenario({"grid": {"rsu_radius_m": 300.0}})
    # the segment midpoint (502.5 m from both RSUs) is uncovered, although
    # every road point sampled at 5 m steps is covered
    with pytest.raises(ConfigError, match=r"^grid\.rsu_radius_m: "):
        parse_scenario({"grid": {"rows": 1, "cols": 2, "spacing_m": 1005.0,
                                 "rsu_radius_m": 502.4}})


def test_coverage_rule_boundary_accepted():
    # a radius of exactly half the spacing reaches every segment midpoint
    assert build_grid(1, 2, 1005.0, rsu_radius_m=502.5).rsu_radius_m == 502.5
    parse_scenario({"grid": {"rows": 1, "cols": 2, "spacing_m": 1005.0, "rsu_radius_m": 502.5}})
    # a single intersection has no road beyond its own RSU
    for radius in (1e-3, 1.0, 600.0):
        parse_scenario({"grid": {"rows": 1, "cols": 1, "rsu_radius_m": radius}})


def road_points(net, rng, n):
    """n random points on the road segments of net."""
    segs = rng.integers(len(net.segments), size=n)
    u = rng.uniform(size=n)[:, None]
    a = net.intersections[[net.segments[s][0] for s in segs]]
    b = net.intersections[[net.segments[s][1] for s in segs]]
    return a + u * (b - a)


@pytest.mark.parametrize("spacing,radius,hysteresis",
                         [(1000.0, 600.0, 100.0), (1005.0, 502.5, 100.0),
                          (800.0, 1200.0, 0.0)])
def test_serving_rsu_matches_covering_rsu_oracle(spacing, radius, hysteresis):
    """The vectorized coverage decision agrees with the scalar oracle on
    random road points, from no current RSU and from random current ones,
    screened by the grid's screen radius or not."""
    net = build_grid(2, 3, spacing, rsu_radius_m=radius)
    rng = np.random.default_rng(7)
    pos = road_points(net, rng, 2000)
    currents = [None, rng.integers(len(net.intersections), size=len(pos))]
    for current, screen in itertools.product(currents, [0.0, net.screen_radius]):
        rsu, dist = serving_rsu(pos, net.intersections, net.rsu_radius_m, current,
                                hysteresis, screen)
        for i, p in enumerate(pos):
            cur = None if current is None else int(current[i])
            want = covering_rsu(net, p, cur, hysteresis_m=hysteresis)
            assert want is not None  # every road point is covered
            assert rsu[i] == want
            dx, dy = net.intersections[want] - p
            assert dist[i] == math.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("block", [1, 5, 35, 36, 1 << 16])
def test_blocked_nearest_rsu_matches_unblocked_oracle(block, monkeypatch):
    """Searched in row blocks of any size, each position's nearest RSU and
    its distance are those of the whole distance matrix, bit for bit, ties
    included (on the lattice's half-steps 2 or 4 RSUs are equally near), and
    so is ``serving_rsu``'s answer from no RSU and past the screen."""
    net = build_grid(5, 7, 100.0, rsu_radius_m=80.0)
    rng = np.random.default_rng(5)
    half_steps = [[x, y] for x in np.arange(0.0, 601.0, 50.0) for y in np.arange(0.0, 401.0, 50.0)]
    pos = np.concatenate((road_points(net, rng, 500), half_steps))
    current = rng.integers(len(net.intersections), size=len(pos))
    args = (pos, net.intersections, net.rsu_radius_m)
    monkeypatch.setattr(mobility, "NEAREST_BLOCK_CELLS", 1 << 62)  # the whole matrix at once
    whole = serving_rsu(*args, current, 30.0, net.screen_radius)
    monkeypatch.setattr(mobility, "NEAREST_BLOCK_CELLS", block)
    want_rsu, want_dist = oracles.nearest_rsu(pos, net.intersections)
    for rsu, dist in (mobility.nearest(pos, net.intersections), serving_rsu(*args, None, 30.0)):
        assert rsu.tolist() == want_rsu.tolist() and dist.tobytes() == want_dist.tobytes()
    rsu, dist = serving_rsu(*args, current, 30.0, net.screen_radius)
    assert rsu.tolist() == whole[0].tolist() and dist.tobytes() == whole[1].tobytes()


def test_set_up_of_a_large_lattice_holds_no_whole_distance_matrix():
    """Each vehicle's first RSU comes from row blocks of the vehicles x RSUs
    distances: on 40 x 40 RSUs with a vehicle each, the whole matrix (2.56M
    distances of 8 bytes) and its temporaries took the set-up's traced peak
    to about 80 MB."""
    cfg = parse_scenario({"grid": {"rows": 40, "cols": 40}, "vehicles_per_rsu": 1,
                          "duration_s": 31})
    tracemalloc.start()
    try:
        runner.Simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_distances_are_the_axis_1_norm_bit_for_bit():
    # at any angle the runtime's sqrt(dx*dx + dy*dy) is the axis=1 norm bit
    # for bit; the 1-D norm of each vector (a dot product) rounds some of
    # them differently, so it is no reference for the runtime's distances
    rng = np.random.default_rng(3)
    pos = rng.uniform(-2000.0, 2000.0, size=(20_000, 2))
    rsu_pos = np.array([[0.0, 0.0], [1000.0, 0.0], [317.25, -1200.5]])
    d = distances(pos, rsu_pos)
    for r, q in enumerate(rsu_pos):
        assert np.array_equal(d[:, r], np.linalg.norm(pos - q, axis=1))
    one_d = np.array([np.linalg.norm(p - rsu_pos[0]) for p in pos])
    assert not np.array_equal(d[:, 0], one_d)


AXES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


@st.composite
def screened_positions(draw):
    """A grid (1x1, 1x2, 2x1 or 2x3), a hysteresis and positions around its
    RSUs, each with a current RSU: on an RSU, within 1e-6 m of the screen
    radius, or anywhere in the radius; along an axis or at any angle."""
    rows, cols = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3)]))
    spacing = draw(st.sampled_from([1000.0, 1005.0]) | st.floats(1.0, 5000.0))
    radius = spacing * draw(st.sampled_from([0.5, 0.6]) | st.floats(0.5, 2.0))
    hysteresis = draw(st.sampled_from([0.0, 100.0]) | st.floats(0.0, 2 * spacing))
    net = build_grid(rows, cols, spacing, rsu_radius_m=radius)
    k = rows * cols
    positions, currents = [], []
    for _ in range(draw(st.integers(1, 20))):
        home = draw(st.integers(0, k - 1))
        dist = draw(st.just(0.0) | st.floats(0.0, radius)
                    | st.floats(-1e-6, 1e-6).map(lambda e: net.screen_radius + e))
        ux, uy = draw(st.sampled_from(AXES) | st.floats(0.0, 2 * math.pi).map(
            lambda a: (math.cos(a), math.sin(a))))
        positions.append(net.intersections[home] + dist * np.array([ux, uy]))
        currents.append(draw(st.just(home) | st.integers(0, k - 1)))
    return net, hysteresis, np.array(positions), np.array(currents)


def half_beyond_screen(rows, cols, radius, hysteresis):
    """A vehicle of RSU 0 half a metre beyond the screen radius, toward RSU 1."""
    net = build_grid(rows, cols, 1000.0, rsu_radius_m=radius)
    pos = np.array([[net.screen_radius + 0.5, 0.0]])
    return net, hysteresis, pos, np.array([0])


@settings(max_examples=400, deadline=None)
@given(screened_positions())
# with no hysteresis RSU 1 takes over just past the half-way point, even
# inside a screen of half the separation + 1 m
@example(half_beyond_screen(1, 2, 600.0, 0.0))
@example(half_beyond_screen(2, 3, 1000.0, 0.0))
@example(half_beyond_screen(1, 2, 500.0, 0.0))
def test_screened_serving_rsu_matches_covering_rsu_oracle(case):
    """Screened by the grid's screen radius, ``serving_rsu`` gives the
    oracle's RSU and distance, and the unscreened search's, bit for bit."""
    net, hysteresis, pos, current = case
    args = (pos, net.intersections, net.rsu_radius_m, current, hysteresis)
    rsu, dist = serving_rsu(*args, net.screen_radius)
    full_rsu, full_dist = serving_rsu(*args)
    assert rsu.tolist() == full_rsu.tolist()
    assert dist.tobytes() == full_dist.tobytes()
    for i, p in enumerate(pos):
        want = covering_rsu(net, p, int(current[i]), hysteresis_m=hysteresis)
        if want is None:  # rounded just out of the radius of every RSU
            continue
        assert rsu[i] == want
        assert dist[i].tobytes() == rsu_distances(net, p)[want].tobytes()


@pytest.mark.parametrize("rows,cols,spacing,radius,screen", [
    (1, 1, 1000.0, 600.0, 600.0),
    (1, 2, 1000.0, 600.0, 500.0),
    (2, 3, 1000.0, 500.0, 500.0),
    (2, 1, 300.0, 1000.0, 150.0),
])
def test_screen_radius_is_half_the_least_separation_capped_at_radius(
        rows, cols, spacing, radius, screen):
    net = build_grid(rows, cols, spacing, rsu_radius_m=radius)
    assert screen * (1 - 2**-39) < net.screen_radius < screen


@st.composite
def lattices(draw):
    """rows x cols in [1, 60], a spacing that keeps the map side within
    bounds, and a radius from half the spacing to three spacings."""
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    top = MAX_MAP_SIDE_M / max(1, max(rows, cols) - 1)
    spacing = draw(st.floats(MIN_SPACING_M, top) | st.floats(1.0, 5000.0))
    radius = spacing * draw(st.floats(0.5, 3.0))
    return rows, cols, spacing, radius


@settings(max_examples=150, deadline=None)
@given(lattices())
# c * spacing rounds: here the least gap is below the spacing, and half
# the spacing would be larger than half the least separation
@example((43, 35, 571.1978092692377, 571.1978092692377))
@example((1, 1, 1000.0, 600.0))
@example((1, 2, MIN_SPACING_M, MIN_SPACING_M))
@example((60, 2, MAX_MAP_SIDE_M / 59, 3 * MAX_MAP_SIDE_M / 59))
def test_screen_radius_matches_distance_matrix_oracle(case):
    rows, cols, spacing, radius = case
    net = build_grid(rows, cols, spacing, rsu_radius_m=radius)
    assert float(net.screen_radius).hex() == float(oracles.screen_radius(net)).hex()


def test_covering_rsu_hysteresis(grid):
    """Oracle semantics; test_serving_rsu_matches_covering_rsu_oracle ties
    the runtime decision to them."""
    # midway between RSU 0 (0,0) and RSU 1 (1000,0), slightly closer to 1
    pos = np.array([510.0, 0.0])
    assert covering_rsu(grid, pos, None) == 1
    # a current assignment within the hysteresis band is kept
    assert covering_rsu(grid, pos, 0, hysteresis_m=100.0) == 0
    # beyond the band the nearest covering RSU wins
    far = np.array([700.0, 0.0])
    assert covering_rsu(grid, far, 0, hysteresis_m=100.0) == 1


def test_covering_rsu_uncovered_returns_none(grid):
    assert covering_rsu(grid, np.array([5000.0, 5000.0]), 0) is None


def test_step_vehicle_consumes_waypoint_on_arrival(grid):
    rng = numpy_stream(0, "mobility")
    v = VehicleState(
        id=0,
        position=np.array([990.0, 0.0]),
        speed=10.0,
        heading=np.array([1.0, 0.0]),
        waypoint=1,
    )
    step_vehicle(v, 2.0, rng, grid)
    # arrived at node 1 and drew a fresh waypoint among its neighbors
    np.testing.assert_allclose(v.position, grid.intersections[1])
    assert v.waypoint in grid.adjacency[1]


def fleet_of(net, n, seed, dt=0.1):
    """A fleet of ``n`` vehicles spread over the RSUs of ``net`` in turn."""
    return Fleet(net, numpy_stream(seed, "mobility"), dt, (8.0, 15.0),
                 np.arange(n) % len(net.intersections))


def test_fleet_matches_scalar_stepper(grid):
    """The vectorized fleet replays step_vehicle per vehicle in index order."""
    fleet = fleet_of(grid, 40, 3)
    # the scalar stepper draws from a copy of the fleet's generator after the spawn
    rng = copy.deepcopy(fleet.rng)

    scalars = [
        VehicleState(i, fleet.pos[i].copy(), float(fleet.speed[i]),
                     fleet.heading[i].copy(), int(fleet.waypoint[i]))
        for i in range(fleet.n)
    ]
    for _ in range(400):
        fleet.step()
        for v in scalars:
            step_vehicle(v, 0.1, rng, grid)
    for i, v in enumerate(scalars):
        assert np.array_equal(fleet.pos[i], v.position)
        assert np.array_equal(fleet.heading[i], v.heading)
        assert int(fleet.waypoint[i]) == v.waypoint


def test_fleet_step_keeps_speed_and_caches_strides(grid):
    """Stepping never writes a speed; each vehicle's cached waypoint
    coordinates and step heading * speed * dt follow its waypoint
    arrivals."""
    fleet = fleet_of(grid, 40, 3)
    speed = fleet.speed.copy()
    arrivals = 0
    for _ in range(400):
        waypoint = fleet.waypoint.copy()
        fleet.step()
        arrivals += int((fleet.waypoint != waypoint).sum())
        assert np.array_equal(fleet.target, grid.intersections[fleet.waypoint])
        assert np.array_equal(fleet.stride, fleet.heading * (fleet.speed * 0.1)[:, None])
    assert arrivals > 10
    assert not fleet.speed.flags.writeable
    assert np.array_equal(fleet.speed, speed)


def test_fleet_spawns_on_region_segments(grid):
    spawn = np.repeat(np.arange(6), 10)
    fleet = Fleet(grid, numpy_stream(0, "mobility"), 0.1, (8.0, 15.0), spawn)
    # each vehicle starts on one of the segments at its assigned RSU's
    # intersection, bound for one of that segment's ends
    for i in range(60):
        node = int(spawn[i])
        on_segment = []
        for s in grid.incident[node]:
            assert node in grid.segments[s]
            pa, pb = (grid.intersections[n] for n in grid.segments[s])
            u = np.dot(fleet.pos[i] - pa, pb - pa) / np.dot(pb - pa, pb - pa)
            on_segment.append(0 <= u <= 1 and np.allclose(pa + u * (pb - pa), fleet.pos[i])
                              and int(fleet.waypoint[i]) in grid.segments[s])
        assert any(on_segment)
    assert sorted(s for segs in grid.incident.values() for s in segs) == sorted(
        list(range(len(grid.segments))) * 2)


@pytest.mark.parametrize("net", [
    build_grid(1, 1, 1000.0), build_grid(1, 2, 1000.0), build_grid(3, 1, 750.0),
    build_grid(2, 3, 1000.0), build_grid(7, 5, 333.3),
], ids=["1x1", "1x2", "3x1", "2x3", "7x5"])
@pytest.mark.parametrize("layout", ["by_region", "spawn_rsu"])
def test_fleet_spawn_matches_scalar_oracle(net, layout):
    """Positions, headings, waypoints and the generator's state after the
    spawn are those of the per-vehicle oracle, bit for bit, with the
    vehicles spread over the RSUs in turn (spawn_rsu) or in blocks, as the
    runner spawns them (by_region).  On 1x1 there is no segment, and only
    the speeds are drawn."""
    n, k = 97, len(net.intersections)
    spawn_rsu = np.arange(n) % k if layout == "spawn_rsu" else np.arange(n) * k // n
    rng = numpy_stream(11, "mobility")
    fleet = Fleet(net, rng, 0.1, (8.0, 15.0), spawn_rsu)
    ref_rng = numpy_stream(11, "mobility")
    speed = ref_rng.uniform(8.0, 15.0, size=n)
    pos, heading, waypoint = oracles.spawn_fleet(net, ref_rng, spawn_rsu)
    assert np.array_equal(fleet.speed, speed)
    assert np.array_equal(fleet.pos, pos)
    assert np.array_equal(fleet.heading, heading)
    assert np.array_equal(fleet.waypoint, waypoint)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def pair_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    """``pairs_within``'s result as a set, after checking its form."""
    assert pairs.dtype == np.intp and pairs.shape == (len(pairs), 2)
    assert (pairs[:, 0] < pairs[:, 1]).all()
    found = set(map(tuple, pairs.tolist()))
    assert len(found) == len(pairs)
    return found


# whole multiples of 50 m put points on shared cells, cell edges and exact
# distances; the floats put them anywhere
COORD = st.one_of(st.integers(-6, 6).map(lambda k: k * 50.0), st.floats(-400, 400))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), max_size=30),
       st.one_of(st.sampled_from([0.0, 50.0, 150.0]), st.floats(0, 1000)))
def test_pairs_within_matches_brute_force(points, r):
    pos = np.array(points, dtype=float).reshape(-1, 2)
    assert pair_set(pairs_within(pos, r)) == oracles.pairs_within(pos, r)


def test_pairs_within_boundary_is_squared_distance():
    # 90^2 + 120^2 == 150^2 exactly; one float past 120 the squared
    # distance is above 150^2, but hypot still rounds it to 150
    past = np.nextafter(120.0, np.inf)
    assert np.hypot(90.0, past) == 150.0
    assert pair_set(pairs_within(np.array([[0.0, 0.0], [90.0, 120.0]]), 150.0)) == {(0, 1)}
    assert pair_set(pairs_within(np.array([[0.0, 0.0], [90.0, past]]), 150.0)) == set()


@pytest.mark.parametrize("axis", [0, 1])
def test_pairs_within_reaches_k_cells_ahead(axis):
    # 40 m and 190 m lie three cells of r / 3 apart, at distance exactly r
    pos = np.zeros((3, 2))
    pos[:, axis] = [0.0, 40.0, 190.0]
    assert pair_set(pairs_within(pos, 150.0)) == {(0, 1), (1, 2)}


def test_pairs_within_coincident_points_and_zero_range():
    # vehicles waiting at one intersection are V2V neighbours at any range
    pos = np.array([[500.0, 0.0]] * 4 + [[500.0, 1e-9], [0.0, 0.0]])
    same = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert pair_set(pairs_within(pos, 0.0)) == same
    assert pair_set(pairs_within(pos, 1e-9)) == same | {(i, 4) for i in range(4)}
    assert pair_set(pairs_within(np.zeros((3, 2)), 0.0)) == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("points,r,pairs", [
    # dy*dy underflows to 0, so the pair passes at r = 0 although it is
    # 2**20 grid rows apart on a grid sized by the span
    ([(0.0, 0.0), (0.0, 5.2e-178)], 0.0, {(0, 1)}),
    ([(0.0, 0.0), (0.0, 1e-160)], 1e-170, set()),
    # r*r overflows, so every pair passes, however far apart
    ([(0.0, 0.0), (1e300, 0.0), (0.0, 1e300)], 1e155, {(0, 1), (0, 2), (1, 2)}),
])
def test_pairs_within_when_r_squared_rounds_to_zero_or_inf(points, r, pairs):
    pos = np.array(points)
    with np.errstate(over="ignore"):
        assert pair_set(pairs_within(pos, r)) == oracles.pairs_within(pos, r) == pairs


@pytest.mark.parametrize("r", [1e3, 1e6, math.inf])
def test_pairs_within_range_beyond_extent(r):
    pos = np.random.default_rng(5).uniform(0, 100, (30, 2))
    assert pair_set(pairs_within(pos, r)) == {(i, j) for i in range(30) for j in range(i + 1, 30)}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pairs_within_tiny_fleets(n):
    pos = np.array([[0.0, 0.0], [3.0, 4.0]])[:n]
    assert pair_set(pairs_within(pos, 5.0)) == ({(0, 1)} if n == 2 else set())
    assert pair_set(pairs_within(pos, 4.9)) == set()


def test_pairs_within_matches_kdtree_on_showcase_passes(monkeypatch):
    spatial = pytest.importorskip("scipy.spatial")
    passes = []

    def record(pos, r):
        passes.append((pos.copy(), r))
        return pair_search(pos, r)

    monkeypatch.setattr(runner, "pair_search", record)
    runner.Simulation(ScenarioConfig(seed=0, duration_s=31.0)).engine.run_until(3_000_000)
    assert len(passes) == 3
    for pos, r in passes:
        expected = spatial.cKDTree(pos).query_pairs(r, output_type="ndarray")
        assert len(expected) > 10_000
        assert pair_set(pairs_within(pos, r)) == set(map(tuple, expected.tolist()))


@pytest.mark.parametrize("r", [1e-3, 0.0])
def test_pairs_within_memory_bounded_on_huge_extent(r):
    # a cell table sized by extent / r would need about 1e30 cells here
    rng = np.random.default_rng(9)
    pos = rng.uniform(0, 1e12, (800, 2))
    # 100 coincident pairs and 100 pairs 0.5 mm apart (a few float steps)
    pos = np.concatenate([pos, pos[:100], pos[100:200] + [5e-4, 0.0]])
    tracemalloc.start()
    try:
        found = pairs_within(pos, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair_set(found) == oracles.pairs_within(pos, r)
    assert len(found) == (200 if r else 100)
    assert peak < 10 * 2**20
