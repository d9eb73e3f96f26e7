import numpy as np
import pytest

from twinsim.kernel import numpy_stream
from twinsim.mobility import (ConfigError, Fleet, build_grid, serving_rsu,
                              vehicle_density)

from oracles import VehicleState, covering_rsu, step_vehicle


@pytest.fixture
def grid():
    return build_grid(2, 3, 1000.0, rsu_radius_m=600.0)


def test_grid_geometry(grid):
    assert len(grid.intersections) == 6
    # 2x3 lattice: 4 horizontal + 3 vertical segments
    assert len(grid.segments) == 7
    assert sum(grid.segment_length(i) for i in range(7)) == pytest.approx(7000.0)
    assert len(grid.rsus) == 6


def test_rsu_adjacency_matches_lattice(grid):
    adj = grid.rsu_adjacency()
    assert sorted(adj[0]) == [1, 3]
    assert sorted(adj[4]) == [1, 3, 5]


def test_coverage_gap_rejected():
    with pytest.raises(ConfigError):
        build_grid(2, 3, 1000.0, rsu_radius_m=300.0)
    # the segment midpoint (502.5 m from both RSUs) is uncovered, although
    # every road point sampled at 5 m steps is covered
    with pytest.raises(ConfigError, match="rsu_radius_m"):
        build_grid(1, 2, 1005.0, rsu_radius_m=502.4)


def test_coverage_rule_boundary_accepted():
    # a radius of exactly half the spacing reaches every segment midpoint
    assert len(build_grid(1, 2, 1005.0, rsu_radius_m=502.5).rsus) == 2
    # a single intersection has no road beyond its own RSU
    for radius in (1e-3, 1.0, 600.0):
        assert len(build_grid(1, 1, 1000.0, rsu_radius_m=radius).rsus) == 1


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
    random road points, from no current RSU and from random current ones."""
    net = build_grid(2, 3, spacing, rsu_radius_m=radius)
    rng = np.random.default_rng(7)
    pos = road_points(net, rng, 2000)
    currents = [None, rng.integers(len(net.rsus), size=len(pos))]
    for current in currents:
        rsu, dist = serving_rsu(pos, net.rsu_positions, net.rsu_radii, current,
                                hysteresis)
        for i, p in enumerate(pos):
            cur = None if current is None else int(current[i])
            want = covering_rsu(net, p, cur, hysteresis_m=hysteresis)
            assert want is not None  # every road point is covered
            assert rsu[i] == want
            assert dist[i] == np.linalg.norm(net.rsu_positions[want] - p)


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


def test_vehicle_density():
    assert vehicle_density(10, 2000.0) == pytest.approx(5.0)
    assert vehicle_density(0, 1000.0) == 0.0


def test_step_vehicle_consumes_waypoint_on_arrival(grid):
    rng = numpy_stream(0, "mobility")
    v = VehicleState(
        id=0,
        position=np.array([990.0, 0.0]),
        speed=10.0,
        heading=np.array([1.0, 0.0]),
        segment_from=0,
        waypoint=1,
        nav_intent=2,
    )
    step_vehicle(v, 2.0, rng, grid)
    # arrived at node 1 and drew a fresh waypoint among its neighbors
    np.testing.assert_allclose(v.position, grid.intersections[1])
    assert v.segment_from == 1
    assert v.waypoint in grid.adjacency[1]
    assert v.nav_intent in grid.adjacency[v.waypoint]


def test_fleet_matches_scalar_stepper(grid):
    """The vectorized fleet replays step_vehicle per vehicle in index order."""
    fleet = Fleet(grid, 40, numpy_stream(3, "mobility"))
    rng_a = numpy_stream(3, "walk")
    rng_b = numpy_stream(3, "walk")

    scalars = [
        VehicleState(i, fleet.pos[i].copy(), float(fleet.speed[i]),
                     fleet.heading[i].copy(), int(fleet.segment_from[i]),
                     int(fleet.waypoint[i]), int(fleet.nav_intent[i]))
        for i in range(fleet.n)
    ]
    for _ in range(200):
        fleet.step(0.1, rng_a)
        for v in scalars:
            step_vehicle(v, 0.1, rng_b, grid)
    for i, v in enumerate(scalars):
        np.testing.assert_allclose(fleet.pos[i], v.position, atol=1e-9)
        assert int(fleet.waypoint[i]) == v.waypoint
        assert int(fleet.nav_intent[i]) == v.nav_intent


def test_fleet_spawns_on_region_segments(grid):
    spawn = np.repeat(np.arange(6), 10)
    fleet = Fleet(grid, 60, numpy_stream(0, "mobility"), spawn_rsu=spawn)
    # each vehicle starts within its assigned region's incident segments
    for i in range(60):
        region = int(spawn[i])
        seg = fleet.current_segment_of(i)
        region_segs = {grid.segments[s] for s in grid.region_segments(region)}
        assert seg in region_segs
