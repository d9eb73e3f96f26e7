"""Property-based invariants (hypothesis)."""
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsim.cloud import KnowledgeGraph, PolicyBlueprint, RegionEvolution, coordinate
from twinsim.edge import (PARAM_RANGES, Policy, RegionState, ThinningCounter,
                          largest_remainder_seats)
from twinsim.kernel import Engine
from twinsim.mobility import build_grid, serving_rsu
from twinsim.scenario import parse_scenario


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.integers(0, 1000),
)
def test_largest_remainder_seats_sum_and_proximity(weights, n):
    total = sum(weights)
    quotas = tuple(w / total for w in weights)
    seats = largest_remainder_seats(quotas, n)
    assert sum(seats) == n
    assert all(s >= 0 for s in seats)
    # largest-remainder never strays more than one seat from the exact share
    for q, s in zip(quotas, seats):
        assert abs(s - q * n) < 1.0 + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hysteresis_anti_flapping(seed):
    """A vehicle jittering +-10 m around a coverage boundary switches RSU at
    most once over 100 evaluations."""
    net = build_grid(1, 2, 1000.0, rsu_radius_m=600.0)
    rng = random.Random(seed)
    xs = [500.0 + rng.uniform(-10.0, 10.0) for _ in range(100)]
    assert count_switches(net, xs) <= 1


def count_switches(net, xs):
    """RSU changes of one vehicle visiting (x, 0) for each x in xs, starting
    from its serving RSU at (500, 0)."""
    args = (net.intersections, net.rsu_radius_m)
    current, _ = serving_rsu(np.array([[500.0, 0.0]]), *args, None, 100.0)
    switches = 0
    for x in xs:
        nxt, _ = serving_rsu(np.array([[x, 0.0]]), *args, current, 100.0)
        switches += int(nxt[0] != current[0])
        current = nxt
    return switches


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 2000))
def test_thinning_exactness(fraction, k):
    c = ThinningCounter()
    selected = sum(c.take(fraction) for _ in range(k))
    assert abs(selected - fraction * k) < 1.0 + 1e-6


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 10.0), st.floats(0.0, 1.0), st.floats(3.0, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_rollback_restores_parent_bit_exact(theta, phi, vc, seed):
    policy = Policy(theta, phi, vc, (0.4, 0.4, 0.2))
    parent = PolicyBlueprint(target=0, epoch=0, parent_id=None, policy=policy)
    evo = RegionEvolution(parent)
    evo.close_epoch(30_000.0)
    evo.open_epoch(1, random.Random(seed))
    decision, active = evo.close_epoch(1e9)  # force rollback
    assert decision == "rollback"
    assert active is parent
    assert active.policy == Policy(theta, phi, vc, (0.4, 0.4, 0.2))


def policies_validate_accepts():
    """Policies that ``validate`` accepts: every scalar across its range,
    range endpoints and zero quotas included."""
    def scalar(key):
        lo, hi = PARAM_RANGES[key]
        return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))

    weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3)
    return st.builds(
        Policy, scalar("local_serve_threshold"), scalar("offload_fraction"),
        scalar("congestion_speed_threshold"),
        weights.filter(lambda w: sum(w) > 0).map(lambda w: tuple(x / sum(w) for x in w)))


def assert_in_range(policy):
    for key in ("local_serve_threshold", "offload_fraction", "congestion_speed_threshold"):
        lo, hi = PARAM_RANGES[key]
        assert lo <= getattr(policy, key) <= hi
    assert len(policy.role_quotas) == 3
    assert min(policy.role_quotas) >= 0
    assert abs(sum(policy.role_quotas) - 1) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(policies_validate_accepts(), st.lists(st.booleans(), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_evolution_keeps_policies_in_range(policy, keeps, seed):
    """Chained keep and rollback epochs, from any policy the scenario
    parser accepts, keep every policy in range: this is why no layer after
    the parser checks a blueprint again."""
    assert parse_scenario({"policy": vars(policy)}).policy == policy
    rng = random.Random(seed)
    evo = RegionEvolution(PolicyBlueprint(0, 0, None, policy))
    evo.close_epoch(30_000.0)
    for epoch, keep in enumerate(keeps, start=1):
        assert_in_range(evo.open_epoch(epoch, rng).policy)
        _, active = evo.close_epoch(30_000.0 if keep else 1e9)
        assert_in_range(active.policy)


label_sets = st.sampled_from(
    [("Normal",), ("Overload",), ("Underload",), ("Congestion", "Overload"),
     ("Congestion",), ("Congestion", "Underload")])


@settings(max_examples=300, deadline=None)
@given(st.lists(label_sets, min_size=6, max_size=6))
def test_directive_legality_and_exclusivity(labels):
    adjacency = {0: [1, 3], 1: [0, 2, 4], 2: [1, 5],
                 3: [0, 4], 4: [1, 3, 5], 5: [2, 4]}
    graph = KnowledgeGraph(6, adjacency)
    for r, ls in enumerate(labels):
        graph.ingest(RegionState(r, labels=ls, utilization=0.9 if "Overload" in ls else 0.3))
    directives = coordinate(graph, [0.2] * 6, 1, 0, 0)
    partners = [d.to_rsu for d in directives]
    sources = [d.from_rsu for d in directives]
    assert len(set(partners)) == len(partners)       # exclusive partners
    assert len(set(sources)) == len(sources)
    for d in directives:
        assert "Overload" in graph.nodes[d.from_rsu].labels
        assert "Underload" in graph.nodes[d.to_rsu].labels
        assert d.to_rsu in adjacency[d.from_rsu]
        assert (d.from_labels, d.to_labels) == (labels[d.from_rsu], labels[d.to_rsu])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
def test_event_order_non_inversion(times):
    eng = Engine(random.Random(0))
    fired = []
    for i, t in enumerate(times):
        # a fresh engine issues event ids 0, 1, 2, ...
        assert eng.schedule(t, lambda seq: fired.append((eng.now, seq)), i) == i
    eng.run_until(10_000)
    assert fired == sorted(fired)
    assert len(fired) == len(times)
