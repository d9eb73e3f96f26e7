import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twinsim.edge import (ROLES, EdgeServer, EdgeTwins, Policy, RegionState, ThinningCounter,
                          assign_roles, fuse_labels, largest_remainder_seats, localize_policy)
from twinsim.kernel import CLOUD, US_PER_S, Engine, LinkSpec, MessageCounters
from twinsim.runner import Simulation
from twinsim.scenario import parse_scenario

from test_kernel import ScriptedRng


def test_largest_remainder_oracle():
    # exact seats (2.5, 1.5, 1.0) -> floors (2,1,1), remainder tie to the
    # first-listed role
    assert largest_remainder_seats((0.5, 0.3, 0.2), 5) == (3, 1, 1)
    assert largest_remainder_seats((0.4, 0.4, 0.2), 2) == (1, 1, 0)
    assert largest_remainder_seats((1.0, 0.0, 0.0), 7) == (7, 0, 0)


def test_assign_roles_capability_sort():
    cq = np.array([0.1, 0.9, 0.5, 0.8, 0.2])
    idle = np.array([40.0, 5.0, 30.0, 10.0, 50.0])
    # quotas (0.4, 0.4, 0.2) over 5 -> 2 acquisition, 2 processing, 1 coordination
    roles = assign_roles(np.arange(5), (0.4, 0.4, 0.2), cq, idle)
    assert np.flatnonzero(roles == 0).tolist() == [1, 3]
    # remaining pool {0,2,4}: best idle compute 4 then 0
    assert np.flatnonzero(roles == 1).tolist() == [0, 4]
    # every seat left goes to coordination
    assert np.flatnonzero(roles == 2).tolist() == [2]


def test_assign_roles_empty():
    assert assign_roles(np.array([], dtype=int), (0.4, 0.4, 0.2),
                        np.array([]), np.array([])).tolist() == []


# capabilities with ties, both zeros and an unreported member's 0.0
CAPABILITY = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0]),
                       st.floats(-50.0, 50.0))
QUOTAS = st.one_of(st.sampled_from([(0.4, 0.4, 0.2), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                    (0.5, 0.3, 0.2), (0.0, 0.5, 0.5)]),
                   st.tuples(*[st.integers(0, 5)] * 3).filter(any).map(
                       lambda w: tuple(x / sum(w) for x in w)))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 300),
                       st.tuples(st.booleans(), CAPABILITY, CAPABILITY), max_size=10),
       QUOTAS)
def test_assign_roles_matches_scalar_oracle(members, quotas):
    """Role codes equal the per-member sort's roles, with unreported members
    (False) absent from its dicts and 0.0 in both arrays."""
    ids = np.array(sorted(members), dtype=np.int64)
    reported = {d: v[1:] for d, v in members.items() if v[0]}
    cq = np.array([reported.get(d, (0.0, 0.0))[0] for d in ids.tolist()])
    idle = np.array([reported.get(d, (0.0, 0.0))[1] for d in ids.tolist()])
    expected = oracles.assign_roles(ids.tolist(), quotas,
                                    {d: v[0] for d, v in reported.items()},
                                    {d: v[1] for d, v in reported.items()})
    roles = assign_roles(ids, quotas, cq, idle)
    assert roles.tolist() == [ROLES.index(expected[d]) for d in ids.tolist()]


def test_fuse_labels_cases():
    assert fuse_labels(10.0, 0.6, 6.0) == ("Normal",)
    assert fuse_labels(5.0, 0.6, 6.0) == ("Congestion",)
    assert fuse_labels(10.0, 0.9, 6.0) == ("Overload",)
    assert fuse_labels(10.0, 0.3, 6.0) == ("Underload",)
    assert fuse_labels(5.0, 0.9, 6.0) == ("Congestion", "Overload")
    # boundary: util exactly at the thresholds is neither over- nor underload
    assert fuse_labels(10.0, 0.85, 6.0) == ("Normal",)
    assert fuse_labels(10.0, 0.5, 6.0) == ("Normal",)


def test_localize_policy_congestion_boost_oracle():
    policy = Policy(role_quotas=(0.5, 0.3, 0.2))
    localized = localize_policy(policy, congestion_active=True)
    assert localized.role_quotas == pytest.approx((0.6, 0.3, 0.1))
    assert localized.local_serve_threshold == policy.local_serve_threshold
    # without congestion the blueprint's policy is used as it is
    assert localize_policy(policy, congestion_active=False) is policy


def test_localize_policy_boost_respects_coordination_floor():
    policy = localize_policy(Policy(role_quotas=(0.5, 0.42, 0.08)), True)
    # only 0.03 available above the 0.05 floor
    assert policy.role_quotas == pytest.approx((0.53, 0.42, 0.05))


def test_thinning_counter_exactness():
    c = ThinningCounter()
    picks = [c.take(0.3) for _ in range(10)]
    assert sum(picks) == 3
    # deterministic pattern: fires when the accumulator crosses 1
    assert picks == [False, False, False, True, False, False, True,
                     False, False, True]


def test_thinning_counter_edge_fractions():
    c = ThinningCounter()
    assert all(c.take(1.0) for _ in range(5))
    c = ThinningCounter()
    assert not any(c.take(0.0) for _ in range(5))


def test_edge_server_fifo_and_backlog():
    server = EdgeServer(1000.0)
    assert server.backlog_s(0) == 0.0
    done1 = server.enqueue(0, 500.0)      # 500 ms service
    assert done1 == 500_000
    done2 = server.enqueue(100_000, 250.0)  # queues behind the first
    assert done2 == 750_000
    assert server.backlog_s(100_000) == pytest.approx(0.65)
    # after drain
    assert server.backlog_s(800_000) == 0.0


def test_local_policy_is_frozen():
    policy = Policy(2.0, 0.2, 6.0, (0.4, 0.4, 0.2))
    with pytest.raises(AttributeError):
        policy.offload_fraction = 0.5


def test_take_batch_adds_speeds_in_order():
    """A batch adds a region's speeds in row order, as the oracle does one
    report at a time: 1e16 and then sixteen 1.0 sum to 1e16, each 1.0 lost
    to rounding, where a pairwise ``sum`` would keep them."""
    speed = np.array([1e16] + [1.0] * 16)
    n = len(speed)
    assert speed.sum() == np.add.reduceat(speed, [0])[0] == 1.0000000000000016e16

    def edges():
        cfg = parse_scenario({"grid": {"rows": 1, "cols": 1}, "vehicles_per_rsu": n,
                              "duration_s": 31.0})
        return Simulation(cfg).edges

    batched, single = edges(), edges()
    rsu, cq, backlog = np.zeros(n, dtype=np.intp), np.full(n, 0.5), np.full(n, 2.0)
    batched.take_batch((np.arange(n), rsu, speed, cq, backlog), np.arange(n))
    for v in range(n):
        oracles.take_report(single, (0, v, speed.item(v), 0.5, 2.0))
    assert batched.speed_sum.tolist() == single.speed_sum.tolist() == [1e16]
    assert batched.speed_count.tolist() == single.speed_count.tolist() == [n]
    assert batched.has.all() and single.has.all()


def test_take_batch_rows_are_not_vehicle_ids():
    """A report batch of vehicles 3, 7 and 11 (rows 0, 1 and 2): vehicle 11
    has moved to RSU 0 when the batch lands, and row 1 is lost once and
    retried.  The edge holds, sums and counts what the oracle does when each
    report is sent on its own."""
    cfg = parse_scenario({"grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 6,
                          "duration_s": 31.0})
    link = LinkSpec(5.0, 1e7, loss_prob=0.5, retx_timeout_ms=20.0, max_attempts=2)
    v = np.array([3, 7, 11])

    def run(batched):
        current_rsu = np.repeat(np.arange(2), 6)
        # first attempts: ok, lost, ok; the retry of row 1 gets through
        rng = ScriptedRng([0.9, 0.1, 0.9, 0.9])
        engine = Engine(rng)
        edges = EdgeTwins(SimpleNamespace(cfg=cfg, engine=engine, current_rsu=current_rsu),
                          US_PER_S)
        batch = (v, current_rsu[v], np.array([8.5, 9.25, 11.0]), np.array([0.9, 0.5, 0.1]),
                 np.array([0.0, 1.5, 3.0]))
        engine.schedule(1, current_rsu.__setitem__, 11, 0)
        if batched:
            engine.send_batch(len(v), 100, link, functools.partial(edges.take_batch, batch))
        else:
            engine.register("oracle", functools.partial(oracles.take_report, edges))
            for i in range(len(v)):
                report = (batch[1], batch[0], *batch[2:])
                engine.send("oracle", tuple(x.item(i) for x in report), 100, link)
        engine.run_until(US_PER_S)
        assert engine.messages == MessageCounters(3, 3, 0) and rng.values == []
        return edges

    batched, single = run(True), run(False)
    for name in ("has", "cq", "backlog", "speed_sum", "speed_count"):
        assert getattr(batched, name).tolist() == getattr(single, name).tolist(), name
    assert np.flatnonzero(batched.has).tolist() == [3, 7]
    assert batched.speed_sum.tolist() == [8.5, 9.25]
    assert batched.speed_count.tolist() == [1, 1]
    assert batched.cq[[3, 7]].tolist() == [0.9, 0.5]


def test_fusion_window_with_no_report():
    """A region that got no report in a fusion window reads Normal, keeps the
    mean speed of its last reported window and takes its utilization from
    the CU its edge served in the window.  Each window's record is the
    region's state, its label log entry and its uplink."""
    cfg = parse_scenario({"grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 2,
                          "duration_s": 31.0, "capacity": {"edge_cu_s": 100}})
    engine = Engine(ScriptedRng([]))
    uplinks = []
    engine.register(CLOUD, uplinks.append)
    current_rsu = np.repeat(np.arange(2), 2)
    edges = EdgeTwins(SimpleNamespace(cfg=cfg, engine=engine, current_rsu=current_rsu),
                      5 * US_PER_S)  # a window serves at most 500 CU
    assert edges.state == [RegionState(0), RegionState(1)]
    v, ones = np.arange(4), np.ones(4)
    # window 1: both regions report, and region 1's edge served 450 CU
    edges.take_batch((v, current_rsu, np.array([12.0, 14.0, 9.0, 11.0]), ones, ones), v)
    edges.processed_cu[1] = 450.0
    edges.fuse_and_uplink(5 * US_PER_S)
    assert edges.state[1] == RegionState(1, 5 * US_PER_S, ("Overload",), 0.9, 10.0)
    # window 2: only region 0 reports, and region 1's edge served 100 CU
    edges.take_batch((v, current_rsu, np.array([12.0, 14.0, 9.0, 11.0]), ones, ones), v[:2])
    edges.processed_cu[1] = 100.0
    edges.fuse_and_uplink(10 * US_PER_S)
    assert edges.state[0] == RegionState(0, 10 * US_PER_S, ("Underload",), 0.0, 13.0)
    # had the empty window been fused, 0.2 would read Underload and a zero
    # mean speed Congestion
    assert edges.state[1] == RegionState(1, 10 * US_PER_S, ("Normal",), 0.2, 10.0)
    engine.run_until(11 * US_PER_S)
    assert edges.label_log == [x for _, x in uplinks] and len(uplinks) == 4
    assert all(a is b for a, b in zip(edges.label_log[2:], edges.state))
