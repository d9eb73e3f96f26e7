import collections
import copy
import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinsim import cloud, edge, local as local_module, mobility, runner
from twinsim.kernel import US_PER_S
from twinsim.edge import ROLES
from twinsim.local import BeaconSnapshot, decide_local
from twinsim.mobility import form_pairs, pair_search, pairs_within
from twinsim.runner import Simulation
from twinsim.scenario import WorkloadConfig, parse_scenario

from oracles import (NeighborEntry, NeighborTable, channel_quality, eager_beacons,
                     rsu_distances, window_mean_speed)
from test_digests import SCENARIOS

US = 1_000_000


def test_channel_quality_linear_and_clipped():
    assert channel_quality(0.0, 600.0) == 1.0
    assert channel_quality(300.0, 600.0) == pytest.approx(0.5)
    assert channel_quality(600.0, 600.0) == 0.0
    assert channel_quality(900.0, 600.0) == 0.0


def test_reports_carry_oracle_speed_and_channel_quality():
    """Each batched 1 Hz report carries the oracle's mean speed of its
    vehicle's report window and the oracle's channel quality at its
    distance to its serving RSU; each out-of-cycle report carries those of
    the latest batch."""
    sim = Simulation(parse_scenario({"seed": 0, "duration_s": 31.0,
                                     "vehicles_per_rsu": 20}))
    engine = sim.engine
    ticks = round(sim.cfg.periods.report_s * 1000 / sim.cfg.periods.sense_ms)
    latest, out_of_cycle = {}, []
    send_batch, send = engine.send_batch, engine.send

    def checked_batch(dsts, nbytes, link, deliver, payload):
        for v, rsu in enumerate(dsts):
            _, (device, speed, cq, _) = payload(v)
            d = rsu_distances(sim.net, sim.fleet.pos[v])[rsu]
            assert speed == window_mean_speed(float(sim.fleet.speed[v]), ticks)
            assert cq == channel_quality(d, sim.net.rsu_radius_m)
            latest[device] = (speed, cq)
        return send_batch(dsts, nbytes, link, deliver, payload)

    def checked_send(dst, payload, *args, **kwargs):
        if payload[0] == "report":
            device, speed, cq, _ = payload[1]
            assert (speed, cq) == latest[device]
            out_of_cycle.append(device)
        return send(dst, payload, *args, **kwargs)

    engine.send_batch, engine.send = checked_batch, checked_send
    sim.run()
    assert len(latest) == sim.cfg.n_vehicles and out_of_cycle


@pytest.mark.parametrize("cost_range", [WorkloadConfig().cost_range_cu, (3.7, 3.7)])
@pytest.mark.parametrize("rate", [0.2, 2.4, 1e-6, 1e6])
def test_inline_task_draws_equal_uniform_and_expovariate(cost_range, rate):
    """A task arrival draws its cost as ``lo + (hi - lo) * random()`` and its
    gap as ``-log(1.0 - random()) / rate``: the same floats, and the same
    generator state after, as ``uniform(lo, hi)`` and ``expovariate(rate)``."""
    lo, hi = cost_range
    wrapped, inline = random.Random(8), random.Random(8)
    want = [(wrapped.uniform(lo, hi), wrapped.expovariate(rate)) for _ in range(10_000)]
    draw = inline.random
    got = [(lo + (hi - lo) * draw(), -math.log(1.0 - draw()) / rate) for _ in range(10_000)]
    assert got == want
    assert inline.getstate() == wrapped.getstate()


def test_decide_local_threshold_and_backlog_guard():
    # cost at the threshold stays local
    assert decide_local(2.0, 2.0, 0.0, 50.0) == "local"
    assert decide_local(2.1, 2.0, 0.0, 50.0) == "edge"
    # saturated local queue (> 2 s) overrides the threshold
    assert decide_local(1.0, 2.0, 100.0, 50.0) == "local"  # exactly 2 s
    assert decide_local(1.0, 2.0, 101.0, 50.0) == "edge"


def entry(t, role="processing", backlog=0.0):
    return NeighborEntry(t, (0.0, 0.0), 10.0, role, backlog)


def test_neighbor_table_expiry():
    table = NeighborTable(3 * US)
    table.observe(1, entry(0))
    assert 1 in table.alive(3 * US)
    assert 1 not in table.alive(3 * US + 1)


def test_handoff_candidate_rules():
    table = NeighborTable(3 * US)
    # 50 CU/s capacity: own backlog 150 CU = 3 s
    table.observe(1, entry(0, role="acquisition", backlog=0.0))   # wrong role
    table.observe(2, entry(0, role="processing", backlog=120.0))  # gap only 0.6 s
    table.observe(3, entry(0, role="processing", backlog=50.0))   # eligible, 1 s
    table.observe(4, entry(0, role="processing", backlog=20.0))   # eligible, lowest
    assert table.handoff_candidate(0, 150.0, 50.0, gap_s=1.0) == 4


def test_handoff_candidate_tie_breaks_by_id():
    table = NeighborTable(3 * US)
    table.observe(9, entry(0, backlog=10.0))
    table.observe(5, entry(0, backlog=10.0))
    assert table.handoff_candidate(0, 150.0, 50.0) == 5


def test_handoff_candidate_none_when_empty():
    table = NeighborTable(3 * US)
    assert table.handoff_candidate(0, 500.0, 50.0) is None


def v2v_handoff_sim():
    return Simulation(parse_scenario(copy.deepcopy(SCENARIOS["v2v_handoff"])))


def pack(pairs, n: int) -> np.ndarray:
    """``mobility.form_pairs``'s form of the pairs ``(p0, p1)``, ``p0 < p1``,
    of n vehicles: sorted keys ``p0 << bits | p1`` in the narrowest unsigned
    type, ``bits = (n - 1).bit_length()``."""
    bits = (n - 1).bit_length()
    dtype = np.min_scalar_type((1 << 2 * bits) - 1)
    return np.sort([p0 << bits | p1 for p0, p1 in np.asarray(pairs).tolist()]).astype(dtype)


def unpack(keys: np.ndarray, n: int) -> np.ndarray:
    """The (m, 2) ``intp`` pairs of sorted ``form_pairs`` keys of n vehicles."""
    bits = (n - 1).bit_length()
    pairs = [divmod(k, 1 << bits) for k in keys.tolist()]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def ranked(heard, t_send: int, busy, role, cap: float) -> list:
    """The senders ``heard`` in the index's ranking order: by backlog in CU,
    computed as NeighborTable is fed it, for a Processing-role sender (inf
    for any other role), then by id."""
    def rank_key(s):
        backlog_cu = max(0, int(busy[s]) - t_send) / US * cap
        return backlog_cu if ROLES[role[s]] == "processing" else math.inf, s

    return sorted(heard.tolist(), key=rank_key)


def capture_passes(local):
    """Wrap ``local.beacon_pass`` so that every new snapshot's pairs, formed
    at pass time and unpacked, and its loss draws and sender state are kept
    (the index build drops them from the snapshot).  Returns the list it
    fills with ``(snapshot, pairs, ok, busy, role)``."""
    beacon_pass = local.beacon_pass
    passes = []

    def recorded(now, found):
        before = local.beacon_snapshots[-1] if local.beacon_snapshots else None
        beacon_pass(now, found)
        if local.beacon_snapshots and local.beacon_snapshots[-1] is not before:
            snap = local.beacon_snapshots[-1]
            keys, ok, busy, role = snap.raw
            passes.append((snap, unpack(keys(), len(busy)), ok, busy, role))

    local.beacon_pass = recorded
    return passes


def test_neighbor_table_matches_local_handoff_candidate():
    """On every handoff query of the v2v_handoff digest scenario, the local
    twins' answer from their beacon snapshots equals that of a NeighborTable
    fed, oldest first, every beacon the vehicle has heard by then, as the
    eager oracle lists them."""
    sim = v2v_handoff_sim()
    local = sim.local
    n = sim.cfg.n_vehicles
    cap = sim.cfg.capacity.local_cu_s
    gap = sim.cfg.thresholds.handoff_gap_s
    runtime = local.handoff_candidate
    passes = capture_passes(local)
    eager = {}  # id(snapshot) -> (snapshot, dst, src, busy, role)
    answers, mismatches = [], []

    def checked(v, now, own_backlog_cu):
        for snap, pairs, ok, busy, role in passes[len(eager):]:
            eager[id(snap)] = (snap, *eager_beacons(pairs, ok, n), busy, role)
        got = runtime(v, now, own_backlog_cu)
        table = NeighborTable(local.neighbor_expiry_us)
        for snap in local.beacon_snapshots:
            if snap.heard_at > now:
                continue
            _, dst, src, busy, role = eager[id(snap)]
            for s in src[dst == v].tolist():
                backlog_cu = max(0, int(busy[s]) - snap.t_send) / US * cap
                # position and speed are not part of the handoff rule
                table.observe(s, NeighborEntry(snap.heard_at, (0.0, 0.0), 0.0,
                                               ROLES[role[s]], backlog_cu))
        want = table.handoff_candidate(now, own_backlog_cu, cap, gap)
        if got != want:
            mismatches.append((v, now, got, want))
        answers.append(got)
        return got

    local.handoff_candidate = checked
    sim.run()
    assert mismatches == []
    assert sum(a is not None for a in answers) > 0


def test_lazy_beacon_index_matches_eager_pass():
    """For every beacon pass of the v2v_handoff digest scenario, each
    receiver's senders from the lazily built index are the eager oracle's,
    in ``(backlog_cu, id)`` order, whether a handoff query built the index
    during the run or not."""
    sim = v2v_handoff_sim()
    n = sim.cfg.n_vehicles
    cap = sim.cfg.capacity.local_cu_s
    passes = capture_passes(sim.local)
    sim.run()
    assert len(passes) == 31
    for snap, pairs, ok, busy, role in passes:
        dst, src = eager_beacons(pairs, ok, n)
        assert len(src) == int(ok.sum()) > 0
        indptr = np.searchsorted(dst, np.arange(n + 1))
        for v in range(n):
            want = ranked(src[indptr[v]:indptr[v + 1]], snap.t_send, busy, role, cap)
            assert snap.senders(v).tolist() == want


def test_beacon_index_of_a_fleet_beyond_32_bit_pair_keys():
    """From 65,537 vehicles the packed pair keys need 64 bits; the index
    still gives integer sender ids, the eager senders and, first in each
    row, the least ``(backlog_cu, id)`` heard."""
    n = 70_000
    pairs = np.array([(0, 69_999), (65_536, 69_999), (3, 65_537), (12, 40_000), (3, 69_999)])
    ok = np.array([1, 1, 0, 1, 1, 1, 1, 0, 1, 1], dtype=bool)
    busy = np.zeros(n, dtype=np.int64)
    busy[[0, 3, 12, 65_536, 69_999]] = [4 * US, US, US, 2 * US, 3 * US]
    role = np.ones(n, dtype=np.int8)
    role[[12, 65_537]] = 0
    snap = BeaconSnapshot(0, 400, lambda: pack(pairs, n), ok, busy, role, 10.0)
    dst, src = eager_beacons(pairs, ok, n)
    for v in [*np.unique(pairs).tolist(), 1, n - 2]:
        heard = src[dst == v]
        got = snap.senders(v)
        assert got.dtype.kind == "i" and np.array_equal(np.sort(got), heard)
        assert got[:1].tolist() == ranked(heard, 0, busy, role, 10.0)[:1]


@pytest.mark.parametrize("n, dtype", [(65_536, np.uint32), (65_537, np.uint64)])
@pytest.mark.parametrize("lost", ["none", "all", "one_way"])
def test_beacon_index_at_the_pair_key_width_boundary(n, dtype, lost):
    """Up to 65,536 vehicles a pair key fits 32 bits, from 65,537 on it takes
    64.  On either side, with every beacon, no beacon or one direction of
    each pair delivered, the keys that ``form_pairs`` makes of a search
    unpack to its pairs, and the index gives the eager senders with, first in
    each row, the least ``(backlog_cu, id)`` heard."""
    pos = np.zeros((n, 2))
    pos[:, 0] = np.arange(n) * 10.0
    pos[[n - 2, n - 1, 6], 0] = 1.0, 2.0, 53.0  # near 0, 0 and 5
    keys = form_pairs(*pair_search(pos, 5.0))
    pairs = unpack(keys, n)
    assert keys.dtype == pack(pairs, n).dtype == dtype and np.array_equal(keys, pack(pairs, n))
    assert pairs.tolist() == [[0, n - 2], [0, n - 1], [5, 6], [n - 2, n - 1]]
    m = len(pairs)
    forward = {"none": [1] * m, "all": [0] * m, "one_way": [1, 0, 0, 1]}[lost]
    backward = {"none": [1] * m, "all": [0] * m, "one_way": [0, 1, 1, 0]}[lost]
    ok = np.array(forward + backward, dtype=bool)
    busy = np.zeros(n, dtype=np.int64)
    busy[[0, 5, 6, n - 2, n - 1]] = [3 * US, US, 2 * US, 4 * US, 5 * US]
    role = np.ones(n, dtype=np.int8)
    role[6] = 0
    snap = BeaconSnapshot(0, 400, lambda: keys, ok, busy, role, 10.0)
    dst, src = eager_beacons(pairs, ok, n)
    for v in [0, 1, 5, 6, n - 2, n - 1]:
        heard = src[dst == v]
        got = snap.senders(v)
        assert np.array_equal(np.sort(got), heard)
        assert got[:1].tolist() == ranked(heard, 0, busy, role, 10.0)[:1]


# The property test's LocalTwins: 10 CU/s on board and a 0.25 s handoff gap,
# as in the v2v_handoff digest scenario, and 3 s neighbour expiry.
CAP, GAP, EXPIRY = 10.0, 0.25, 3 * US
LATENCY = 400  # us from a beacon pass to its receipt
# Backlogs of k / 64 s (k * 15,625 us) are exact in binary, so a query's
# need can sit exactly at one.  Near 6.9e9 s, consecutive microseconds of
# backlog stay distinct but share a ranking key at 10 CU/s.
UNIT, HUGE = 15_625, 6_900_000_000_000_000


@functools.lru_cache(maxsize=None)
def property_twins():
    return Simulation(parse_scenario({
        "grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 3, "duration_s": 31,
        "capacity": {"local_cu_s": CAP}, "thresholds": {"handoff_gap_s": GAP,
                                                        "neighbor_expiry_s": EXPIRY / US}},
    )).local


def raw_pass(i, pairs, ok, backlog, role, huge=False):
    """Raw pass ``i`` (sent at i s): ``backlog[s]`` is sender ``s``'s queue
    in steps of UNIT us (a negative one emptied before the pass), or with
    ``huge`` in us above HUGE."""
    t_send = i * US
    busy = [t_send + (HUGE + b if huge else b * UNIT) for b in backlog]
    return (t_send, t_send + LATENCY, np.array(pairs, dtype=np.intp).reshape(-1, 2),
            np.array(ok, dtype=bool), np.array(busy, dtype=np.int64),
            np.array(role, dtype=np.int8))


def own_at(k):
    """Own backlog (CU) whose handoff need is exactly k / 64 s."""
    return (k / 64 + GAP) * CAP


@st.composite
def handoff_worlds(draw):
    """A few vehicles and 1-5 raw beacon passes, 1 s apart, a query time
    around some pass's receipt or expiry, and an own backlog."""
    n = draw(st.integers(2, 6))
    huge = draw(st.booleans())
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    passes = []
    for i in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
        m = len(chosen)
        passes.append(raw_pass(
            i, draw(st.permutations(chosen)),
            draw(st.lists(st.booleans(), min_size=2 * m, max_size=2 * m)),
            draw(st.lists(st.integers(-2, 12), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, len(ROLES) - 1), min_size=n, max_size=n)), huge))
    edges = [p[1] + d for p in passes for d in (-1, 0, 1, EXPIRY, EXPIRY + 1)]
    now = draw(st.one_of(st.sampled_from(edges), st.integers(0, 9 * US)))
    if huge:
        own = draw(st.sampled_from([0.0, 1e12]))
    else:
        own = draw(st.one_of(st.integers(0, 12).map(own_at), st.floats(0, 2 * CAP)))
    return passes, now, own


@settings(max_examples=300, deadline=None)
@given(handoff_worlds())
# vehicle 1 advertised an idle Processing role at 0 s, but at 1 s it relays
@example(([raw_pass(0, [(0, 1)], [1, 1], [0, 0], [1, 1]),
           raw_pass(1, [(0, 1)], [1, 1], [0, 0], [1, 2])], US + LATENCY, own_at(12)))
# ... or it is busy by then
@example(([raw_pass(0, [(0, 1), (0, 2)], [1] * 4, [0, 0, 3], [1, 1, 1]),
           raw_pass(1, [(0, 1)], [1, 1], [0, 5, 0], [1, 1, 1])], US + LATENCY, own_at(12)))
# equal ranking keys within a pass and across passes: the lowest id wins
@example(([raw_pass(0, [(0, 2), (0, 1), (1, 2)], [1] * 6, [0, 4, 4], [1, 1, 1])],
          LATENCY, own_at(12)))
@example(([raw_pass(0, [(0, 1), (0, 3)], [1] * 4, [0, 4, 0, 4], [1, 1, 1, 1]),
           raw_pass(1, [(0, 3)], [1, 1], [0, 0, 0, 4], [1, 1, 1, 1])], US + LATENCY, own_at(12)))
# need exactly at the only backlog on offer
@example(([raw_pass(0, [(0, 1)], [1, 1], [0, 4], [1, 1])], LATENCY, own_at(4)))
# distinct backlogs that share a ranking key: the lower id wins, not the
# smaller backlog
@example(([raw_pass(0, [(0, 1), (0, 2)], [1] * 4, [0, 2, 1], [1, 1, 1], huge=True)],
          LATENCY, 1e12))
# ... and a need between their backlogs: vehicle 2's backlog in seconds is
# below it, but its key / capacity, as NeighborTable tests it, is not
@example(([raw_pass(0, [(0, 1), (0, 2)], [1] * 4, [0, 2, 1], [1, 1, 1], huge=True)],
          LATENCY, (((HUGE + 2) / US + (HUGE + 1) / US) / 2 + GAP) * CAP))
def test_handoff_candidate_matches_neighbor_table(world):
    """On small random worlds, every vehicle's handoff answer from the
    query over beacon snapshots (some not yet heard, some expired)
    equals a NeighborTable fed, oldest first, every beacon it has heard."""
    passes, now, own = world
    local = property_twins()
    local.beacon_snapshots = [
        BeaconSnapshot(t, heard, functools.partial(pack, pairs, len(busy)), ok, busy, role, CAP)
        for t, heard, pairs, ok, busy, role in passes]
    n = len(passes[0][4])
    for v in range(n):
        table = NeighborTable(EXPIRY)
        for t_send, heard_at, pairs, ok, busy, role in passes:
            if heard_at > now:
                continue
            dst, src = eager_beacons(pairs, ok, n)
            for s in src[dst == v].tolist():
                backlog_cu = max(0, int(busy[s]) - t_send) / US * CAP
                table.observe(s, NeighborEntry(heard_at, (0.0, 0.0), 0.0,
                                               ROLES[role[s]], backlog_cu))
        assert local.handoff_candidate(v, now, own) == table.handoff_candidate(
            now, own, CAP, GAP)


def test_beacon_index_not_built_without_handoff_query(monkeypatch):
    """A run without handoffs draws every beacon's loss but forms no pair
    array and builds no neighbour index."""
    built, formed = [], []
    build, form = BeaconSnapshot._build_index, mobility.form_pairs

    def counted(snap):
        built.append(snap)
        build(snap)

    def counted_form(*found):
        formed.append(found)
        return form(*found)

    monkeypatch.setattr(BeaconSnapshot, "_build_index", counted)
    monkeypatch.setattr(mobility, "form_pairs", counted_form)
    monkeypatch.setattr(local_module, "form_pairs", counted_form)
    sim = Simulation(parse_scenario(copy.deepcopy(SCENARIOS["layered"])))
    queries = []
    runtime = sim.local.handoff_candidate
    sim.local.handoff_candidate = lambda *a: queries.append(a) or runtime(*a)
    sim.run()
    assert queries == []
    assert sim.local.beacon_snapshots
    assert built == [] and formed == []


def test_formed_pairs_are_those_of_the_pass_positions(monkeypatch):
    """On every beacon pass of the v2v_handoff digest scenario, the pairs
    its snapshot forms as keys, on a handoff lookup during the run or after
    it, unpack to ``pairs_within`` of a copy of the fleet's positions at the
    pass, though the tick has moved ``Fleet.pos`` in place since."""
    sim = v2v_handoff_sim()
    local = sim.local
    positions, passes = [], []
    search, beacon_pass = runner.pair_search, local.beacon_pass

    def recorded_search(pos, r):
        positions.append((pos.copy(), r))
        return search(pos, r)

    def recorded_pass(now, found):
        beacon_pass(now, found)
        snap = local.beacon_snapshots[-1]
        keys, *rest = snap.raw
        formed = []  # the keys formed during the run
        passes.append((keys, formed))
        snap.raw = (lambda: formed.append(keys()) or formed[-1], *rest)

    monkeypatch.setattr(runner, "pair_search", recorded_search)
    local.beacon_pass = recorded_pass
    sim.run()
    assert len(passes) == len(positions) == 31
    assert any(formed for _, formed in passes)
    assert not np.array_equal(positions[0][0], sim.fleet.pos)
    for (keys, formed), (pos, r) in zip(passes, positions):
        want = pairs_within(pos, r)
        assert len(want) > 0
        for got in [*formed, keys()]:
            assert got.dtype == np.uint32 and np.array_equal(unpack(got, len(pos)), want)


def test_every_task_settles_once_under_loss(monkeypatch):
    """Only one message carries a task at a time, so a task completes or is
    dropped once.  On v2r and v2v links that lose 30% and never retransmit,
    every task id settles exactly once, and every task has settled once the
    run drains."""
    settled, dropped_kinds = collections.Counter(), set()
    drop_task = local_module.drop_task

    def dropping(payload):
        settled[payload[-1].task_id] += 1
        dropped_kinds.add(payload[0])
        drop_task(payload)

    for module in (local_module, edge, cloud):
        monkeypatch.setattr(module, "drop_task", dropping)
    lossy = {"loss_prob": 0.3, "max_attempts": 1}
    sim = Simulation(parse_scenario({**copy.deepcopy(SCENARIOS["v2v_handoff"]),
                                     "links": {"v2r": lossy, "v2v": lossy}}))
    complete = sim.local.complete

    def completing(task):
        settled[task.task_id] += 1
        complete(task)

    sim.local.complete = completing
    result = sim.run()
    sim.engine.run_until(sim.cfg.duration_us + 3600 * US_PER_S)
    assert dropped_kinds == {"task", "handoff", "result"}
    assert result.completed > 0 and result.dropped > 0
    assert sorted(settled) == [r.task_id for r in result.records]
    assert set(settled.values()) == {1}
