import copy

import numpy as np
import pytest

from twinsim.edge import ROLES
from twinsim.local import BeaconSnapshot, decide_local
from twinsim.runner import Simulation
from twinsim.scenario import parse_scenario

from oracles import NeighborEntry, NeighborTable, channel_quality, eager_beacons
from test_digests import SCENARIOS

US = 1_000_000


def test_channel_quality_linear_and_clipped():
    assert channel_quality(0.0, 600.0) == 1.0
    assert channel_quality(300.0, 600.0) == pytest.approx(0.5)
    assert channel_quality(600.0, 600.0) == 0.0
    assert channel_quality(900.0, 600.0) == 0.0


def test_channel_quality_matches_local_cq_buf():
    """Each tick's sensed channel quality is the oracle's value for the
    distance to the serving RSU, for every vehicle."""
    sim = Simulation(parse_scenario({"seed": 0, "duration_s": 31.0,
                                     "vehicles_per_rsu": 20}))
    local = sim.local
    sense = local.sense
    checked = 0

    def checked_sense(tick, d_rel):
        nonlocal checked
        sense(tick, d_rel)
        slot = (tick - 1) % local.sense_slots
        for v, rsu in enumerate(sim.current_rsu.tolist()):
            d = float(np.linalg.norm(sim.fleet.pos[v] - sim.rsu_pos[rsu]))
            assert local.cq_buf[v, slot] == channel_quality(d, sim.rsu_radii[rsu])
            checked += 1

    local.sense = checked_sense
    sim.run()
    assert checked == 310 * sim.cfg.n_vehicles


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
    eager = {}  # id(snapshot) -> (snapshot, dst, src)
    answers, mismatches = [], []

    def checked(v, now, own_backlog_cu):
        got = runtime(v, now, own_backlog_cu)
        table = NeighborTable(local.neighbor_expiry_us)
        for snap in local.beacon_snapshots:
            if snap.heard_at > now:
                continue
            if id(snap) not in eager:
                eager[id(snap)] = (snap, *eager_beacons(snap.pairs, snap.ok, n))
            _, dst, src = eager[id(snap)]
            for s in src[dst == v].tolist():
                backlog_cu = max(0, int(snap.busy[s]) - snap.t_send) / US * cap
                # position and speed are not part of the handoff rule
                table.observe(s, NeighborEntry(snap.heard_at, (0.0, 0.0), 0.0,
                                               ROLES[snap.role[s]], backlog_cu))
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
    receiver's senders from the lazily built index equal the eager oracle's,
    whether a handoff query built the index during the run or not."""
    sim = v2v_handoff_sim()
    local = sim.local
    n = sim.cfg.n_vehicles
    beacon_pass = local.beacon_pass
    snapshots = []

    def recorded(now, pairs):
        before = local.beacon_snapshots[-1] if local.beacon_snapshots else None
        beacon_pass(now, pairs)
        if local.beacon_snapshots and local.beacon_snapshots[-1] is not before:
            snapshots.append(local.beacon_snapshots[-1])

    local.beacon_pass = recorded
    sim.run()
    assert len(snapshots) == 31
    for snap in snapshots:
        dst, src = eager_beacons(snap.pairs, snap.ok, n)
        assert len(src) == int(snap.ok.sum()) > 0
        indptr = np.searchsorted(dst, np.arange(n + 1))
        for v in range(n):
            assert np.array_equal(snap.senders(v), src[indptr[v]:indptr[v + 1]])


def test_beacon_index_not_built_without_handoff_query(monkeypatch):
    """A run without handoffs draws every beacon's loss but builds no
    neighbour index."""
    built = []
    build = BeaconSnapshot._build_index

    def counted(snap):
        built.append(snap)
        build(snap)

    monkeypatch.setattr(BeaconSnapshot, "_build_index", counted)
    sim = Simulation(parse_scenario(copy.deepcopy(SCENARIOS["layered"])))
    queries = []
    runtime = sim.local.handoff_candidate
    sim.local.handoff_candidate = lambda *a: queries.append(a) or runtime(*a)
    sim.run()
    assert queries == []
    assert sim.local.beacon_snapshots
    assert built == []
