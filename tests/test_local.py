import copy

import numpy as np
import pytest

from twinsim.edge import ROLES
from twinsim.local import decide_local
from twinsim.runner import Simulation
from twinsim.scenario import parse_scenario

from oracles import NeighborEntry, NeighborTable, channel_quality
from test_digests import SCENARIOS

US = 1_000_000


def test_channel_quality_linear_and_clipped():
    assert channel_quality(0.0, 600.0) == 1.0
    assert channel_quality(300.0, 600.0) == pytest.approx(0.5)
    assert channel_quality(600.0, 600.0) == 0.0
    assert channel_quality(900.0, 600.0) == 0.0


def test_channel_quality_matches_runner_cq_buf():
    """Each tick's sensed channel quality is the oracle's value for the
    distance to the serving RSU, for every vehicle."""
    sim = Simulation(parse_scenario({"seed": 0, "duration_s": 31.0,
                                     "vehicles_per_rsu": 20}))
    sense = sim._sense
    checked = 0

    def checked_sense(now):
        nonlocal checked
        sense(now)
        slot = (sim._tick_index - 1) % sim.sense_slots
        for v, rsu in enumerate(sim.current_rsu.tolist()):
            d = float(np.linalg.norm(sim.fleet.pos[v] - sim.rsu_pos[rsu]))
            assert sim.cq_buf[v, slot] == channel_quality(d, sim.rsu_radii[rsu])
            checked += 1

    sim._sense = checked_sense
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


def test_neighbor_table_matches_runner_handoff_candidate():
    """On every handoff query of the v2v_handoff digest scenario, the
    runner's answer from its beacon snapshots equals that of a NeighborTable
    fed, oldest first, every beacon the vehicle has heard by then."""
    sim = Simulation(parse_scenario(copy.deepcopy(SCENARIOS["v2v_handoff"])))
    cap = sim.cfg.capacity.local_cu_s
    gap = sim.cfg.thresholds.handoff_gap_s
    runtime = sim._handoff_candidate
    answers, mismatches = [], []

    def checked(v, now, own_backlog_cu):
        got = runtime(v, now, own_backlog_cu)
        table = NeighborTable(sim._neighbor_expiry_us)
        for t_send, heard_at, dst, src, busy, role in sim._beacon_snapshots:
            if heard_at > now:
                continue
            for s in src[dst == v].tolist():
                backlog_cu = max(0, int(busy[s]) - t_send) / US * cap
                # position and speed are not part of the handoff rule
                table.observe(s, NeighborEntry(heard_at, (0.0, 0.0), 0.0,
                                               ROLES[role[s]], backlog_cu))
        want = table.handoff_candidate(now, own_backlog_cu, cap, gap)
        if got != want:
            mismatches.append((v, now, got, want))
        answers.append(got)
        return got

    sim._handoff_candidate = checked
    sim.run()
    assert mismatches == []
    assert sum(a is not None for a in answers) > 0
