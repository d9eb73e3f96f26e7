import json
import random

import pytest

from twinsim.cloud import (EpochRecord, KnowledgeGraph, PolicyBlueprint,
                           RegionEvolution, coordinate,
                           evaluate_epoch, mutate_blueprint)
from twinsim.edge import PARAM_RANGES, Policy, UplinkPackage


def bp(target=0, epoch=0, **overrides):
    return PolicyBlueprint(target=target, epoch=epoch, parent_id=None,
                           policy=Policy(**overrides))


def package(rsu_id, labels=("Normal",), utilization=0.2):
    return UplinkPackage(rsu_id, labels, utilization)


def lattice_graph():
    # 2x3 lattice adjacency (RSU ids 0..5)
    adjacency = {0: [1, 3], 1: [0, 2, 4], 2: [1, 5],
                 3: [0, 4], 4: [1, 3, 5], 5: [2, 4]}
    return KnowledgeGraph(list(range(6)), adjacency)


def test_ingest_latches_labels():
    graph = lattice_graph()
    graph.ingest(package(2, labels=("Overload",), utilization=0.95))
    assert graph.nodes[2].labels == ("Overload",)
    assert graph.nodes[2].utilization == pytest.approx(0.95)


def test_coordinate_pairs_overload_with_best_underloaded_neighbor():
    graph = lattice_graph()
    graph.ingest(package(1, labels=("Overload",), utilization=0.95))
    graph.ingest(package(0, labels=("Underload",), utilization=0.30))
    graph.ingest(package(2, labels=("Underload",), utilization=0.10))
    graph.ingest(package(4, labels=("Normal",), utilization=0.60))
    directives = coordinate(graph, {1: 0.25}, epoch=3, expires_at_us=90_000_000)
    assert len(directives) == 1
    d = directives[0]
    assert (d.from_rsu, d.to_rsu) == (1, 2)  # lowest utilization neighbor
    assert d.fraction == 0.25
    assert d.epoch == 3
    assert d.expires_at_us == 90_000_000


def test_coordinate_exclusive_partners():
    graph = lattice_graph()
    # 0 and 2 both overloaded; only shared underloaded neighbor is 1
    graph.ingest(package(0, labels=("Overload",), utilization=0.9))
    graph.ingest(package(2, labels=("Overload",), utilization=0.9))
    graph.ingest(package(1, labels=("Underload",), utilization=0.2))
    directives = coordinate(graph, {0: 0.2, 2: 0.2}, 1, 0)
    # lower rsu id claims the partner first
    assert [(d.from_rsu, d.to_rsu) for d in directives] == [(0, 1)]


def test_coordinate_no_eligible_partner():
    graph = lattice_graph()
    graph.ingest(package(0, labels=("Overload",), utilization=0.9))
    assert coordinate(graph, {0: 0.2}, 1, 0) == []


def test_evaluate_epoch_strict_tolerance():
    assert evaluate_epoch(100.0, 105.0) == "keep"       # exactly 1.05x
    assert evaluate_epoch(100.0, 105.0001) == "rollback"
    assert evaluate_epoch(100.0, 90.0) == "keep"
    assert evaluate_epoch(None, 500.0) == "keep"        # no baseline yet
    assert evaluate_epoch(100.0, None) == "keep"        # idle epoch


def test_mutation_round_robin_order():
    rng = random.Random(0)
    parent = bp()
    touched = []
    for epoch in range(1, 5):
        child = mutate_blueprint(parent, epoch, rng)
        diffs = [k for k in ("local_serve_threshold", "offload_fraction",
                             "congestion_speed_threshold", "role_quotas")
                 if getattr(child.policy, k) != getattr(parent.policy, k)]
        touched.append(diffs)
    assert touched == [["local_serve_threshold"], ["offload_fraction"],
                       ["congestion_speed_threshold"], ["role_quotas"]]


def test_mutation_respects_ranges_and_quota_sum():
    rng = random.Random(7)
    parent = bp()
    for epoch in range(1, 101):
        child = mutate_blueprint(parent, epoch, rng)
        lo, hi = PARAM_RANGES["local_serve_threshold"]
        assert lo <= child.policy.local_serve_threshold <= hi
        assert 0.0 <= child.policy.offload_fraction <= 1.0
        q = child.policy.role_quotas
        assert sum(q) == pytest.approx(1.0, abs=1e-9)
        assert all(x >= 0.05 - 1e-9 for x in q)
        parent = child


class FixedGauss:
    """A mutation ``rng`` whose every Gaussian draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def gauss(self, mu, sigma):
        return self.value


def test_mutation_quota_floor_staffs_processing():
    # acquisition 0.4 + 0.5 = 0.9 leaves 0.1, shared 1:5 as (0.0167, 0.0833):
    # processing is raised to its 0.05 floor at coordination's expense.
    # Default quotas never reach the floor, and a floor of 0.06 gives
    # (0.9, 0.06, 0.04), so only the exact triple pins it
    parent = PolicyBlueprint(0, 3, None, Policy(role_quotas=(0.4, 0.1, 0.5)))
    child = mutate_blueprint(parent, 4, FixedGauss(0.5))
    assert child.policy.role_quotas == (0.9, 0.05, 0.05)


def test_mutation_deterministic_under_seed():
    a = mutate_blueprint(bp(), 1, random.Random(5))
    b = mutate_blueprint(bp(), 1, random.Random(5))
    assert a == b


def test_blueprint_lineage_ids():
    parent = bp(target=3, epoch=2)
    child = mutate_blueprint(parent, 3, random.Random(0))
    assert parent.blueprint_id == "3:2"
    assert child.blueprint_id == "3:3"
    assert child.parent_id == "3:2"


def test_evolution_first_epoch_is_baseline():
    evo = RegionEvolution(bp())
    decision, active = evo.close_epoch(40_000.0)
    assert decision == "keep"
    assert active is evo.kept
    assert evo.kept_median_us == 40_000.0


def test_evolution_rollback_restores_parent_bit_exact():
    evo = RegionEvolution(bp())
    evo.close_epoch(40_000.0)
    parent = evo.kept
    evo.open_epoch(1, random.Random(3))
    decision, active = evo.close_epoch(90_000.0)  # far worse than 1.05x
    assert decision == "rollback"
    assert active is parent  # the very same frozen object, not a copy
    assert evo.kept_median_us == 40_000.0


def test_evolution_keep_adopts_candidate():
    evo = RegionEvolution(bp())
    evo.close_epoch(40_000.0)
    cand = evo.open_epoch(1, random.Random(3))
    decision, active = evo.close_epoch(39_000.0)
    assert decision == "keep"
    assert active is cand
    assert evo.kept_median_us == 39_000.0


def test_epoch_record_json():
    rec = EpochRecord(2, 1, bp(target=1, epoch=2), 41_500.0, 0.97, "keep")
    data = json.loads(rec.to_json())
    assert data["epoch"] == 2
    assert data["rsu"] == 1
    assert data["decision"] == "keep"
    assert data["blueprint"] == {
        "target": 1, "epoch": 2, "parent": None,
        "params": {"local_serve_threshold": 2.0, "offload_fraction": 0.2,
                   "congestion_speed_threshold": 6.0, "role_quotas": [0.4, 0.4, 0.2]}}
    # the bytes of one epochs.jsonl line
    assert rec.to_json() == (
        '{"epoch":2,"rsu":1,"blueprint":{"target":1,"epoch":2,"parent":null,"params":'
        '{"local_serve_threshold":2.0,"offload_fraction":0.2,"congestion_speed_threshold":6.0,'
        '"role_quotas":[0.4,0.4,0.2]}},"median_rt_us":41500.0,"autonomy":0.97,"decision":"keep"}')
