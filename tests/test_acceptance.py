"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the status lines print even
under output capture).  The heavy seed sweeps are shared via the
session-scoped `showcase_runs` fixture.
"""
import hashlib
import random

from twinsim.cloud import PolicyBlueprint, RegionEvolution
from twinsim.edge import Policy, ThinningCounter, largest_remainder_seats
from twinsim.kernel import Engine
from twinsim.mobility import build_grid
from twinsim.runner import run_showcase
from twinsim.scenario import ScenarioConfig, parse_scenario

from conftest import SEEDS
from test_properties import count_switches

US = 1_000_000

# tolerances / thresholds pinned up front
MEDIAN_RATIO_MAX = 0.6
MIN_SEEDS_CRIT1 = 9
AUTONOMY_GROWTH_MIN = 0.05
MIN_SEEDS_CRIT2 = 8
WALL_LIMIT_S = 60.0
CLOUD_RT_FLOOR_US = 60_000


def _report(capsys, label, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[acceptance] {label} {name}: {status}{suffix}")
    return ok


def test_criterion_1_latency_and_variance(showcase_runs, capsys):
    """Layered beats the cloud-centric baseline on median and IQR."""
    wins = 0
    walls = []
    for seed in SEEDS:
        a = showcase_runs["layered"][seed]["stats"]
        b = showcase_runs["cloud_only"][seed]["stats"]
        walls += [showcase_runs["layered"][seed]["wall_s"],
                  showcase_runs["cloud_only"][seed]["wall_s"]]
        if (a["median_us"] < MEDIAN_RATIO_MAX * b["median_us"]
                and a["iqr_us"] < b["iqr_us"]):
            wins += 1
    wall_ok = max(walls) < WALL_LIMIT_S
    ok = wins >= MIN_SEEDS_CRIT1 and wall_ok
    _report(capsys, "criterion 1", "latency/variance vs baseline", ok,
            f"{wins}/10 seeds, max wall {max(walls):.1f}s")
    assert wins >= MIN_SEEDS_CRIT1
    assert wall_ok


def test_criterion_2_autonomy_growth_and_coordination(showcase_runs, capsys):
    """Hotspot runs show autonomy growth and a coordination rise."""
    autonomy_wins = 0
    coordination_wins = 0
    for seed in SEEDS:
        run = showcase_runs["hotspot"][seed]
        a = run["autonomy"]
        first = sum(a[:3]) / 3   # first 30 s (three 10 s windows)
        last = sum(a[-3:]) / 3
        if last - first >= AUTONOMY_GROWTH_MIN:
            autonomy_wins += 1
        c = run["coordination"]
        pre = sum(c[:3]) / 3     # before the first epoch boundary
        post = sum(c[3:]) / len(c[3:])
        if post > pre:
            coordination_wins += 1
    ok = autonomy_wins >= MIN_SEEDS_CRIT2 and coordination_wins >= MIN_SEEDS_CRIT2
    _report(capsys, "criterion 2", "autonomy growth + coordination rise", ok,
            f"autonomy {autonomy_wins}/10, coordination {coordination_wins}/10")
    assert autonomy_wins >= MIN_SEEDS_CRIT2
    assert coordination_wins >= MIN_SEEDS_CRIT2


def test_criterion_3_determinism(capsys, tmp_path):
    """Identical scenario + seed reproduce byte-identical artifacts."""
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        run_showcase(ScenarioConfig(seed=0), outdir=out)
        digests.append({
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("tasks.csv", "indices.csv", "epochs.jsonl")
        })
    ok = digests[0] == digests[1]
    _report(capsys, "criterion 3", "byte-identical reruns", ok,
            "sha256 over tasks/indices/epochs")
    assert ok


def test_criterion_4_conservation(showcase_runs, capsys):
    """generated = completed + dropped + in-flight, every run; message
    counters balance the same way."""
    violations = 0
    for mode in showcase_runs:
        for seed, run in showcase_runs[mode].items():
            if run["generated"] != run["completed"] + run["dropped"] + run["in_flight"]:
                violations += 1
            if run["in_flight"] < 0:
                violations += 1
            sent, delivered, dropped, in_flight = run["messages"]
            if sent != delivered + dropped + in_flight or in_flight < 0:
                violations += 1
    ok = violations == 0
    _report(capsys, "criterion 4", "conservation over all runs", ok,
            f"{violations} violations across 30 runs")
    assert violations == 0


def test_criterion_5_hand_trace_oracle(capsys):
    """Micro-scenario completion times match the hand arithmetic exactly."""
    cfg = parse_scenario({
        "grid": {"rows": 1, "cols": 1},
        "vehicles_per_rsu": 2,
        "duration_s": 31.0,
        "links": {"v2r": {"loss_prob": 0.0}, "v2v": {"loss_prob": 0.0}},
        "workload": {"task_rate_hz": 0.0},
        "scripted_tasks": [
            {"device": 0, "at_s": 1.0, "cost_cu": 2.0},
            {"device": 1, "at_s": 1.5, "cost_cu": 5.0},
            {"device": 1, "at_s": 2.0, "cost_cu": 8.0},
        ],
    })
    res = run_showcase(cfg)
    got = {r.task_id: r.completed_us for r in res.records}
    # local: 1 s + 2 CU / 50 CU/s
    # edge:  up 5200 us, FIFO service cost/1000 CU/s, down 5100 us
    expected = {
        0: 1 * US + 40_000,
        1: 1_500_000 + 5_200 + 5_000 + 5_100,
        2: 2_000_000 + 5_200 + 8_000 + 5_100,
    }
    ok = got == expected
    _report(capsys, "criterion 5", "hand-trace oracle to the microsecond", ok,
            f"got {got}")
    assert got == expected


def test_criterion_6_property_invariants(capsys):
    """Deterministic spot versions of the property suite (the full
    randomized suite lives in test_properties.py)."""
    checks = []

    rng = random.Random(1)
    xs = [500.0 + rng.uniform(-10.0, 10.0) for _ in range(100)]
    checks.append(count_switches(build_grid(1, 2, 1000.0, 600.0), xs) <= 1)

    seats = largest_remainder_seats((0.5, 0.3, 0.2), 5)
    checks.append(seats == (3, 1, 1) and sum(seats) == 5)

    c = ThinningCounter()
    checks.append(sum(c.take(0.3) for _ in range(1000)) == 300)

    parent = PolicyBlueprint(0, 0, None, Policy(2.0, 0.2, 6.0, (0.4, 0.4, 0.2)))
    evo = RegionEvolution(parent)
    evo.close_epoch(30_000.0)
    evo.open_epoch(1, random.Random(0))
    _, active = evo.close_epoch(1e9)
    checks.append(active is parent)

    eng = Engine()
    fired = []
    for seq, t in enumerate([5, 3, 5, 1]):  # a fresh engine's event ids
        eng.schedule(t, lambda seq: fired.append((eng.now, seq)), seq)
    eng.run_until(10)
    checks.append(fired == sorted(fired) and len(fired) == 4)

    ok = all(checks)
    _report(capsys, "criterion 6", "property invariants", ok,
            f"{sum(checks)}/{len(checks)} checks")
    assert ok


def test_criterion_7_baseline_sanity(showcase_runs, capsys):
    """cloud_only: autonomy identically 0 and every RT above the analytic
    floor, across all seeds."""
    exceptions = 0
    for seed in SEEDS:
        run = showcase_runs["cloud_only"][seed]
        if any(a != 0.0 for a in run["autonomy"]):
            exceptions += 1
        if run["min_rt_us"] is not None and run["min_rt_us"] < CLOUD_RT_FLOOR_US:
            exceptions += 1
        if run["tiers"] - {"Cloud"}:
            exceptions += 1
    ok = exceptions == 0
    _report(capsys, "criterion 7", "baseline sanity (A=0, RT floor)", ok,
            f"{exceptions} exceptions over 10 seeds")
    assert exceptions == 0


def test_directive_legality_audit(showcase_runs, capsys):
    """Replay audit: every directive issued in the hotspot sweeps paired an
    Overload-labeled region with an Underload-labeled partner."""
    bad = 0
    total = 0
    for seed in SEEDS:
        for from_labels, to_labels, fraction in showcase_runs["hotspot"][seed]["directives"]:
            total += 1
            if "Overload" not in from_labels or "Underload" not in to_labels:
                bad += 1
            if not 0.0 <= fraction <= 1.0:
                bad += 1
    ok = bad == 0 and total > 0
    _report(capsys, "audit", "directive legality replay", ok,
            f"{total} directives audited")
    assert ok
