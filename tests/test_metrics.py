import csv
import io
import random

import pytest

import oracles
from twinsim.metrics import (TASKS_HEADER, TIERS, TaskRecord, build_index_series,
                             indices_csv, median, nearest_rank, summarize, tasks_csv)

US = 1_000_000


def done(task_id, created, completed, tier="Edge", origin=0, **kw):
    return TaskRecord(task_id, origin, created, completed_us=completed,
                      tier=tier, **kw)


def test_median_midpoint_even():
    assert median([10, 20, 30, 40]) == 25.0
    assert median([10, 20, 30]) == 20.0
    assert median([7]) == 7.0


def test_nearest_rank_quantiles():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 0.95) == 95
    assert nearest_rank(values, 0.75) == 75
    assert nearest_rank(values, 0.25) == 25
    # ceil(0.95 * 10) = 10th of 10
    assert nearest_rank([float(i) for i in range(1, 11)], 0.95) == 10.0


def test_summarize_oracle():
    records = [done(i, 0, rt * 1000) for i, rt in enumerate([10, 20, 30, 40])]
    records.append(TaskRecord(4, 0, 0, dropped=True))
    s = summarize(records)
    assert s["n_completed"] == 4
    assert s["median_us"] == 25_000.0
    assert s["p95_us"] == 40_000.0
    # nearest-rank p75 = 30, p25 = 10
    assert s["iqr_us"] == 20_000.0
    assert s["drop_rate"] == pytest.approx(1 / 5)
    assert s["tier_counts"]["Edge"] == 4
    assert s["tier_counts"]["Cloud"] == 0


def test_summarize_without_completions():
    """No completed task: None for every response time and zero tier
    counts; no records at all: drop rate 0."""
    none_done = [TaskRecord(0, 0, 0, dropped=True), TaskRecord(1, 0, 0, tier="Edge")]
    for records, drop_rate in [(none_done, 0.5), ([], 0.0)]:
        assert summarize(records) == {
            "n_completed": 0, "median_us": None, "p95_us": None, "iqr_us": None,
            "drop_rate": drop_rate, "tier_counts": dict.fromkeys(TIERS, 0)}


def test_autonomy_series_carry_forward():
    records = [
        done(0, 0, 5 * US, tier="Local"),
        done(1, 0, 5 * US, tier="Cloud"),
        # nothing completes in window 2 (10..20 s)
        done(2, 0, 25 * US, tier="Edge"),
    ]
    series = build_index_series(records, 30 * US, 10 * US)
    assert series.window_end_us == [10 * US, 20 * US, 30 * US]
    assert series.autonomy == pytest.approx([0.5, 0.5, 1.0])


def test_autonomy_starts_at_zero_when_quiet():
    series = build_index_series([], 20 * US, 10 * US)
    assert series.autonomy == [0.0, 0.0]
    assert series.coordination == [0.0, 0.0]


def test_coordination_series_counts_overload_absorption():
    records = [
        # window 1: 4 arrivals at an overloaded edge, 1 absorbed by a partner
        done(0, 0, 2 * US, tier="PartnerEdge",
             edge_arrival_us=1 * US, overloaded_at_arrival=True),
        done(1, 0, 2 * US, tier="Edge",
             edge_arrival_us=1 * US, overloaded_at_arrival=True),
        done(2, 0, 2 * US, tier="Cloud",
             edge_arrival_us=2 * US, overloaded_at_arrival=True),
        done(3, 0, 2 * US, tier="Edge",
             edge_arrival_us=2 * US, overloaded_at_arrival=True),
        # window 2: no overload arrivals -> carries forward
    ]
    series = build_index_series(records, 20 * US, 10 * US)
    assert series.coordination == pytest.approx([0.25, 0.25])


def test_coordination_capped_at_one():
    # partner completions can land in a later window than their arrivals
    records = [
        done(0, 0, 2 * US, tier="PartnerEdge",
             edge_arrival_us=1 * US, overloaded_at_arrival=True),
        done(1, 0, 3 * US, tier="PartnerEdge",
             edge_arrival_us=1 * US, overloaded_at_arrival=False),
    ]
    series = build_index_series(records, 10 * US, 10 * US)
    assert series.coordination == [1.0]


def test_index_series_matches_per_record_oracle():
    # completions and overload arrivals at 0, on window edges, inside
    # windows and past the last window, on every tier and none
    rng = random.Random(5)
    edges = [0, 1, 10 * US - 1, 10 * US, 10 * US + 1, 30 * US, 35 * US]
    records = []
    for i in range(3000):
        completed = rng.choice([None, *edges, rng.randrange(40 * US)])
        arrival = rng.choice([None, *edges, rng.randrange(40 * US)])
        records.append(TaskRecord(i, 0, 0, completed_us=completed,
                                  tier=rng.choice([None, *TIERS]),
                                  edge_arrival_us=arrival,
                                  overloaded_at_arrival=rng.random() < 0.5))
    for duration, window in ((30 * US, 10 * US), (35 * US, 10 * US), (30 * US, 30 * US)):
        series = build_index_series(records, duration, window)
        assert (series.window_end_us, series.autonomy, series.coordination) == \
            oracles.index_series(records, duration, window)


def _csv_writer_tasks(records):
    """The csv.writer form of tasks.csv that tasks_csv must reproduce: the
    tier of a task that was served but never completed stays blank."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TASKS_HEADER)
    for r in sorted(records, key=lambda r: (r.created_us, r.task_id)):
        done = r.completed_us is not None
        w.writerow([r.task_id, r.origin, r.created_us,
                    r.completed_us if done else "",
                    r.tier if done else "", r.rt_us if done else "",
                    1 if r.dropped else 0])
    return buf.getvalue()


def test_tasks_csv_matches_csv_writer():
    rng = random.Random(5)
    records = []
    # in id order, as a run issues them, with many created_us ties
    created_us = sorted(rng.randrange(0, 50) * 1000 for _ in range(400))
    for i, created in enumerate(created_us):
        rec = TaskRecord(i, rng.randrange(30), created)
        kind = rng.randrange(3)
        if rng.randrange(2):
            rec.tier = rng.choice(TIERS)  # served
        if kind == 0:
            rec.completed_us = created + rng.randrange(1, 10**7)
            rec.tier = rng.choice(TIERS)
        elif kind == 1:
            rec.dropped = True
        records.append(rec)
    assert any(r.tier and r.completed_us is None for r in records)
    assert tasks_csv(records) == _csv_writer_tasks(records)


def test_tasks_csv_shape():
    records = [
        TaskRecord(0, 2, 50, dropped=True),
        done(1, 100, 5000, tier="Local", origin=3),
        TaskRecord(2, 1, 200),  # still in flight: blank completion fields
    ]
    text = tasks_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "task_id,origin,created_us,completed_us,tier,rt_us,dropped"
    # in id order, which is (created_us, task_id) order
    assert lines[1] == "0,2,50,,,,1"
    assert lines[2] == "1,3,100,5000,Local,4900,0"
    assert lines[3] == "2,1,200,,,,0"


def test_indices_csv_format():
    series = build_index_series(
        [done(0, 0, 5 * US, tier="Local")], 10 * US, 10 * US)
    text = indices_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "window_end_us,autonomy,coordination"
    assert lines[1] == "10000000,1.000000,0.000000"
