import csv
import io
import random

import pytest

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


def _csv_writer_tasks(records):
    """The csv.writer form of tasks.csv that tasks_csv must reproduce."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TASKS_HEADER)
    for r in sorted(records, key=lambda r: (r.created_us, r.task_id)):
        w.writerow([r.task_id, r.origin, r.created_us,
                    r.completed_us if r.completed_us is not None else "",
                    r.tier or "", r.rt_us if r.rt_us is not None else "",
                    1 if r.dropped else 0])
    return buf.getvalue()


def test_tasks_csv_matches_csv_writer():
    rng = random.Random(5)
    records = []
    for i in rng.sample(range(400), 400):  # shuffled ids, many created_us ties
        created = rng.randrange(0, 50) * 1000
        rec = TaskRecord(i, rng.randrange(30), created)
        kind = rng.randrange(3)
        if kind == 0:
            rec.completed_us = created + rng.randrange(1, 10**7)
            rec.tier = rng.choice(TIERS)
        elif kind == 1:
            rec.dropped = True
        records.append(rec)
    assert tasks_csv(records) == _csv_writer_tasks(records)


def test_tasks_csv_shape():
    records = [
        done(1, 100, 5000, tier="Local", origin=3),
        TaskRecord(0, 2, 50, dropped=True),
        TaskRecord(2, 1, 200),  # still in flight: blank completion fields
    ]
    text = tasks_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "task_id,origin,created_us,completed_us,tier,rt_us,dropped"
    # sorted by (created_us, task_id)
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
