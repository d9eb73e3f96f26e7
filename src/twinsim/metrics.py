"""Per-task lifecycle records, run summaries, and the two ecosystem index
series (edge autonomy and population coordination) over fixed windows.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import attrgetter

US_PER_S = 1_000_000

TIERS = ("Local", "Edge", "PartnerEdge", "Cloud")
BELOW_CLOUD = ("Local", "Edge", "PartnerEdge")


@dataclass
class TaskRecord:
    task_id: int
    origin: int
    created_us: int
    completed_us: int | None = None
    tier: str | None = None
    dropped: bool = False
    origin_rsu: int = -1
    edge_arrival_us: int | None = None
    overloaded_at_arrival: bool = False

    @property
    def rt_us(self) -> int | None:
        if self.completed_us is None:
            return None
        return self.completed_us - self.created_us


def median(values: list[float]) -> float:
    """Midpoint-average median (even n averages the two central values)."""
    if not values:
        raise ValueError("median of empty list")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    if n % 2:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: value at index ceil(q*n), 1-based."""
    if not values:
        raise ValueError("percentile of empty list")
    s = sorted(values)
    idx = max(1, math.ceil(q * len(s)))
    return float(s[idx - 1])


def summarize(records: list[TaskRecord]) -> dict:
    """Distribution summary over completed records plus drop accounting."""
    rts = [r.rt_us for r in records if r.completed_us is not None]
    if not rts:
        raise ValueError("no completed task records")
    counts = {t: 0 for t in TIERS}
    dropped = 0
    for r in records:
        if r.tier in counts and r.completed_us is not None:
            counts[r.tier] += 1
        if r.dropped:
            dropped += 1
    return {
        "n_completed": len(rts),
        "median_us": median(rts),
        "p95_us": nearest_rank(rts, 0.95),
        "iqr_us": nearest_rank(rts, 0.75) - nearest_rank(rts, 0.25),
        "drop_rate": dropped / len(records),
        "tier_counts": counts,
    }


@dataclass
class IndexSeries:
    window_end_us: list[int] = field(default_factory=list)
    autonomy: list[float] = field(default_factory=list)
    coordination: list[float] = field(default_factory=list)


def build_index_series(
    records: list[TaskRecord],
    duration_us: int,
    window_us: int = 10 * US_PER_S,
) -> IndexSeries:
    """Windowed autonomy A(w) and coordination C(w).

    A(w): completions below the cloud tier / all completions in the window;
    an empty window carries the previous value (first defaults to 0).
    C(w): PartnerEdge completions / task arrivals at overload-labeled edges;
    windows without overload arrivals carry the previous value (first 0), so
    the series starts at its quiescent floor and rises when cloud-brokered
    absorption actually happens.
    """
    n_windows = duration_us // window_us
    completed_total = [0] * n_windows
    completed_below = [0] * n_windows
    partner_done = [0] * n_windows
    overload_arrivals = [0] * n_windows

    for r in records:
        if r.completed_us is not None and r.completed_us > 0:
            w = min(n_windows - 1, (r.completed_us - 1) // window_us)
            completed_total[w] += 1
            if r.tier in BELOW_CLOUD:
                completed_below[w] += 1
            if r.tier == "PartnerEdge":
                partner_done[w] += 1
        if r.edge_arrival_us is not None and r.overloaded_at_arrival:
            w = min(n_windows - 1, max(0, (r.edge_arrival_us - 1) // window_us))
            overload_arrivals[w] += 1

    series = IndexSeries()
    a_prev = 0.0
    c_prev = 0.0
    for w in range(n_windows):
        if completed_total[w]:
            a_prev = completed_below[w] / completed_total[w]
        if overload_arrivals[w]:
            c_prev = min(1.0, partner_done[w] / overload_arrivals[w])
        series.window_end_us.append((w + 1) * window_us)
        series.autonomy.append(a_prev)
        series.coordination.append(c_prev)
    return series


# -- run artifacts ---------------------------------------------------------

TASKS_HEADER = ["task_id", "origin", "created_us", "completed_us", "tier", "rt_us", "dropped"]
INDICES_HEADER = ["window_end_us", "autonomy", "coordination"]


def tasks_csv(records: list[TaskRecord]) -> str:
    """One row per record in (created_us, task_id) order, as ``csv.writer``
    would write it: no field needs quoting, and None is an empty field."""
    rows = sorted(records, key=attrgetter("task_id"))
    rows.sort(key=attrgetter("created_us"))  # stable: ties stay in task_id order
    lines = [",".join(TASKS_HEADER) + "\n"]
    for r in rows:
        done = r.completed_us is not None
        lines.append(f"{r.task_id},{r.origin},{r.created_us},"
                     f"{r.completed_us if done else ''},{r.tier or ''},"
                     f"{r.completed_us - r.created_us if done else ''},"
                     f"{1 if r.dropped else 0}\n")
    return "".join(lines)


def indices_csv(series: IndexSeries) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(INDICES_HEADER)
    for t, a, c in zip(series.window_end_us, series.autonomy, series.coordination):
        w.writerow([t, f"{a:.6f}", f"{c:.6f}"])
    return buf.getvalue()
