"""Per-task lifecycle records, run summaries, and the two ecosystem index
series (edge autonomy and population coordination) over fixed windows.

A ``TaskRecord`` is the task itself: the twins pass it between each other
and set its tier when a tier serves it and its completion or drop when it
settles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .kernel import US_PER_S

TIERS = ("Local", "Edge", "PartnerEdge", "Cloud")
BELOW_CLOUD = ("Local", "Edge", "PartnerEdge")
# below the cloud tier: code < TIER_CODES["Cloud"]; None: not served
TIER_CODES = {**{t: i for i, t in enumerate(TIERS)}, None: len(TIERS)}


@dataclass(slots=True)
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
    cost_cu: float = 0.0

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
    """Distribution summary over completed records plus drop accounting:
    None for the response times if no task completed, drop rate 0 for no
    records."""
    rts = [r.rt_us for r in records if r.completed_us is not None]
    counts = {t: 0 for t in TIERS}
    dropped = 0
    for r in records:
        if r.tier in counts and r.completed_us is not None:
            counts[r.tier] += 1
        if r.dropped:
            dropped += 1
    return {
        "n_completed": len(rts),
        "median_us": median(rts) if rts else None,
        "p95_us": nearest_rank(rts, 0.95) if rts else None,
        "iqr_us": nearest_rank(rts, 0.75) - nearest_rank(rts, 0.25) if rts else None,
        "drop_rate": dropped / max(1, len(records)),
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
    n = len(records)
    # per record: its completion time (0: none), the time of its arrival at
    # an overloaded edge (-1: none) and its tier's code
    done = np.fromiter((r.completed_us or 0 for r in records), np.int64, n)
    hot = np.fromiter((r.edge_arrival_us if r.overloaded_at_arrival
                       and r.edge_arrival_us is not None else -1 for r in records), np.int64, n)
    tier = np.fromiter(map(TIER_CODES.__getitem__, map(attrgetter("tier"), records)),
                       np.int8, n)[done > 0]
    done_w = np.minimum(n_windows - 1, (done[done > 0] - 1) // window_us)

    def per_window(w):
        return np.bincount(w, minlength=n_windows).tolist()

    completed_total = per_window(done_w)
    completed_below = per_window(done_w[tier < TIER_CODES["Cloud"]])
    partner_done = per_window(done_w[tier == TIER_CODES["PartnerEdge"]])
    overload_arrivals = per_window(np.clip((hot[hot >= 0] - 1) // window_us, 0, n_windows - 1))

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
    would write it: no field needs quoting, and None is an empty field.  The
    tier, the completion time and the response time are written only on
    completed rows.  ``records`` come in id order, which is that order: ids
    are issued in event order."""
    lines = [",".join(TASKS_HEADER) + "\n"]
    for r in records:
        done = r.completed_us is not None
        lines.append(f"{r.task_id},{r.origin},{r.created_us},"
                     f"{r.completed_us if done else ''},{r.tier if done else ''},"
                     f"{r.completed_us - r.created_us if done else ''},"
                     f"{1 if r.dropped else 0}\n")
    return "".join(lines)


def indices_csv(series: IndexSeries) -> str:
    """One row per window, as ``csv.writer`` would write it."""
    rows = zip(series.window_end_us, series.autonomy, series.coordination)
    return "".join([",".join(INDICES_HEADER) + "\n",
                    *(f"{t},{a:.6f},{c:.6f}\n" for t, a, c in rows)])
