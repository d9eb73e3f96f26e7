"""Per-vehicle local twin: task placement.

Sensing runs at 100 ms cadence.  A status report goes up every second with
the mean speed of the last 1 s window, the last channel quality, the road
segment and the local queue backlog, plus immediately on an RSU handover or
when the local queue backlog exceeds the trigger threshold.  The simulation
runner computes sensing, reports and V2V beacons over its per-vehicle
arrays; the scalar models of channel quality and of the neighbour table
that those arrays stand in for live in tests/oracles.py, where the tests
check the runner against them.
"""
from __future__ import annotations


def decide_local(cost_cu: float, local_serve_threshold: float, backlog_cu: float,
                 local_capacity_cu_s: float, backlog_limit_s: float = 2.0) -> str:
    """Pure placement rule: 'local' iff the task's cost is below the policy
    threshold and the local queue is short enough, else 'edge'."""
    if (
        cost_cu <= local_serve_threshold
        and backlog_cu / local_capacity_cu_s <= backlog_limit_s
    ):
        return "local"
    return "edge"
