"""The benchmark's workloads, as scenario JSON objects for
``twinsim.scenario.parse_scenario``, and the path each one must keep
exercising.

Every workload is the default showcase (2x3 RSU grid, 1,200 vehicles,
layered mode) plus the overrides below.  The benchmark seed becomes the
scenario ``seed``; the simulated length is ``DURATION_S`` unless the caller
asks for another.
"""
from __future__ import annotations

import copy

# 60 s of simulated time keeps one child process at 3-5 s on a 2-core host,
# so a 25 s run holds several children, and it still spans two ES epochs and
# one cloud coordination round (t = 30 s).
DURATION_S = 60.0

WORKLOADS = {
    # 1 Hz status reports are most of the deliveries: tick and report path.
    "layered": {},
    # Every task relayed vehicle -> edge -> cloud -> edge -> vehicle.
    "cloud_only": {"mode": "cloud_only"},
    # Region 0 runs at 12x task rate: placement, edge FIFO, thinning,
    # overflow to the cloud, directives and the largest record set.
    "hotspot": {"hotspot": {"region": 0, "rate_multiplier": 12,
                            "t_start_s": 0, "t_end_s": 300}},
    # Slow on-board compute and a high serve threshold keep tasks local, so
    # queues build and V2V handoff to Processing-role neighbours fires.
    "v2v_handoff": {"capacity": {"local_cu_s": 10},
                    "policy": {"local_serve_threshold": 10},
                    "workload": {"task_rate_hz": 0.5},
                    "thresholds": {"handoff_gap_s": 0.25}},
}


def scenario(name: str, seed: int, duration_s: float) -> dict:
    """The scenario object of workload ``name`` at ``seed``."""
    data = copy.deepcopy(WORKLOADS[name])
    data["seed"] = seed
    data["duration_s"] = duration_s
    return data


def path_failures(name: str, counts: dict) -> list[str]:
    """Reasons why a run of ``name`` no longer reaches the layer it was
    chosen for.  ``counts`` holds the run's counters by metric name; a
    counter that a run did not measure is skipped."""
    failures = []

    def need(metric, ok, what):
        if metric in counts and not ok(counts[metric]):
            failures.append(f"{name}: {metric}={counts[metric]} ({what})")

    if name == "v2v_handoff":
        need("local.handoffs", lambda v: v > 0, "expected V2V handoffs")
    if name == "hotspot":
        need("cloud.directives", lambda v: v > 0, "expected offload directives")
    if name == "cloud_only":
        need("model.tasks.completed", lambda v: v > 0, "expected completions")
        need("model.tiers.below_cloud", lambda v: v == 0,
             "expected every completed task on the Cloud tier")
    return failures
