"""twinsim benchmark: run one workload as batch simulations, one fresh
process at a time, for a fixed measuring time, check every run's outputs
and print the metrics.

    python3 perfbench/run.py --workload layered --seed 0 --seconds 25 --trace 0

Run it from anywhere inside a checkout; the simulator is imported from the
checkout's ``src``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end times (medians over the runs,
in seconds at nominal host speed); with ``--trace 1`` untraced and traced
runs alternate and the metrics are the per-layer breakdown of the traced
ones.  See ``NOTES.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
MIN_RUNS = 2
# One thread per BLAS/OpenMP pool, so a child uses one core and runs do not
# depend on how many cores the host has.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {"setup_s": "s", "run_s": "s", "write_s": "s", "total_s": "s",
              "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Times are medians over the traced runs; every
# other value must be identical between them.
PER_LAYER = {
    "kernel.events": "count",
    "kernel.events.tick": "count",
    "kernel.events.delivery": "count",
    "kernel.events.task": "count",
    "kernel.events.compute": "count",
    "kernel.events.retx": "count",
    "kernel.self_s": "s",
    "kernel.us_per_event": "us",
    "kernel.send.calls": "count",
    "kernel.send.report": "count",
    "kernel.send.task": "count",
    "kernel.send.result": "count",
    "kernel.send.handoff": "count",
    "kernel.send.relay_task": "count",
    "kernel.send.uplink": "count",
    "kernel.messages.sent": "count",
    "kernel.messages.delivered": "count",
    "kernel.messages.dropped": "count",
    "kernel.beacons.sent": "count",
    "kernel.beacons.delivered": "count",
    "kernel.delivery_ratio": "ratio",
    "runner.tick.self_s": "s",
    "runner.delivery.self_s": "s",
    "runner.task.self_s": "s",
    "runner.compute.self_s": "s",
    "runner.kdtree_s": "s",
    "mobility.step.calls": "count",
    "mobility.step.self_s": "s",
    "mobility.segment_of.calls": "count",
    "local.decide.calls": "count",
    "local.decide.self_s": "s",
    "local.tasks.local": "count",
    "local.handoffs": "count",
    "edge.self_s": "s",
    "edge.enqueue.calls": "count",
    "edge.tasks.edge": "count",
    "edge.tasks.partner": "count",
    "cloud.self_s": "s",
    "cloud.tasks": "count",
    "cloud.directives": "count",
    "cloud.es.kept": "count",
    "cloud.es.rolled_back": "count",
    "metrics.index_series_s": "s",
    "metrics.tasks_csv_s": "s",
    "metrics.indices_csv_s": "s",
    "model.tasks.generated": "count",
    "model.tasks.completed": "count",
    "model.tasks.dropped": "count",
    "model.tasks.in_flight": "count",
    "model.median_rt_ms": "ms",
    "model.p95_rt_ms": "ms",
    "model.iqr_rt_ms": "ms",
    "model.drop_rate": "ratio",
    "model.autonomy_last": "ratio",
    "model.coordination_last": "ratio",
    "model.artifacts_sha256": "sha256_prefix",
    "trace.run_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Measured times, and ratios of them; everything else is a count or a
# simulated value that the seed fixes.
TIMED = {n for n, u in PER_LAYER.items() if u in ("s", "us")} | {
    "trace.unattributed_share", "trace.overhead_ratio"}


def run_child(workload: str, seed: int, duration_s: float, traced: bool,
              timeout_s: float) -> tuple[dict | None, str]:
    """Run one simulation in a fresh process; (measurements, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed),
           "--duration-s", repr(duration_s)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, **PINNED_ENV, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout_s:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"unreadable output: {proc.stdout[-500:]!r}"


def measure(args) -> tuple[list[dict], list[str]]:
    """Children one at a time until the next one would overrun ``--seconds``
    (at least MIN_RUNS).  With tracing, untraced and traced runs alternate."""
    start = time.perf_counter()
    deadline = start + args.seconds
    hard_stop = start + CHILD_TIMEOUT_S
    runs, errors = [], []
    longest = {False: 0.0, True: 0.0}
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        now = time.perf_counter()
        if len(runs) >= MIN_RUNS and now + longest[traced] > deadline:
            break
        if now >= hard_stop:
            errors.append("out of time before the minimum number of runs")
            break
        t0 = time.perf_counter()
        out, err = run_child(args.workload, args.seed, args.duration_s, traced,
                             hard_stop - now)
        longest[traced] = max(longest[traced], time.perf_counter() - t0)
        if out is None:
            out = {"traced": traced, "failures": [err]}
        runs.append(out)
    return runs, errors


def check_runs(runs: list[dict]) -> None:
    """Add a failure to each run whose artifacts or counts differ from the
    majority of the set (all runs of a set share workload and seed)."""
    digests = Counter(r["sha256"] for r in runs if "sha256" in r)
    if not digests:
        return
    reference = digests.most_common(1)[0][0]
    traced = [r["layers"] for r in runs if "layers" in r]
    for r in runs:
        if "sha256" in r and r["sha256"] != reference:
            r["failures"].append(f"artifacts sha256 {r['sha256'][:12]} differs "
                                 f"from the set's {reference[:12]}")
        if "layers" in r:
            for name, value in r["layers"].items():
                if name not in TIMED and value != traced[0][name]:
                    r["failures"].append(f"{name}={value} differs between traced runs")


def end_to_end(ok: list[dict], clock: str = "scaled") -> dict:
    """Medians over the untraced runs, in seconds at nominal host speed
    (``clock="scaled"``) or in host seconds (``"raw"``).  Set-up and write
    are timed several times in each run, and all those samples are pooled."""
    plain = [r for r in ok if not r["traced"]]
    samples = {name: [] for name in END_TO_END}
    for r in plain:
        for name, values in samples.items():
            value = r[clock].get(name, r.get(name))
            values.extend(value if isinstance(value, list) else [value])
    return {name: statistics.median(values) for name, values in samples.items()}


def per_layer(ok: list[dict]) -> dict:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    first = traced[0]
    out = {}
    for name in PER_LAYER:
        if name in first["layers"]:
            values = [r["layers"][name] for r in traced]
            out[name] = statistics.median(values) if name in TIMED else values[0]
    out.update({k: v for k, v in first["model"].items() if k in PER_LAYER})
    out["model.artifacts_sha256"] = int(first["sha256"][:13], 16)
    out["trace.overhead_ratio"] = (statistics.median([r["raw"]["run_s"] for r in traced])
                                   / statistics.median([r["raw"]["run_s"] for r in plain]))
    return out


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; children start while they fit in it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--duration-s", type=float, default=workloads.DURATION_S,
                    help="simulated seconds per run (default %(default)s)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twinsim" / "__init__.py").is_file():
        print(f"error: no twinsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs, errors = measure(args)
    check_runs(runs)
    ok = [r for r in runs if not r["failures"]]
    failed = len(runs) - len(ok)
    for i, r in enumerate(runs):
        kind = "traced" if r["traced"] else "plain"
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        run_s = r.get("raw", {}).get("run_s", float("nan"))
        print(f"run {i}: {kind} host run_s={run_s:.4f} {status}")
        if r.get("missing_entry_points"):
            print("  not traced (entry point gone): " + ", ".join(r["missing_entry_points"]))
    for e in errors:
        print(f"error: {e}")

    need_traced = bool(args.trace)
    have = {t: any(r["traced"] == t for r in ok) for t in (False, True)}
    if not have[False] or (need_traced and not have[True]):
        print(json.dumps({"correct": False, "attempted": len(runs),
                          "failed": failed, "metrics": {}}))
        return 1

    if need_traced:
        values, units = per_layer(ok), PER_LAYER
        n = sum(1 for r in ok if r["traced"])
    else:
        values, units = end_to_end(ok), END_TO_END
        n = sum(1 for r in ok if not r["traced"])
    env = dict(ok[0]["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), threads_pinned=1,
               duration_s=args.duration_s, samples=n)
    print("env " + json.dumps(env))
    if not need_traced:
        print("host seconds, not scaled: " + json.dumps(end_to_end(ok, "raw")))
    for name, value in values.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
