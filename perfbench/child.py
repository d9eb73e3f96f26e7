"""One benchmark run in a fresh process: set up, run and write one
simulation, check its outputs, and print the measurements as one JSON line.

    python3 perfbench/child.py --root . --workload layered --seed 0 \
        --duration-s 60 [--traced]

The parent (``perfbench/run.py``) starts one of these at a time and pins the
BLAS/OpenMP pools to one thread.  ``--root`` is the checkout; twinsim is
imported from its ``src`` and nothing else, and artifacts are written to
temporary ``<root>/.perfbench-*`` directories.
"""
from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import platform
import resource
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads

SETUPS = 5           # Simulation(cfg) constructions timed per process
WRITES = 3           # RunResult.write calls timed per process
CHUNK_S = 1.0        # simulated seconds per separately timed slice of the run
ARTIFACTS = ("tasks.csv", "indices.csv", "epochs.jsonl")
DRAIN_S = 3600       # simulated seconds past the horizon to settle messages
TRACE_SHARE = 0.05   # layer self times must cover the traced run_s to this
REF_S = 0.0025       # host time of reference_work() at nominal speed (NOTES.md)


def reference_work() -> float:
    """Host time of a fixed piece of interpreted work that shares no code
    with the simulator: heap, dict and tuple traffic, as in its hot path."""
    t0 = time.perf_counter()
    heap, table = [], {}
    for i in range(2000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[i % 256] = (i, float(i))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


class Stopwatch:
    """Times calls in host seconds (``raw``) and in seconds at nominal host
    speed (``scaled``).

    Other tenants of the host slow every process on it by 10-70%, in
    stretches that last from seconds to minutes.  The reference work is
    timed before and after each call, and the call's host time is scaled by
    REF_S over their mean, so that a slow-down common to both cancels."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self._ref = reference_work()

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        ref = reference_work()
        self.raw[name].append(raw)
        self.scaled[name].append(raw * 2 * REF_S / (self._ref + ref))
        self._ref = ref
        return out

    @staticmethod
    def summary(times: dict) -> dict:
        """End-to-end timings of one process; the run may have been sliced."""
        run_s = sum(times["run"])
        return {"setup_s": times["setup"], "run_s": run_s, "write_s": times["write"],
                "total_s": times["setup"][-1] + run_s + times["write"][0]}


def import_twinsim(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import twinsim
    if Path(twinsim.__file__).resolve().parent != src / "twinsim":
        raise ImportError(f"twinsim imported from {twinsim.__file__}, not {src}")


def sha256_of(outdir: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def model_values(result) -> dict:
    from twinsim.metrics import BELOW_CLOUD, summarize

    stats = summarize(result.records)
    below = sum(n for tier, n in stats["tier_counts"].items() if tier in BELOW_CLOUD)
    return {
        "model.tasks.generated": result.generated,
        "model.tasks.completed": result.completed,
        "model.tasks.dropped": result.dropped,
        "model.tasks.in_flight": result.in_flight,
        "model.tiers.below_cloud": below,
        "model.median_rt_ms": stats["median_us"] / 1000,
        "model.p95_rt_ms": stats["p95_us"] / 1000,
        "model.iqr_rt_ms": stats["iqr_us"] / 1000,
        "model.drop_rate": stats["drop_rate"],
        "model.autonomy_last": result.series.autonomy[-1],
        "model.coordination_last": result.series.coordination[-1],
    }


def conservation_failures(sim, result) -> list[str]:
    """Tasks and messages balance at the horizon, and every one of them
    settles once the engine runs on past it (no new work starts then)."""
    failures = []
    for r in result.records:
        if r.completed_us is not None and (r.dropped or r.tier is None
                                           or r.completed_us < r.created_us):
            failures.append(f"task {r.task_id}: inconsistent record")
            break
    msgs = result.messages
    if result.in_flight < 0 or msgs.in_flight < 0:
        failures.append(f"negative in-flight: tasks {result.in_flight}, "
                        f"messages {msgs.in_flight}")
    sim.engine.run_until(sim.cfg.duration_us + DRAIN_S * 1_000_000)
    if result.in_flight or msgs.in_flight:
        failures.append(f"after draining, {result.in_flight} tasks and "
                        f"{msgs.in_flight} messages never settled")
    return failures


def layer_values(tracer, run_spans: dict, run_s: float, result) -> dict:
    """Per-layer metrics of a traced run.  ``run_spans`` is the self time per
    bucket over ``Simulation.run`` alone; the CSV times are per call, over
    the writes that followed it."""
    from twinsim.metrics import summarize

    s, calls, ev, sends = run_spans, tracer.calls, tracer.events, tracer.sends
    beacons = tracer.beacons
    msgs = result.messages
    sent = msgs.sent - beacons["sent"]
    delivered = msgs.delivered - beacons["delivered"]
    tiers = summarize(result.records)["tier_counts"]
    n_events = sum(ev.values())
    es = [e.decision for e in result.epoch_records]
    return {
        "kernel.events": n_events,
        **{f"kernel.events.{k}": ev[k]
           for k in ("tick", "delivery", "task", "compute", "retx")},
        "kernel.self_s": s.get("kernel", 0.0),
        "kernel.us_per_event": s.get("kernel", 0.0) / n_events * 1e6,
        "kernel.send.calls": sum(sends.values()),
        **{f"kernel.send.{k}": sends[k] for k in
           ("report", "task", "result", "handoff", "relay_task", "uplink")},
        "kernel.messages.sent": sent,
        "kernel.messages.delivered": delivered,
        "kernel.messages.dropped": msgs.dropped - (beacons["sent"] - beacons["delivered"]),
        "kernel.beacons.sent": beacons["sent"],
        "kernel.beacons.delivered": beacons["delivered"],
        "kernel.delivery_ratio": delivered / sent,
        **{f"runner.{k}.self_s": s.get(f"runner.{k}", 0.0)
           for k in ("tick", "delivery", "task", "compute")},
        "runner.kdtree_s": s.get("runner.kdtree", 0.0),
        "mobility.step.calls": calls["mobility.step"],
        "mobility.step.self_s": s.get("mobility.step", 0.0),
        "mobility.segment_of.calls": calls["mobility.segment_of"],
        "local.decide.calls": calls["local.decide"],
        "local.decide.self_s": s.get("local.decide", 0.0),
        "local.tasks.local": tiers["Local"],
        "local.handoffs": sends["handoff"],
        "edge.self_s": sum(v for k, v in s.items() if k.startswith("edge.")),
        "edge.enqueue.calls": calls["edge.enqueue"],
        "edge.tasks.edge": tiers["Edge"],
        "edge.tasks.partner": tiers["PartnerEdge"],
        "cloud.self_s": sum(v for k, v in s.items() if k.startswith("cloud.")),
        "cloud.tasks": tiers["Cloud"],
        "cloud.directives": len(result.directive_log),
        "cloud.es.kept": es.count("keep"),
        "cloud.es.rolled_back": es.count("rollback"),
        "metrics.index_series_s": s.get("metrics.index_series", 0.0),
        **{f"metrics.{k}_s": tracer.self_s[f"metrics.{k}"] / max(1, calls[f"metrics.{k}"])
           for k in ("tasks_csv", "indices_csv")},
        "trace.run_s": run_s,
        "trace.unattributed_share": (run_s - sum(s.values())) / run_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--duration-s", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    root = args.root.resolve()

    import_twinsim(root)
    import numpy
    import scipy
    from twinsim.runner import Simulation
    from twinsim.scenario import parse_scenario

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cfg = parse_scenario(workloads.scenario(args.workload, args.seed, args.duration_s))
    watch = Stopwatch()
    for _ in range(1 if tracer else SETUPS):
        sim = None  # let the previous instance go before timing the next
        sim = watch.call("setup", Simulation, cfg)

    if tracer:
        tracer.reset()
    else:
        # Advance the engine in CHUNK_S slices before Simulation.run()
        # finishes the run, so that each slice is scaled by the host speed
        # around it.  Slicing changes neither the order of events nor the
        # artifacts; the traced runs, which are not sliced, must agree.
        end_us, step_us = cfg.duration_us, round(CHUNK_S * 1_000_000)
        for t_us in range(step_us, end_us + step_us, step_us):
            watch.call("run", sim.engine.run_until, min(t_us, end_us))
    result = watch.call("run", sim.run)
    run_raw_s = sum(watch.raw["run"])
    run_spans = dict(tracer.self_s) if tracer else None

    digests = set()
    for _ in range(WRITES):
        with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as outdir:
            watch.call("write", result.write, outdir)
            digests.add(sha256_of(Path(outdir)))
    digest = min(digests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    model = model_values(result)
    checked = dict(model, **{"cloud.directives": len(result.directive_log)})
    out = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "scaled": watch.summary(watch.scaled), "raw": watch.summary(watch.raw),
        "peak_rss_mb": peak_rss_mb,
        "sha256": digest, "model": model,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    failures = [] if len(digests) == 1 else ["repeated writes gave different artifacts"]
    if tracer:
        layers = layer_values(tracer, run_spans, run_raw_s, result)
        out["layers"] = layers
        out["missing_entry_points"] = tracer.missing
        checked.update(layers)
        share = layers["trace.unattributed_share"]
        if abs(share) > TRACE_SHARE:
            failures.append(f"layer self times leave {share:.1%} of traced run_s "
                            f"unattributed (limit {TRACE_SHARE:.0%})")
    failures += workloads.path_failures(args.workload, checked)
    failures += conservation_failures(sim, result)
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
