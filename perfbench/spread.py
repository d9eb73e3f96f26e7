"""Run the benchmark over several seeds and summarise each metric across
them, or compare two such summaries.

    python3 perfbench/spread.py --seeds 0-9 [--workloads layered,hotspot]
        [--trace] [--out set1.json]
    python3 perfbench/spread.py --compare set1.json set2.json

The first form runs ``run.py`` once per workload and seed, one after
another, and prints for each metric the median and the quartile spread
(Q3 - Q1) / median of the per-seed values.  An end-to-end spread at or above
a third of its bound in ``BENCHMARK.json`` is marked ``WIDE`` (``setup_s``
is exempt from the spread rule).  With ``--trace`` the runs use
``--trace 1`` and the per-layer metrics are summarised instead.

``--compare`` prints how far each median of the second set lies from the
first, marks an end-to-end metric that got worse by more than its bound,
and checks that every count and model value is identical seed by seed.
It exits non-zero if either check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import TIMED  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, env line) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return result, env


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure(args, bench: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, all_ok = {"trace": args.trace, "workloads": {}}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in args.seeds:
            res, env = one_run(workload, seed, bench["run_seconds"], int(args.trace))
            report.setdefault("host", env)
            all_ok &= bool(res["correct"])
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        stats = {name: summary(v) for name, v in values.items()}
        report["workloads"][workload] = {
            "seeds": args.seeds, "runs_attempted": attempted, "runs_failed": failed,
            "metrics": stats}
        print(f"{workload}: {attempted} runs, {failed} failed")
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag = "  WIDE"
            print(f"  {name:32s} median {s['median']:12.6g}  spread {s['spread']:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


def compare(first: Path, second: Path, bench: dict) -> int:
    a, b = (json.loads(p.read_text()) for p in (first, second))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from {second}")
            bad += 1
            continue
        print(f"{workload}:")
        for name, sa in wa["metrics"].items():
            sb = wb["metrics"][name]
            timed = name in bounds or name in TIMED
            if timed:
                shift = sb["median"] / sa["median"] - 1 if sa["median"] else 0.0
                bound = bounds.get(name)
                worse = bound is not None and shift > bound
                bad += worse
                print(f"  {name:32s} {sa['median']:12.6g} -> {sb['median']:12.6g}"
                      f"  {shift:+7.2%}" + ("  WORSE THAN BOUND" if worse else ""))
            elif sa["values"] != sb["values"]:
                bad += 1
                print(f"  {name:32s} differs: {sa['values']} vs {sb['values']}")
    print("agree" if not bad else f"{bad} disagreements")
    return 0 if not bad else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, bench)
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
