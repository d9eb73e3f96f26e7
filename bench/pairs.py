"""Compare two checkouts on the benchmark in alternating pairs.

    python3 bench/pairs.py --base ../parent --change . --workload layered \
        --seed 11 --pairs 10 --seconds 30 --out BENCH_2.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
process at a time; the side that goes first alternates from pair to pair.
Every end-to-end metric gets its median and quartiles per side, and the
number of pairs the change wins (lower is better, ties count for neither).
``--traced`` adds one ``--trace 1`` run per side and lists every count and
``model.*`` value that differs between the two.  Several ``--workload``
options share one output file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "run_s", "write_s", "total_s", "peak_rss_mb")


def bench_run(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The final JSON line of one ``perfbench/run.py`` call in ``root``."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare_workload(args, workload: str) -> dict:
    sides = {"base": args.base, "change": args.change}
    values = {side: {m: [] for m in END_TO_END} for side in sides}
    runs = {"attempted": 0, "failed": 0, "incorrect": 0}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            out = bench_run(sides[side], workload, args.seed, args.seconds, 0)
            runs["attempted"] += out["attempted"]
            runs["failed"] += out["failed"]
            runs["incorrect"] += not out["correct"]
            for m in END_TO_END:
                values[side][m].append(out["metrics"][m]["value"])
        print(f"{workload} pair {i}: " + ", ".join(
            f"{side} run_s={values[side]['run_s'][-1]:.3f}" for side in sides),
            file=sys.stderr)
    result = {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
              "runs": runs, "metrics": {}}
    for m in END_TO_END:
        base, change = summary(values["base"][m]), summary(values["change"][m])
        wins = sum(c < b for b, c in zip(base["values"], change["values"]))
        result["metrics"][m] = {
            "base": base, "change": change, "change_wins": wins,
            "median_ratio": change["median"] / base["median"],
            "base_iqr": base["q3"] - base["q1"],
            "median_gap": base["median"] - change["median"],
        }
    if args.traced:
        traced = {side: bench_run(root, workload, args.seed, args.seconds, 1)
                  for side, root in sides.items()}
        b, c = (traced[s]["metrics"] for s in sides)
        counts = [k for k, v in b.items() if v["unit"] not in ("s", "us", "ratio")
                  or k.startswith("model.")]
        result["traced"] = {
            "correct": {s: traced[s]["correct"] for s in sides},
            "differing": {k: [b[k]["value"], c.get(k, {}).get("value")]
                          for k in counts if b[k]["value"] != c.get(k, {}).get("value")},
            "values": {k: [b[k]["value"], c.get(k, {}).get("value")] for k in b},
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout before the change")
    ap.add_argument("--change", type=Path, required=True, help="checkout with the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.base, args.change = args.base.resolve(), args.change.resolve()

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workload:
        report[workload] = compare_workload(args, workload)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
