"""Command line front end.

Exit codes: 0 success, 1 simulation/runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import metrics
from .mobility import ConfigError
from .runner import run_showcase
from .scenario import ScenarioConfig, load_scenario


def _load(args, seed: int | None = None) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    if args.mode:
        cfg.mode = args.mode
    if seed is not None:
        cfg.seed = seed
    if args.duration is not None:
        cfg.duration_s = args.duration
    return cfg


def _ms(us: float | None) -> str:
    return "n/a" if us is None else f"{us / 1000:.3f}"


def _print_summary(stats: dict, indices_tail: tuple | None = None) -> None:
    print(f"completed      {stats['n_completed']}")
    if stats["median_us"] is not None:
        print(f"median_rt_ms   {stats['median_us'] / 1000:.3f}")
        print(f"p95_rt_ms      {stats['p95_us'] / 1000:.3f}")
        print(f"iqr_rt_ms      {stats['iqr_us'] / 1000:.3f}")
    print(f"drop_rate      {stats['drop_rate']:.6f}")
    for tier, count in stats["tier_counts"].items():
        print(f"{'tier_' + tier:<14} {count}")
    if indices_tail is not None:
        print(f"autonomy_last  {indices_tail[0]:.6f}")
        print(f"coord_last     {indices_tail[1]:.6f}")


def cmd_run(args) -> int:
    cfg = _load(args, args.seed)
    result = run_showcase(cfg, outdir=args.out)
    stats = metrics.summarize(result.records)
    tail = None
    if result.series.autonomy:
        tail = (result.series.autonomy[-1], result.series.coordination[-1])
    for name, value in (("mode", cfg.mode), ("seed", cfg.seed), ("duration_s", cfg.duration_s),
                        ("generated", result.generated), ("wall_s", f"{result.wall_time_s:.2f}")):
        print(f"{name:<14} {value}")
    _print_summary(stats, tail)
    return 0


def cmd_summarize(args) -> int:
    path = Path(args.indir) / "tasks.csv"
    if not path.exists():
        print(f"no tasks.csv under {args.indir}", file=sys.stderr)
        return 2
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(metrics.TaskRecord(
                task_id=int(row["task_id"]),
                origin=int(row["origin"]),
                created_us=int(row["created_us"]),
                completed_us=int(row["completed_us"]) if row["completed_us"] else None,
                tier=row["tier"] or None,
                dropped=row["dropped"] == "1",
            ))
    idx, tail = Path(args.indir) / "indices.csv", None
    if idx.exists():
        with open(idx, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if rows:
            tail = float(rows[-1]["autonomy"]), float(rows[-1]["coordination"])
    _print_summary(metrics.summarize(records), tail)
    return 0


def _seed_range(text: str):
    """``--seeds`` as ``lo..hi`` (inclusive) or ``a,b,c``; else a usage error."""
    try:
        lo, _, hi = text.partition("..")
        seeds = range(int(lo), int(hi) + 1) if hi else [int(s) for s in text.split(",")]
        if not seeds:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a non-empty seed range: {text!r}") from None
    return seeds


def cmd_sweep(args) -> int:
    cfg = _load(args)
    medians = []
    for seed in args.seeds:
        cfg.seed = seed
        outdir = Path(args.out) / f"seed{seed}" if args.out else None
        result = run_showcase(cfg, outdir=outdir)
        stats = metrics.summarize(result.records)
        if stats["median_us"] is not None:
            medians.append(stats["median_us"])
        print(f"seed={seed} completed={stats['n_completed']} "
              f"median_rt_ms={_ms(stats['median_us'])} drop_rate={stats['drop_rate']:.6f}")
    # over the seeds in which some task completed
    print(f"median_of_medians_ms {_ms(metrics.median(medians) if medians else None)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    # without abbreviations, so --seed is not taken for --seeds
    sweep_p = sub.add_parser("sweep", help="run one scenario across a seed range",
                             allow_abbrev=False)
    for p in (run_p, sweep_p):
        p.add_argument("--scenario", help="scenario JSON file (defaults apply if omitted)")
        p.add_argument("--mode", choices=["layered", "cloud_only"])
        p.add_argument("--duration", type=float, help="duration in seconds")
        p.add_argument("--out", help="directory for run artifacts")
    run_p.add_argument("--seed", type=int)
    run_p.set_defaults(fn=cmd_run)
    sweep_p.add_argument("--seeds", type=_seed_range, default="0..9",
                         help="e.g. 0..9 or 0,2,5")
    sweep_p.set_defaults(fn=cmd_sweep)

    sum_p = sub.add_parser("summarize", help="summarize a finished run directory")
    sum_p.add_argument("--in", dest="indir", required=True)
    sum_p.set_defaults(fn=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
