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
from .scenario import ScenarioConfig, load_scenario, validate


def _load(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    if args.mode:
        cfg.mode = args.mode
    if args.seed is not None:
        cfg.seed = args.seed
    if args.duration is not None:
        cfg.duration_s = args.duration
    validate(cfg)
    return cfg


def _print_summary(stats: dict, indices_tail: tuple | None = None) -> None:
    print(f"completed      {stats['n_completed']}")
    print(f"median_rt_ms   {stats['median_us'] / 1000:.3f}")
    print(f"p95_rt_ms      {stats['p95_us'] / 1000:.3f}")
    print(f"iqr_rt_ms      {stats['iqr_us'] / 1000:.3f}")
    print(f"drop_rate      {stats['drop_rate']:.6f}")
    for tier, count in stats["tier_counts"].items():
        print(f"tier_{tier:<11}{count}")
    if indices_tail is not None:
        print(f"autonomy_last  {indices_tail[0]:.6f}")
        print(f"coord_last     {indices_tail[1]:.6f}")


def cmd_run(args) -> int:
    cfg = _load(args)
    result = run_showcase(cfg, outdir=args.out)
    stats = metrics.summarize(result.records)
    tail = None
    if result.series.autonomy:
        tail = (result.series.autonomy[-1], result.series.coordination[-1])
    print(f"mode={cfg.mode} seed={cfg.seed} duration_s={cfg.duration_s} "
          f"generated={result.generated} wall_s={result.wall_time_s:.2f}")
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
    _print_summary(metrics.summarize(records))
    idx = Path(args.indir) / "indices.csv"
    if idx.exists():
        with open(idx, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if rows:
            print(f"autonomy_last  {float(rows[-1]['autonomy']):.6f}")
            print(f"coord_last     {float(rows[-1]['coordination']):.6f}")
    return 0


def _parse_seed_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_sweep(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    medians = []
    for seed in seeds:
        cfg = _load(args)
        cfg.seed = seed
        outdir = Path(args.out) / f"seed{seed}" if args.out else None
        result = run_showcase(cfg, outdir=outdir)
        stats = metrics.summarize(result.records)
        medians.append(stats["median_us"])
        print(f"seed={seed} completed={stats['n_completed']} "
              f"median_rt_ms={stats['median_us'] / 1000:.3f} "
              f"drop_rate={stats['drop_rate']:.6f}")
    if medians:
        print(f"median_of_medians_ms {metrics.median(medians) / 1000:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--scenario", help="scenario JSON file (defaults apply if omitted)")
    run_p.add_argument("--mode", choices=["layered", "cloud_only"])
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--duration", type=float, help="duration in seconds")
    run_p.add_argument("--out", help="directory for run artifacts")
    run_p.set_defaults(fn=cmd_run)

    sum_p = sub.add_parser("summarize", help="summarize a finished run directory")
    sum_p.add_argument("--in", dest="indir", required=True)
    sum_p.set_defaults(fn=cmd_summarize)

    sweep_p = sub.add_parser("sweep", help="run one scenario across a seed range")
    sweep_p.add_argument("--scenario")
    sweep_p.add_argument("--mode", choices=["layered", "cloud_only"])
    sweep_p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    sweep_p.add_argument("--duration", type=float)
    sweep_p.add_argument("--seeds", default="0..9", help="e.g. 0..9 or 0,2,5")
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(fn=cmd_sweep)
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
