"""Count, for two checkouts, the garbage collections that start inside the
benchmark's reference work, the set-ups, the run and the writes.

    python3 bench/gcsplit.py --base ../parent --change . --workload hotspot \
        --seed 29

``perfbench/child.py`` scales each timed call by the ``reference_work()``
calls around it, so a collection that the simulator's allocations trigger
counts against the reference or against the run depending on where it
starts.  For each side this script starts one fresh process that replays an
untraced child with that checkout's own ``perfbench/child.py``: its
``Stopwatch``, the five timed set-ups, the run in 1 s slices and the three
``RunResult.write`` calls (each into a temporary directory, digested after),
each call followed by ``reference_work()``.  A ``gc.callbacks`` hook counts
every collection that starts, by generation and by where it starts: in a
reference call, in the set-ups, in the run or in the writes.  A second line
splits the reference calls by the timed call that each follows, the one
whose scaled time it enters: a set-up, a slice of the run or a write (the
``Stopwatch``'s opening call, before the first set-up, counts with the
set-ups).  The replay adds no GC-tracked allocation of its own to the calls
it labels.
"""
from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REGIONS = ("reference", "setup", "run", "write")
TIMED = REGIONS[1:]


def replay(root: Path, workload: str, seed: int, duration_s: float) -> dict:
    """Collections by region and generation in one replay of ``child.py``."""
    sys.path.insert(0, str(root / "perfbench"))
    import child
    import workloads

    child.import_twinsim(root)
    import numpy  # noqa: F401 - child.py imports both before its set-ups
    import scipy  # noqa: F401
    from twinsim.runner import Simulation
    from twinsim.scenario import parse_scenario

    counts = {region: [0] * 3 for region in REGIONS}
    after = {call: [0] * 3 for call in TIMED}
    where = ["setup"]
    follows = where[:]
    reference = child.reference_work

    def labelled_reference():
        outer, where[0] = where[0], "reference"
        follows[0] = outer
        try:
            return reference()
        finally:
            where[0] = outer

    def on_gc(phase, info):
        if phase == "start":
            counts[where[0]][info["generation"]] += 1
            if where[0] == "reference":
                after[follows[0]][info["generation"]] += 1

    child.reference_work = labelled_reference
    cfg = parse_scenario(workloads.scenario(workload, seed, duration_s))
    gc.callbacks.append(on_gc)
    watch = child.Stopwatch()
    for _ in range(child.SETUPS):
        sim = None  # as child.py: the previous instance goes first
        sim = watch.call("setup", Simulation, cfg)
    where[0] = "run"
    end_us, step_us = cfg.duration_us, round(child.CHUNK_S * 1_000_000)
    for t_us in range(step_us, end_us + step_us, step_us):
        watch.call("run", sim.engine.run_until, min(t_us, end_us))
    result = watch.call("run", sim.run)
    where[0] = "write"
    for _ in range(child.WRITES):
        with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as outdir:
            watch.call("write", result.write, outdir)
            child.sha256_of(Path(outdir))
    gc.callbacks.remove(on_gc)
    return {**counts, "reference after": after}


def side(root: Path, args) -> dict:
    cmd = [sys.executable, __file__, "--replay", str(root), "--workload", args.workload,
           "--seed", str(args.seed), "--duration-s", repr(args.duration_s)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="checkout before the change")
    ap.add_argument("--change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--duration-s", type=float, default=60.0)
    ap.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.replay:
        counts = replay(args.replay.resolve(), args.workload, args.seed, args.duration_s)
        print(json.dumps(counts))
        return 0
    if args.base is None or args.change is None:
        ap.error("--base and --change are required")
    sides = {name: side(root.resolve(), args) for name, root in
             (("base", args.base), ("change", args.change))}
    print(f"{args.workload} seed {args.seed}: collections by generation (0/1/2)")
    for name, counts in sides.items():
        print(f"  {name:<7}" + "  ".join(f"{region} {'/'.join(map(str, counts[region]))}"
                                         for region in REGIONS))
        after = counts["reference after"]
        print(f"  {name:<7}reference after " + "  ".join(
            f"{call} {'/'.join(map(str, after[call]))}" for call in TIMED))
    same = sides["base"] == sides["change"]
    print("  same on both sides" if same else "  the sides differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
