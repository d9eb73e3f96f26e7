"""Mutation audit: do the tests notice a one-line change to the model?

    python3 bench/mutants.py

Each mutant in ``MUTANTS`` replaces one line of a file under ``src/`` in a
scratch copy of ``src/``, ``tests/`` and ``pyproject.toml`` (a temporary
directory per mutant), then runs pytest there, stopping at the first
failure, on the pinned digests of ``tests/test_digests.py`` or on the
tests named next to the mutant.  A mutant that fails them is killed; one
that passes them survives.
The script prints one line per mutant, then the survivors, and exits 1 if
any survives, or if the list has gone stale: a mutant's line is not found
exactly once in its file, or its tests do not run.  See DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = "tests/test_digests.py::test_pinned_digests"

# (name, file under src/twinsim, line as written there (stripped), its
# replacement, the tests that must catch it)
MUTANTS = [
    # the sensing leg, caught by the congestion and localize digests
    ("no_congestion_label", "edge.py",
     "if mean_speed < congestion_speed:", "if False:", DIGESTS),
    ("localize_is_identity", "edge.py",
     "if not congestion_active or shift <= 0:", "if True:", DIGESTS),
    ("edge_never_congested", "edge.py",
     'congested = "Congestion" in self.labels[r]', "congested = False", DIGESTS),
    ("fusion_speed_sum_zero", "edge.py",
     "np.add.at(self.speed_sum, at, speed[kept])", "pass", DIGESTS),
    # reached only from a parent with a small processing quota
    ("quota_floor_0.06", "cloud.py",
     "proc = 0.05", "proc = 0.06", "tests/test_cloud.py"),
    # caught by the first five digests
    ("no_underload_label", "edge.py",
     "elif utilization < util_low:", "elif False:", DIGESTS),
    ("roles_ignore_idle_compute", "edge.py",
     "by_idle = rest[np.lexsort((ids[rest], -idle_compute[rest]))]",
     "by_idle = rest[np.lexsort((ids[rest],))]", DIGESTS),
    ("no_handover_reports", "runner.py",
     "local.send_reports(moved, now)", "pass", DIGESTS),
    ("no_backlog_reports", "local.py",
     "self.send_reports(np.array([server_vehicle]), now)", "pass", DIGESTS),
    ("no_relay_of_results", "edge.py",
     'if task.tier == "Edge" and self.current_rsu.item(task.origin) != r:',
     "if False:", DIGESTS),
    ("relay_served_at_origin", "edge.py",
     "self._task(payload[1], payload[2], True)",
     "self._task(payload[2].origin_rsu, payload[2], True)", DIGESTS),
    ("rollback_tolerance_1.5", "cloud.py",
     "tolerance: float = 1.05) -> str:", "tolerance: float = 1.5) -> str:", DIGESTS),
    # the report batch: rows index the batch's vehicles, lost rows retry,
    # and a row whose vehicle left its RSU in flight does not count
    ("report_rows_as_vehicles", "edge.py",
     "kept = rows[rsu[rows] == self.current_rsu[v[rows]]]",
     "kept = rows[rsu[rows] == self.current_rsu[rows]]",
     "tests/test_edge.py::test_take_batch_rows_are_not_vehicle_ids"),
    ("batch_never_retries", "kernel.py",
     "if attempt < link.max_attempts:", "if False:",
     "tests/test_kernel.py::test_send_batch_matches_one_at_a_time_sends"),
    ("no_stale_report_filter", "edge.py",
     "kept = rows[rsu[rows] == self.current_rsu[v[rows]]]", "kept = rows",
     "tests/test_runner.py::test_report_batch_delivery_matches_one_at_a_time_reports[250]"),
]


def mutate(source: str, old: str, new: str) -> str:
    """``source`` with its one line that reads ``old`` (stripped) replaced by
    ``new`` at the same indentation; ValueError unless exactly one matches."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        raise ValueError(f"{old!r} is on {len(hits)} lines, not 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def survives(name: str, file: str, old: str, new: str, tests: str) -> bool:
    """Whether ``tests`` pass on a copy of the checkout with the mutant."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        scratch = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, scratch / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", scratch)
        target = scratch / "src" / "twinsim" / file
        target.write_text(mutate(target.read_text(), old, new))
        env = {**os.environ, "PYTHONPATH": str(scratch / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
            cwd=scratch, env=env, capture_output=True, text=True)
    if proc.returncode in (4, 5):  # a usage error, or no test collected
        raise ValueError(f"no test of {tests} ran")
    return proc.returncode == 0


def main() -> int:
    survivors, stale = [], []
    for mutant in MUTANTS:
        name, tests = mutant[0], mutant[4]
        try:
            alive = survives(*mutant)
        except ValueError as err:
            stale.append(name)
            print(f"{name:28s} stale: {err}", flush=True)
            continue
        if alive:
            survivors.append(name)
        print(f"{name:28s} {'SURVIVED' if alive else 'killed'} ({tests})", flush=True)
    print("survivors:", " ".join(survivors) or "none")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
