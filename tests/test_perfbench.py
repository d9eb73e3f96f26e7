"""The traced benchmark run, short: every workload still reaches the path it
was chosen for, its layer self times cover the run, and the tracer finds
every entry point it wraps but the three the program no longer has.  A
refactor that drops a traced entry point or the ``handoff`` payload tag
fails here.  Also a smoke run of ``bench/gcsplit.py``."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# gone from the program; perfbench/tracer.py still lists them
DEAD_ENTRY_POINTS = ["twinsim.mobility.Fleet.current_segment_of", "twinsim.edge.ols_slope",
                     "twinsim.runner.cKDTree"]


@pytest.mark.parametrize("workload", ["layered", "cloud_only", "hotspot", "v2v_handoff"])
def test_traced_benchmark_run(workload):
    # 31 s: one cloud epoch boundary (directives) and several beacon passes
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", "0", "--duration-s", "31", "--traced"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # the path checks and the limit on unattributed time
    assert out["failures"] == []
    assert out["missing_entry_points"] == DEAD_ENTRY_POINTS


def test_gcsplit_prints_every_region():
    """``bench/gcsplit.py`` on this checkout against itself prints, for each
    side, the collections that start in the reference work, the set-ups, the
    run and the writes.  The two sides may differ: the hash seed can move
    collections."""
    cmd = [sys.executable, str(ROOT / "bench" / "gcsplit.py"), "--base", str(ROOT),
           "--change", str(ROOT), "--workload", "layered", "--seed", "0",
           "--duration-s", "31"]  # the shortest run that spans a cloud epoch
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = r"\d+/\d+/\d+"
    for side in ("base", "change"):
        pattern = rf"  {side} *reference {counts}  setup {counts}  run {counts}  write {counts}"
        assert any(re.fullmatch(pattern, line) for line in proc.stdout.splitlines()), \
            proc.stdout
