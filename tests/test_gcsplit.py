"""Smoke run of ``bench/gcsplit.py``'s split of the reference calls."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gcsplit_splits_reference_by_timed_call():
    """Each side's second line splits the collections that start in the
    reference calls by the timed call that each reference follows, and the
    three add up to the side's ``reference`` count."""
    cmd = [sys.executable, str(ROOT / "bench" / "gcsplit.py"), "--base", str(ROOT),
           "--change", str(ROOT), "--workload", "layered", "--seed", "0",
           "--duration-s", "31"]  # a run must outlast one 30 s epoch
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    counts = r"(\d+)/(\d+)/(\d+)"
    for side in ("base", "change"):
        total = [re.fullmatch(rf"  {side} *reference {counts}  setup .*", line)
                 for line in lines]
        split = [re.fullmatch(rf"  {side} *reference after setup {counts}  run {counts}"
                              rf"  write {counts}", line) for line in lines]
        total = [m for m in total if m]
        split = [m for m in split if m]
        assert len(total) == len(split) == 1, proc.stdout
        by_call = [int(n) for n in split[0].groups()]
        assert [sum(by_call[gen::3]) for gen in range(3)] == [
            int(n) for n in total[0].groups()], proc.stdout
