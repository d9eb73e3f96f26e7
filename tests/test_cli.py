import json

import pytest

from twinsim import cli
from twinsim.cli import main
from twinsim.metrics import median, summarize
from twinsim.runner import run_showcase
from twinsim.scenario import parse_scenario

SMALL = {"grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 20,
         "duration_s": 11.0, "periods": {"epoch_s": 5.0}}


def test_sweep_rejects_seed_option(capsys):
    # sweep sets the seed of each run from --seeds
    assert main(["sweep", "--seed", "3", "--seeds", "0"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_sweep_matches_single_runs(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SMALL))
    assert main(["sweep", "--scenario", str(path), "--seeds", "4,7"]) == 0
    out = capsys.readouterr().out.splitlines()
    medians = []
    for seed, line in zip((4, 7), out):
        stats = summarize(run_showcase(parse_scenario({**SMALL, "seed": seed})).records)
        medians.append(stats["median_us"])
        assert line.startswith(f"seed={seed} completed={stats['n_completed']} ")
        assert f"median_rt_ms={stats['median_us'] / 1000:.3f} " in line
    assert out[2] == f"median_of_medians_ms {median(medians) / 1000:.3f}"


@pytest.mark.parametrize("seeds", ["abc", "5..3", "1,x", "", "0..b"])
def test_sweep_rejects_bad_seed_range(seeds, monkeypatch, capsys):
    # parsed inside the command: "abc" exited 1, "5..3" ran nothing and
    # exited 0
    runs = []
    monkeypatch.setattr(cli, "run_showcase", lambda *a, **kw: runs.append(a))
    assert main(["sweep", "--seeds", seeds]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert runs == []


def test_sweep_seed_range_parses():
    assert list(cli.build_parser().parse_args(["sweep", "--seeds", "3..5"]).seeds) == [3, 4, 5]
    assert cli.build_parser().parse_args(["sweep", "--seeds", "7,2"]).seeds == [7, 2]
    assert list(cli.build_parser().parse_args(["sweep"]).seeds) == list(range(10))
