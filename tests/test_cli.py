import json
from dataclasses import replace

import pytest

from twinsim import cli
from twinsim.cli import main
from twinsim.metrics import median, summarize
from twinsim.runner import run_showcase
from twinsim.scenario import ScriptedTask, parse_scenario

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


def test_run_and_summarize_print_a_name_and_a_value_per_line(tmp_path, capsys):
    # printed "tier_PartnerEdge0": tier names were padded to 11 characters
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SMALL))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    run = capsys.readouterr().out.splitlines()
    assert main(["summarize", "--in", str(tmp_path / "out")]) == 0
    summary = capsys.readouterr().out.splitlines()
    for out in (run, summary):
        assert [len(line.split()) for line in out] == [2] * len(out)
    assert [line.split()[0] for line in run[:5]] == [
        "mode", "seed", "duration_s", "generated", "wall_s"]
    assert "tier_PartnerEdge" in [line.split()[0] for line in summary]
    assert run[5:] == summary


# parses and runs to the end, and no task completes
NO_TASKS = {"workload": {"task_rate_hz": 0}, "vehicles_per_rsu": 5, "duration_s": 31}


def test_run_without_completions_exits_0(tmp_path, capsys):
    # exited 1 with "error: no completed task records"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(NO_TASKS))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "completed      0" in out
    assert not any(line.startswith(("median_rt_ms", "p95_rt_ms", "iqr_rt_ms")) for line in out)
    assert "drop_rate      0.000000" in out


def test_summarize_without_completions_exits_0(tmp_path, capsys):
    run_showcase(parse_scenario(NO_TASKS), tmp_path)
    assert main(["summarize", "--in", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["completed      0", "drop_rate      0.000000"]
    assert not any(line.startswith(("median_rt_ms", "p95_rt_ms", "iqr_rt_ms")) for line in out)


def test_sweep_medians_over_seeds_with_completions(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(NO_TASKS))
    assert main(["sweep", "--scenario", str(path), "--seeds", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed=0 completed=0 median_rt_ms=n/a drop_rate=0.000000",
        "seed=1 completed=0 median_rt_ms=n/a drop_rate=0.000000",
        "median_of_medians_ms n/a"]
    # one task at seed 1 only: the median of medians is its response time

    def one_task_at_seed_1(cfg, outdir=None):
        if cfg.seed == 1:
            cfg = replace(cfg, scripted_tasks=[ScriptedTask(0, 1.0, 1.0)])
        return run_showcase(cfg, outdir)

    monkeypatch.setattr(cli, "run_showcase", one_task_at_seed_1)
    assert main(["sweep", "--scenario", str(path), "--seeds", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed=0 completed=0 median_rt_ms=n/a drop_rate=0.000000"
    assert lines[1].startswith("seed=1 completed=1 median_rt_ms=")
    assert lines[2] == "median_of_medians_ms " + lines[1].split("median_rt_ms=")[1].split()[0]
