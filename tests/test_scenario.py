import importlib.util
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from twinsim import runner
from twinsim.cli import main
from twinsim.cloud import DIRECTIVE_BYTES
from twinsim.kernel import link_latency
from twinsim.mobility import ConfigError
from twinsim.scenario import (MAX_DISTANCE_CELLS, MAX_DURATION_S, MAX_GRID_SIDE,
                              MAX_INDEX_WINDOWS, MAX_MAP_SIDE_M, MAX_SERVICE_US,
                              MAX_SPEED_MPS, MAX_TASKS, MAX_TICKS, MAX_TIME_US,
                              MAX_VEHICLES_PER_RSU, MIN_SPACING_M,
                              ScenarioConfig, WorkloadConfig, default_hotspot_scenario,
                              load_scenario, parse_scenario, validate)


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.n_rsus == 6
    assert cfg.n_vehicles == 1200
    assert cfg.mode == "layered"
    assert cfg.duration_us == 300_000_000
    assert cfg.links.v2r.base_latency_ms == 5.0
    assert cfg.links.r2c.loss_prob == 0.0
    assert cfg.capacity.edge_cu_s == 1000.0
    validate(cfg)


def test_parse_overrides_nested():
    cfg = parse_scenario({
        "duration_s": 60.0,
        "seed": 4,
        "grid": {"rows": 3},
        "capacity": {"edge_cu_s": 500.0},
        "links": {"v2r": {"loss_prob": 0.05}},
    })
    assert cfg.duration_s == 60.0
    assert cfg.seed == 4
    assert cfg.grid.rows == 3
    assert cfg.grid.cols == 3  # untouched default
    assert cfg.capacity.edge_cu_s == 500.0
    assert cfg.links.v2r.loss_prob == 0.05
    assert cfg.links.v2r.base_latency_ms == 5.0


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown key: grid.rowz"):
        parse_scenario({"grid": {"rowz": 2}})
    with pytest.raises(ConfigError, match="unknown key: links.v2x"):
        parse_scenario({"links": {"v2x": {}}})
    with pytest.raises(ConfigError, match="unknown key: turbo"):
        parse_scenario({"turbo": True})
    # the write-only energy model is gone
    with pytest.raises(ConfigError, match="unknown key: energy_drain_per_m"):
        parse_scenario({"energy_drain_per_m": 1e-5})


def test_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="loss_prob"):
        parse_scenario({"links": {"v2r": {"loss_prob": 1.5}}})
    with pytest.raises(ConfigError, match="mode"):
        parse_scenario({"mode": "hybrid"})
    with pytest.raises(ConfigError, match="duration_s"):
        parse_scenario({"duration_s": 10.0})
    with pytest.raises(ConfigError, match="hotspot.region"):
        parse_scenario({"hotspot": {"region": 17}})


def test_hotspot_and_scripted_tasks_parse():
    cfg = parse_scenario({
        "hotspot": {"region": 2, "rate_multiplier": 4.0,
                    "t_start_s": 50.0, "t_end_s": 150.0},
        "scripted_tasks": [{"device": 0, "at_s": 1.0, "cost_cu": 2.0}],
    })
    assert cfg.hotspot.region == 2
    assert cfg.hotspot.rate_multiplier == 4.0
    assert cfg.scripted_tasks[0].cost_cu == 2.0
    with pytest.raises(ConfigError, match="scripted_tasks"):
        parse_scenario({"scripted_tasks": [{"device": 0, "when": 1.0}]})


def scripted(device=0, at_s=1.0, cost_cu=2.0):
    """A 2-vehicle scenario with one scripted task."""
    return {"grid": {"rows": 1, "cols": 1}, "vehicles_per_rsu": 2,
            "scripted_tasks": [{"device": 0, "at_s": 0.5, "cost_cu": 1.0},
                               {"device": device, "at_s": at_s, "cost_cu": cost_cu}]}


def test_scripted_task_device_out_of_range():
    parse_scenario(scripted(device=1))
    for device in (2, -1):
        with pytest.raises(ConfigError, match=r"scripted_tasks\[1\]\.device"):
            parse_scenario(scripted(device=device))


def test_scripted_task_cost_must_be_positive():
    for cost in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"scripted_tasks\[1\]\.cost_cu"):
            parse_scenario(scripted(cost_cu=cost))


def test_scripted_task_at_s_not_negative():
    parse_scenario(scripted(at_s=0.0))
    with pytest.raises(ConfigError, match=r"scripted_tasks\[1\]\.at_s"):
        parse_scenario(scripted(at_s=-0.1))


def test_cli_run_rejects_bad_scripted_task(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scripted(device=99)))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "scripted_tasks[1].device" in capsys.readouterr().err


def test_v2v_range_not_negative():
    parse_scenario({"thresholds": {"v2v_range_m": 0.0}})
    for value in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"thresholds\.v2v_range_m"):
            parse_scenario({"thresholds": {"v2v_range_m": value}})


def test_neighbor_expiry_not_negative():
    parse_scenario({"thresholds": {"neighbor_expiry_s": 0.0}})
    with pytest.raises(ConfigError, match=r"thresholds\.neighbor_expiry_s"):
        parse_scenario({"thresholds": {"neighbor_expiry_s": -0.5}})


def test_cli_run_rejects_negative_v2v_range(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"thresholds": {"v2v_range_m": -1.0}}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "thresholds.v2v_range_m" in capsys.readouterr().err


def test_sense_period_must_be_positive():
    # a zero period divided the report period by zero
    for value in (0, -100.0, 0.0004, 0.0015, float("nan")):
        with pytest.raises(ConfigError, match=r"periods\.sense_ms"):
            parse_scenario({"periods": {"sense_ms": value}})


@pytest.mark.parametrize("key", ["report_s", "fusion_s", "epoch_s"])
def test_periods_are_whole_multiples_of_sense_period(key):
    # report_s 0.01 was a modulo by zero, fusion_s 0.33 silently ran 0.3 s
    # windows
    for value in (0.01, 0.33, 0.0, -1.0, float("inf")):
        with pytest.raises(ConfigError, match=rf"periods\.{key}"):
            parse_scenario({"periods": {key: value}})
    cfg = parse_scenario({"periods": {"sense_ms": 50, key: 0.35}, "duration_s": 40.0})
    assert getattr(cfg.periods, key) == 0.35


def test_load_scenario_files(tmp_path):
    good = tmp_path / "s.json"
    good.write_text(json.dumps({"seed": 9}))
    assert load_scenario(good).seed == 9

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert load_scenario(empty).seed == ScenarioConfig().seed

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(bad)

    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_scenario(arr)


def test_default_hotspot_scenario_shape():
    cfg = default_hotspot_scenario(5)
    assert cfg.seed == 5
    assert cfg.hotspot.region == 0
    assert cfg.hotspot.t_end_s == cfg.duration_s
    validate(cfg)


def test_link_times_in_microseconds():
    """A link keeps the scenario's ms and gives the engine whole us; each
    default link's delay at each message size is pinned."""
    links = ScenarioConfig().links
    assert links.v2r.base_latency_us == 5_000
    assert links.v2r.retx_timeout_us == 20_000
    assert links.v2r.max_attempts == 3
    w = WorkloadConfig()
    sizes = [getattr(w, f.name) for f in fields(w) if f.name.endswith("_bytes")]
    assert sizes + [DIRECTIVE_BYTES] == [2000, 1000, 500, 100, 1500, 300, 200]
    delays = {"v2r": [5200, 5100, 5050, 5010, 5150, 5030, 5020],
              "r2c": [25020, 25010, 25005, 25001, 25015, 25003, 25002],
              "v2v": [5000, 4000, 3500, 3100, 4500, 3300, 3200],
              "e2e": [10020, 10010, 10005, 10001, 10015, 10003, 10002]}
    for name, want in delays.items():
        link = getattr(links, name)
        assert [link_latency(link, n) for n in sizes + [DIRECTIVE_BYTES]] == want


@pytest.mark.parametrize("key,value,message", [
    ("bandwidth_bps", 0, r"must be > 0"),
    ("loss_prob", 1.0, r"must be in \[0, 1\)"),
    ("max_attempts", 0, r"must be >= 1"),
])
def test_link_checked_at_parse_time(key, value, message):
    with pytest.raises(ConfigError, match=rf"^links\.v2r\.{key}: {message}"):
        parse_scenario({"links": {"v2r": {key: value}}})


def test_link_delay_cache_is_no_scenario_key(tmp_path, capsys):
    data = {"links": {"v2r": {"delays": {}}}}
    with pytest.raises(ConfigError, match=r"^unknown key: links\.v2r\.delays$"):
        parse_scenario(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "unknown key: links.v2r.delays" in capsys.readouterr().err


MESSAGE_SIZES = [f.name for f in fields(WorkloadConfig) if f.name.endswith("_bytes")]


@pytest.mark.parametrize("key", MESSAGE_SIZES)
def test_message_sizes_not_negative(key):
    # a negative request or report size parsed, then scheduled a delivery
    # in the past (CausalityError, CLI exit 1); a negative beacon size ran
    # with beacons heard before they were sent
    assert getattr(parse_scenario({"workload": {key: 0}}).workload, key) == 0
    with pytest.raises(ConfigError, match=rf"^workload\.{key}: must be >= 0"):
        parse_scenario({"workload": {key: -1}})


def test_cli_run_rejects_negative_request_size(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**SMALL_GRID, "workload": {"request_bytes": -100_000_000}}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "workload.request_bytes: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("data,path", [
    ({"vehicles_per_rsu": "200"}, r"vehicles_per_rsu"),
    ({"periods": {"sense_ms": "100"}}, r"periods\.sense_ms"),
    ({"thresholds": {"v2v_range_m": "150"}}, r"thresholds\.v2v_range_m"),
])
def test_string_where_number_belongs_rejected(data, path):
    # each raised TypeError in validation (CLI exit 1)
    with pytest.raises(ConfigError, match=rf"{path}: expected a number"):
        parse_scenario(data)


def test_non_numbers_rejected_with_path():
    for data, path in (({"grid": {"rows": True}}, r"grid\.rows"),
                       ({"links": {"v2r": {"loss_prob": None}}}, r"links\.v2r\.loss_prob"),
                       ({"hotspot": {"rate_multiplier": "12"}}, r"hotspot\.rate_multiplier"),
                       ({"workload": {"cost_range_cu": [1.0, "10"]}},
                        r"workload\.cost_range_cu\[1\]"),
                       ({"speed_range_mps": 8.0}, r"speed_range_mps"),
                       ({"scripted_tasks": [{"device": "0", "at_s": 1.0, "cost_cu": 2.0}]},
                        r"scripted_tasks\[0\]\.device"),
                       ({"scripted_tasks": [{"device": 0, "cost_cu": 2.0}]},
                        r"scripted_tasks\[0\]\.at_s")):
        with pytest.raises(ConfigError, match=path):
            parse_scenario(data)


def test_cli_run_rejects_string_number(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"vehicles_per_rsu": "200"}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "vehicles_per_rsu" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["base_latency_ms", "retx_timeout_ms"])
def test_link_times_not_negative(key):
    # a negative time raised CausalityError mid-run
    parse_scenario({"links": {"v2v": {key: 0.0}}})
    for value in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match=rf"links\.v2v\.{key}"):
            parse_scenario({"links": {"v2v": {key: value}}})


def test_at_least_one_vehicle_per_rsu():
    # 0 vehicles ran, and then summarize raised on the empty record set
    parse_scenario({"vehicles_per_rsu": 1})
    with pytest.raises(ConfigError, match="vehicles_per_rsu"):
        parse_scenario({"vehicles_per_rsu": 0})


@pytest.mark.parametrize("data,path", [
    # parsed, then Simulation raised TypeError (CLI exit 1)
    ({"vehicles_per_rsu": 2.5}, r"vehicles_per_rsu"),
    ({"grid": {"rows": 1.5}}, r"grid\.rows"),
    # ran with a fractional retry budget
    ({"links": {"v2r": {"max_attempts": 1.5}}}, r"links\.v2r\.max_attempts"),
    # ran with the hotspot silently off: no current_rsu equals 0.5
    ({"hotspot": {"region": 0.5}}, r"hotspot\.region"),
    # ran on the seed label "1.5"
    ({"seed": 1.5}, r"seed"),
    # int() truncated it to vehicle 0
    ({"scripted_tasks": [{"device": 0.7, "at_s": 1.0, "cost_cu": 2.0}]},
     r"scripted_tasks\[0\]\.device"),
    ({"workload": {"report_bytes": float("inf")}}, r"workload\.report_bytes"),
])
def test_fraction_where_integer_belongs_rejected(data, path):
    with pytest.raises(ConfigError, match=rf"{path}: expected a whole number"):
        parse_scenario(data)


def test_whole_float_stored_as_int():
    cfg = parse_scenario({"vehicles_per_rsu": 2.0, "grid": {"rows": 1.0, "cols": 1},
                          "links": {"v2r": {"max_attempts": 2.0}}, "seed": 3.0,
                          "hotspot": {"region": 0.0},
                          "scripted_tasks": [{"device": 1.0, "at_s": 1, "cost_cu": 2}]})
    values = (cfg.vehicles_per_rsu, cfg.grid.rows, cfg.links.v2r.max_attempts,
              cfg.seed, cfg.hotspot.region, cfg.scripted_tasks[0].device)
    assert values == (2, 1, 2, 3, 0, 1)
    assert all(type(v) is int for v in values)


def test_cli_run_rejects_fractional_vehicle_count(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"vehicles_per_rsu": 2.5}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "vehicles_per_rsu: expected a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("data,message", [
    # AttributeError
    ({"hotspot": 5}, r"hotspot: expected an object"),
    # TypeError
    ({"scripted_tasks": 5}, r"scripted_tasks: expected a list"),
    ({"scripted_tasks": [5]}, r"scripted_tasks\[0\]: expected an object"),
    # IndexError in validate
    ({"speed_range_mps": [5]}, r"speed_range_mps: expected two numbers"),
    ({"workload": {"cost_range_cu": [1]}}, r"workload\.cost_range_cu: expected two numbers"),
    # parsed, and the third number was ignored
    ({"speed_range_mps": [5, 6, 7]}, r"speed_range_mps: expected two numbers"),
    ({"policy": {"role_quotas": [0.5, 0.5]}}, r"policy\.role_quotas: expected three numbers"),
    ({"links": 5}, r"links: expected an object"),
    ({"links": {"v2r": [5.0]}}, r"links\.v2r: expected an object"),
    ({"links": {"foo": {}}}, r"unknown key: links\.foo"),
])
def test_wrong_shape_rejected_with_path(data, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario(data)


def test_cli_run_rejects_wrong_shape(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"speed_range_mps": [5]}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "speed_range_mps: expected two numbers" in capsys.readouterr().err


@pytest.mark.parametrize("key,lo,hi", [("local_serve_threshold", 0, 10),
                                       ("offload_fraction", 0, 1),
                                       ("congestion_speed_threshold", 3, 10)])
def test_policy_scalars_in_range(key, lo, hi):
    # the parser is the one check of the policy; 50 m/s used to run until
    # the first blueprint clamped it to 10
    for value in (lo, hi):
        assert getattr(parse_scenario({"policy": {key: value}}).policy, key) == value
    for value in (lo - 0.5, hi + 0.5, 50, float("nan")):
        with pytest.raises(ConfigError, match=rf"policy\.{key}: must be in \[{lo}, {hi}\]"):
            parse_scenario({"policy": {key: value}})


def test_role_quotas_non_negative():
    # ran with every vehicle in the acquisition role
    parse_scenario({"policy": {"role_quotas": [1, 0, 0]}})
    for quotas in ([1.2, -0.1, -0.1], [0.5, 0.6, 0.1], [0.5, 0.2, 0.2]):
        with pytest.raises(ConfigError, match=r"policy\.role_quotas"):
            parse_scenario({"policy": {"role_quotas": quotas}})


@pytest.mark.parametrize("data,path", [
    # parsed, then Simulation(cfg) was still building the grid after 20 s
    ({"grid": {"rows": 1e300}}, r"grid\.rows"),
    ({"grid": {"cols": 10**9}}, r"grid\.cols"),
    ({"vehicles_per_rsu": 10**12}, r"vehicles_per_rsu"),
    # each bound alone holds, the per-tick distance matrix does not
    ({"grid": {"rows": 100, "cols": 100}, "vehicles_per_rsu": 1000}, r"vehicles_per_rsu"),
])
def test_fleet_size_bounded_at_parse_time(data, path, tmp_path, capsys, monkeypatch):
    # rejected before anything is built: the CLI never reaches the grid
    monkeypatch.setattr(runner, "build_grid", lambda *a, **k: pytest.fail("grid built"))
    with pytest.raises(ConfigError, match=rf"^{path}: "):
        parse_scenario(data)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert re.search(rf"{path}: ", capsys.readouterr().err)


def test_fleet_bounds_admit_their_limits():
    cfg = parse_scenario({"grid": {"rows": MAX_GRID_SIDE, "cols": 1}, "vehicles_per_rsu": 10})
    assert cfg.n_vehicles * cfg.n_rsus == MAX_DISTANCE_CELLS
    parse_scenario({"grid": {"rows": 1, "cols": 1}, "vehicles_per_rsu": MAX_VEHICLES_PER_RSU})


@pytest.mark.parametrize("window", [0, -10.0, 1e-7, 10.0000005, 300.5, float("nan"),
                                    float("inf")])
def test_index_window_is_whole_microseconds_within_the_run(window):
    # 0 divided by zero in build_index_series after the whole run
    with pytest.raises(ConfigError, match=r"periods\.index_window_s"):
        parse_scenario({"periods": {"index_window_s": window}})
    cfg = parse_scenario({"periods": {"index_window_s": 300}})
    assert cfg.periods.index_window_s == 300


def test_cli_run_rejects_run_shorter_than_index_window(tmp_path, capsys):
    # parsed, then build_index_series raised IndexError after the whole run
    # (CLI exit 1)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 20,
                                "duration_s": 6, "periods": {"epoch_s": 5}}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "periods.index_window_s" in capsys.readouterr().err


@pytest.mark.parametrize("data,path", [
    # finite, so it parsed, and the run was still going when a 10 s timeout
    # stopped it
    ({"duration_s": 1e300}, r"duration_s"),
    ({"duration_s": MAX_DURATION_S + 1}, r"duration_s"),
    # a whole microsecond, so it parsed: one index window per microsecond
    ({"duration_s": MAX_DURATION_S, "periods": {"index_window_s": 1e-6}},
     r"periods\.index_window_s"),
    ({"duration_s": 1000, "periods": {"index_window_s": 0.009}}, r"periods\.index_window_s"),
    # finite, so they parsed, and the first run asked for about one task per
    # vehicle per microsecond, the last for 3e8 ticks
    ({"workload": {"task_rate_hz": 1e300}}, r"workload\.task_rate_hz"),
    ({"hotspot": {"rate_multiplier": 1e300}}, r"hotspot\.rate_multiplier"),
    ({"periods": {"sense_ms": 0.001}}, r"periods\.sense_ms"),
    ({"duration_s": 50_001, "periods": {"sense_ms": 50}}, r"periods\.sense_ms"),
    ({"workload": {"task_rate_hz": float("inf")}}, r"workload\.task_rate_hz"),
    ({"hotspot": {"rate_multiplier": float("inf")}}, r"hotspot\.rate_multiplier"),
])
def test_run_length_bounded_at_parse_time(data, path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    with pytest.raises(ConfigError, match=rf"^{path}: "):
        parse_scenario(data)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert re.search(rf"{path}: ", capsys.readouterr().err)


def test_cli_duration_option_bounded(capsys, monkeypatch):
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    assert main(["run", "--duration", "1e300"]) == 2
    assert "duration_s: must exceed one epoch and be at most 86,400 s" in capsys.readouterr().err


def test_run_length_bounds_admit_their_limits():
    assert parse_scenario({"duration_s": MAX_DURATION_S}).duration_s == MAX_DURATION_S
    cfg = parse_scenario({"duration_s": 1000, "periods": {"index_window_s": 0.01}})
    assert cfg.duration_s / cfg.periods.index_window_s == MAX_INDEX_WINDOWS


def test_cli_duration_option_bounded_by_task_count(tmp_path, capsys, monkeypatch):
    # 1 Hz per vehicle parses at 300 s; for a whole day it asks for 1e8 tasks
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"workload": {"task_rate_hz": 1.0}}))
    assert load_scenario(scenario).duration_s == 300
    assert main(["run", "--scenario", str(scenario), "--duration", "86400"]) == 2
    assert "workload.task_rate_hz: " in capsys.readouterr().err


def test_event_bounds_admit_their_limits():
    cfg = parse_scenario({"duration_s": 50_000, "periods": {"sense_ms": 50}})
    assert cfg.duration_s * 1000 / cfg.periods.sense_ms == MAX_TICKS
    # 1,000 vehicles for 1,000 s
    one_rsu = {"grid": {"rows": 1, "cols": 1}, "vehicles_per_rsu": 1000, "duration_s": 1000}
    cfg = parse_scenario({**one_rsu, "workload": {"task_rate_hz": 100}})
    assert cfg.workload.task_rate_hz * cfg.n_vehicles * cfg.duration_s == MAX_TASKS
    parse_scenario({**one_rsu, "workload": {"task_rate_hz": 12.5},
                    "hotspot": {"rate_multiplier": 8}})
    with pytest.raises(ConfigError, match=r"^hotspot\.rate_multiplier: "):
        parse_scenario({**one_rsu, "workload": {"task_rate_hz": 12.5},
                        "hotspot": {"rate_multiplier": 8.5}})
    # a multiplier below 1 does not lower the bound
    with pytest.raises(ConfigError, match=r"^workload\.task_rate_hz: "):
        parse_scenario({**one_rsu, "workload": {"task_rate_hz": 101},
                        "hotspot": {"rate_multiplier": 0.5}})


def test_default_scenarios_and_benchmark_workloads_parse():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        parse_scenario(workloads.scenario(name, 0, workloads.DURATION_S))
    validate(ScenarioConfig())
    validate(default_hotspot_scenario())


INF = float("inf")
SMALL_GRID = {"grid": {"rows": 1, "cols": 2}, "vehicles_per_rsu": 20, "duration_s": 31}


@pytest.mark.parametrize("data,path", [
    # each parsed, then raised OverflowError in set-up or in the run (CLI exit 1)
    ({"links": {"v2r": {"retx_timeout_ms": INF}}}, r"links\.v2r\.retx_timeout_ms"),
    ({"links": {"v2v": {"base_latency_ms": INF}}}, r"links\.v2v\.base_latency_ms"),
    ({"links": {"r2c": {"bandwidth_bps": 1e-300}}}, r"links\.r2c\.bandwidth_bps"),
    ({"speed_range_mps": [1, INF]}, r"speed_range_mps\[1\]"),
    ({"workload": {"cost_range_cu": [1, INF]}}, r"workload\.cost_range_cu\[1\]"),
    # a service time past the int64 busy_until
    ({"capacity": {"local_cu_s": 1e-300}}, r"capacity\.local_cu_s"),
    ({"thresholds": {"neighbor_expiry_s": INF}}, r"thresholds\.neighbor_expiry_s"),
    ({"scripted_tasks": [{"device": 0, "at_s": INF, "cost_cu": 1}]},
     r"scripted_tasks\[0\]\.at_s"),
    ({"scripted_tasks": [{"device": 0, "at_s": 1, "cost_cu": INF}]},
     r"scripted_tasks\[0\]\.cost_cu"),
    # ran to the end on NaN positions
    ({"grid": {"spacing_m": INF, "rsu_radius_m": INF}}, r"grid\.spacing_m"),
    # rejected only when the runner built the grid
    ({"grid": {"rsu_radius_m": 100}}, r"grid\.rsu_radius_m"),
    # each ran on overflowed floats: the squared distances, a heading's zero
    # norm and the report speed mean
    ({"grid": {"spacing_m": 1e200, "rsu_radius_m": 1e200}}, r"grid\.spacing_m"),
    ({"grid": {"spacing_m": 1e-300}}, r"grid\.spacing_m"),
    ({"speed_range_mps": [1, 1e308]}, r"speed_range_mps"),
])
def test_times_and_numbers_fit_the_clock(data, path, tmp_path, capsys, monkeypatch):
    data = {**SMALL_GRID, **data, "grid": {**SMALL_GRID["grid"], **data.get("grid", {})}}
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    with pytest.raises(ConfigError, match=rf"^{path}: "):
        parse_scenario(data)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert re.search(rf"{path}: ", capsys.readouterr().err)


def test_clock_bounds_admit_their_limits():
    cap = 1.0 / (MAX_SERVICE_US / 1e6)  # the 10 CU costliest task takes MAX_SERVICE_US
    parse_scenario({"capacity": {"local_cu_s": 10 * cap}})
    with pytest.raises(ConfigError, match=r"^capacity\.local_cu_s: "):
        parse_scenario({"capacity": {"local_cu_s": 9 * cap}})
    at_s = MAX_TIME_US / 1e6
    parse_scenario({"scripted_tasks": [{"device": 0, "at_s": at_s, "cost_cu": 1}],
                    "thresholds": {"neighbor_expiry_s": at_s},
                    "links": {"v2r": {"base_latency_ms": at_s * 1000}}})
    with pytest.raises(ConfigError, match=r"^links\.v2r\.retx_timeout_ms: "):
        parse_scenario({"links": {"v2r": {"retx_timeout_ms": at_s * 1000 * 1.01}}})


def test_geometry_and_speed_bounds_admit_their_limits():
    """The limits parse and run to the end without a float overflowing,
    dividing by zero or turning NaN; one step past each is rejected."""
    limits = [
        {"grid": {"spacing_m": MAX_MAP_SIDE_M, "rsu_radius_m": MAX_MAP_SIDE_M}},
        {"grid": {"rows": 2, "spacing_m": MIN_SPACING_M}},
        {"speed_range_mps": [MAX_SPEED_MPS, MAX_SPEED_MPS]},
    ]
    for data in limits:
        data = {**SMALL_GRID, **data, "grid": {**SMALL_GRID["grid"], **data.get("grid", {})}}
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = runner.run_showcase(parse_scenario(data))
        assert result.records
    side = MAX_MAP_SIDE_M / (MAX_GRID_SIDE - 1)
    parse_scenario({"grid": {"rows": 1, "cols": MAX_GRID_SIDE, "spacing_m": side,
                             "rsu_radius_m": side}, "vehicles_per_rsu": 1})
    for data, path in [
        ({"grid": {"cols": 2, "spacing_m": np.nextafter(MAX_MAP_SIDE_M, np.inf),
                   "rsu_radius_m": MAX_MAP_SIDE_M}}, r"grid\.spacing_m"),
        ({"grid": {"spacing_m": np.nextafter(MIN_SPACING_M, 0)}}, r"grid\.spacing_m"),
        ({"speed_range_mps": [1, np.nextafter(MAX_SPEED_MPS, np.inf)]}, r"speed_range_mps"),
    ]:
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            parse_scenario(data)


BIG = 10**400  # an integer literal that no float holds


@pytest.mark.parametrize("data,path", [
    # each raised OverflowError in the finiteness check or in float() (CLI exit 1)
    ({"duration_s": BIG}, r"duration_s"),
    ({"duration_s": -BIG}, r"duration_s"),
    ({"grid": {"rows": BIG}}, r"grid\.rows"),
    ({"scripted_tasks": [{"device": 0, "at_s": BIG, "cost_cu": 1}]},
     r"scripted_tasks\[0\]\.at_s"),
    ({"workload": {"request_bytes": BIG}}, r"workload\.request_bytes"),
    ({"links": {"v2r": {"max_attempts": BIG}}}, r"links\.v2r\.max_attempts"),
    ({"hotspot": {"t_end_s": BIG}}, r"hotspot\.t_end_s"),
    ({"speed_range_mps": [1, BIG]}, r"speed_range_mps\[1\]"),
])
def test_integers_too_large_for_a_float_rejected(data, path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    with pytest.raises(ConfigError, match=rf"^{path}: integer too large for a float$"):
        parse_scenario(data)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert re.search(rf"{path}: integer too large", capsys.readouterr().err)


@pytest.mark.parametrize("text", ['{"duration_s": %s}' % ("1" * 5000),
                                  '{"grid": {"rows": -%s}}' % ("9" * 4301)],
                         ids=["duration_s", "grid.rows"])
def test_integer_literals_past_the_digit_limit_rejected(text, tmp_path, capsys, monkeypatch):
    # json.loads raised ValueError, not JSONDecodeError (CLI exit 1)
    monkeypatch.setattr(runner, "Simulation", lambda *a, **k: pytest.fail("simulation built"))
    scenario = tmp_path / "s.json"
    scenario.write_text(text)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(scenario)
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
