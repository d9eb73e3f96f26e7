import json

import pytest

from twinsim.cli import main
from twinsim.mobility import ConfigError
from twinsim.scenario import (ScenarioConfig, default_hotspot_scenario,
                              load_scenario, parse_scenario, validate)


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.n_rsus == 6
    assert cfg.n_vehicles == 1200
    assert cfg.mode == "layered"
    assert cfg.duration_us == 300_000_000
    assert cfg.links["v2r"].base_latency_ms == 5.0
    assert cfg.links["r2c"].loss_prob == 0.0
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
    assert cfg.links["v2r"].loss_prob == 0.05
    assert cfg.links["v2r"].base_latency_ms == 5.0


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


def test_link_to_spec_unit_conversion():
    cfg = ScenarioConfig()
    spec = cfg.links["v2r"].to_spec()
    assert spec.base_latency_us == 5_000
    assert spec.retx_timeout_us == 20_000
    assert spec.max_attempts == 3
