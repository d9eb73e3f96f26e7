import copy
import functools
import hashlib

import numpy as np
import pytest

from twinsim.kernel import CLOUD, EDGES, VEHICLES, Engine
from twinsim.metrics import summarize
from twinsim.mobility import ConfigError
from twinsim.runner import Simulation, run_showcase
from twinsim.scenario import GridConfig, ScenarioConfig, parse_scenario

from oracles import take_report
from test_digests import SCENARIOS

US = 1_000_000


def micro_scenario():
    """1 RSU, 2 stationary vehicles, lossless links, 3 scripted tasks."""
    return parse_scenario({
        "grid": {"rows": 1, "cols": 1},
        "vehicles_per_rsu": 2,
        "duration_s": 31.0,
        "links": {"v2r": {"loss_prob": 0.0}, "v2v": {"loss_prob": 0.0}},
        "workload": {"task_rate_hz": 0.0},
        "scripted_tasks": [
            {"device": 0, "at_s": 1.0, "cost_cu": 2.0},
            {"device": 1, "at_s": 1.5, "cost_cu": 5.0},
            {"device": 1, "at_s": 2.0, "cost_cu": 8.0},
        ],
    })


def test_micro_scenario_hand_trace():
    """Every completion time follows from the latency/FIFO arithmetic.

    2 CU <= threshold: served locally, 2/50 s = 40 ms.
    5 CU: V2R up 5 ms + 2000 B / 1e7 B/s = 5200 us; edge service 5 ms;
          V2R down 5 ms + 100 us = 5100 us -> RT 15300 us.
    8 CU: same legs with 8 ms service -> RT 18300 us (server already idle).
    """
    res = run_showcase(micro_scenario())
    done = {r.task_id: r for r in res.records}
    assert len(done) == 3

    assert done[0].tier == "Local"
    assert done[0].completed_us == 1 * US + 40_000
    assert done[0].rt_us == 40_000

    assert done[1].tier == "Edge"
    assert done[1].edge_arrival_us == 1_500_000 + 5_200
    assert done[1].completed_us == 1_500_000 + 15_300
    assert done[1].rt_us == 15_300

    assert done[2].tier == "Edge"
    assert done[2].completed_us == 2_000_000 + 18_300
    assert done[2].rt_us == 18_300


def test_micro_scenario_message_conservation():
    res = run_showcase(micro_scenario())
    m = res.messages
    assert m.sent == m.delivered + m.dropped + m.in_flight
    assert m.in_flight >= 0


def short_cfg(**kw):
    cfg = ScenarioConfig(duration_s=40.0, **kw)
    return cfg


def test_short_run_task_accounting():
    res = run_showcase(short_cfg(seed=2))
    assert res.generated > 0
    assert res.generated == res.completed + res.dropped + res.in_flight
    assert res.in_flight >= 0
    for r in res.records:
        if r.completed_us is not None:
            assert not r.dropped
            assert r.tier in ("Local", "Edge", "PartnerEdge", "Cloud")
            assert r.rt_us > 0


def test_short_run_determinism_byte_identical(tmp_path):
    hashes = []
    for sub in ("a", "b"):
        res = run_showcase(short_cfg(seed=5), outdir=tmp_path / sub)
        digest = {}
        for name in ("tasks.csv", "indices.csv", "epochs.jsonl"):
            digest[name] = hashlib.sha256(
                (tmp_path / sub / name).read_bytes()).hexdigest()
        hashes.append(digest)
    assert hashes[0] == hashes[1]


def test_cloud_only_floor_and_zero_autonomy():
    res = run_showcase(short_cfg(seed=1, mode="cloud_only"))
    assert all(a == 0.0 for a in res.series.autonomy)
    completed = [r for r in res.records if r.completed_us is not None]
    assert completed
    assert all(r.tier == "Cloud" for r in completed)
    # analytic floor: V2R up + R2C up + min service + R2C down + V2R down
    assert min(r.rt_us for r in completed) >= 60_000


def test_cloud_only_slower_than_layered():
    layered = summarize(run_showcase(short_cfg(seed=3)).records)
    cloud = summarize(run_showcase(short_cfg(seed=3, mode="cloud_only")).records)
    assert layered["median_us"] < cloud["median_us"]


def test_epoch_log_monotone_and_complete():
    res = run_showcase(short_cfg(seed=0))  # 40 s -> one closed epoch
    assert len(res.epoch_records) == 6     # one record per region
    for rec in res.epoch_records:
        assert rec.epoch == 0
        assert rec.decision == "keep"      # baseline epoch always keeps


def test_run_showcase_validates_a_config_built_in_python():
    # skipped every parse-time bound: this one ran on zero heading norms
    # ("divide by zero encountered in divide" with numpy errors raised)
    cfg = ScenarioConfig(grid=GridConfig(rows=1, cols=2, spacing_m=1e-300),
                         vehicles_per_rsu=5, duration_s=31)
    with pytest.raises(ConfigError, match=r"^grid\.spacing_m: must be >= "):
        run_showcase(cfg)


def test_run_artifacts_written(tmp_path):
    run_showcase(micro_scenario(), outdir=tmp_path)
    tasks = (tmp_path / "tasks.csv").read_text()
    assert tasks.startswith("task_id,origin,created_us")
    assert len(tasks.strip().split("\n")) == 4  # header + 3 tasks
    indices = (tmp_path / "indices.csv").read_text()
    assert indices.startswith("window_end_us,autonomy,coordination")
    assert (tmp_path / "epochs.jsonl").read_text().count("\n") == 1


def test_directive_log_legality_on_hotspot():
    cfg = parse_scenario({
        "duration_s": 100.0,
        "hotspot": {"region": 0, "rate_multiplier": 8.0,
                    "t_start_s": 0.0, "t_end_s": 100.0},
    })
    res = run_showcase(cfg)
    assert res.directive_log, "hotspot run should issue directives"
    for d in res.directive_log:
        assert "Overload" in d.from_labels
        assert "Underload" in d.to_labels
        assert 0.0 <= d.fraction <= 1.0


def _backlogged_two_rsu_sim(**overrides):
    return Simulation(parse_scenario({
        "duration_s": 31.0,
        "grid": {"rows": 1, "cols": 2},
        "vehicles_per_rsu": 60,
        "capacity": {"local_cu_s": 10},
        "policy": {"local_serve_threshold": 10},
        **overrides,
    }))


def test_batched_reports_match_per_vehicle_fields():
    """The local twins build every report batch, 1 Hz or out of cycle, from
    their per-vehicle arrays in one pass; each row must carry what the
    vehicle's own fields give at send time (the channel quality of the
    latest report tick), its vehicles ascending."""
    sim = _backlogged_two_rsu_sim()
    local = sim.local
    send_batch = sim.engine.send_batch
    checked = {"reports": 0, "backlogged": 0, "batches": 0}
    cap = sim.cfg.capacity.local_cu_s

    def checking_send_batch(n, nbytes, link, deliver):
        now = sim.engine.now
        v, rsu, speed, cq, backlog = batch = deliver.args[0]
        assert n == len(v) and (np.diff(v) > 0).all()
        assert rsu.tolist() == sim.current_rsu[v].tolist()
        for i, device in enumerate(v.tolist()):
            assert speed[i] == sim.fleet.speed[device]
            assert cq[i] == local._report_cq[device]
            assert backlog[i] == max(0, local.busy_until.item(device) - now) / US * cap
            checked["backlogged"] += backlog[i] > 0
        assert all(x.dtype == np.float64 for x in batch[2:])
        checked["reports"] += n
        checked["batches"] += 1
        return send_batch(n, nbytes, link, deliver)

    sim.engine.send_batch = checking_send_batch
    sim.run()
    assert checked["reports"] > 30 * sim.cfg.n_vehicles
    assert checked["batches"] > 30
    assert checked["backlogged"] > 0


@pytest.mark.parametrize("v2r_latency_ms", [5, 250])
def test_report_batch_delivery_matches_one_at_a_time_reports(v2r_latency_ms):
    """Delivering each report batch from its arrays (``EdgeTwins.take_batch``)
    leaves every edge window, held report, role, task record and message
    counter as sending each report on its own (``Engine.send``) to the
    scalar oracle ``take_report`` does.  At 250 ms some vehicles change RSU
    while their report is in flight.  A batch retries its lost rows in one
    event, so it takes fewer retransmission events."""
    def run(batched):
        sim = _backlogged_two_rsu_sim(links={"v2r": {"base_latency_ms": v2r_latency_ms}})
        engine, edges = sim.engine, sim.edges
        send_batch, schedule, retx = engine.send_batch, engine.schedule, []
        engine.register("oracle", functools.partial(take_report, edges))

        def sending(n, nbytes, link, deliver):
            if batched:
                return send_batch(n, nbytes, link, deliver)
            v, rsu, speed, cq, backlog = deliver.args[0]
            for i in range(n):
                engine.send("oracle", (rsu.item(i), v.item(i), speed.item(i), cq.item(i),
                                       backlog.item(i)), nbytes, link)

        def counting(at_us, fn, *args, kind="timer"):
            retx.extend([at_us] * (kind == "retx"))
            return schedule(at_us, fn, *args, kind=kind)
        engine.send_batch, engine.schedule = sending, counting
        roles, fuse = [], edges.fuse_and_uplink

        def recording_fuse(now):
            fuse(now)
            roles.append(edges.role.tolist())
        edges.fuse_and_uplink = recording_fuse
        result = sim.run()
        held = (edges.has.tolist(), edges.cq.tolist(), edges.backlog.tolist())
        return result, roles, held, retx

    (batched, roles_b, held_b, retx_b), (single, roles_s, held_s, retx_s) = run(True), run(False)
    assert 0 < len(retx_b) < len(retx_s)  # some rows of a batch retry
    assert set(retx_b) <= set(retx_s)
    assert batched.label_log == single.label_log
    assert roles_b == roles_s and len(roles_b) > 0
    assert held_b == held_s and any(held_b[0])
    assert batched.records == single.records
    m_b, m_s = batched.messages, single.messages
    assert (m_b.sent, m_b.delivered, m_b.dropped) == (m_s.sent, m_s.delivered, m_s.dropped)
    assert m_b.dropped > 0


def test_every_vehicle_covered_at_smallest_radius():
    """At the smallest radius the parser accepts, half the spacing, each
    vehicle's serving RSU covers it on every tick."""
    sim = Simulation(parse_scenario({
        "duration_s": 31.0,
        "grid": {"rows": 1, "cols": 2, "spacing_m": 1005.0, "rsu_radius_m": 502.5},
        "vehicles_per_rsu": 100,
    }))
    update = sim._update_coverage
    ticks = 0

    def checked_update():
        nonlocal ticks
        moved, d_cur = update()
        assert (d_cur <= sim.net.rsu_radius_m).all()
        ticks += 1
        return moved, d_cur

    sim._update_coverage = checked_update
    sim.run()
    assert ticks == 310


def test_one_endpoint_per_layer(monkeypatch):
    """Every RSU's edge twin shares ``EDGES``, the cloud is ``CLOUD`` and
    every vehicle shares ``VEHICLES``: each a twin object's bound
    ``receive``."""
    registered = {}
    monkeypatch.setattr(Engine, "register",
                        lambda eng, name, handler: registered.setdefault(name, handler))
    sim = _backlogged_two_rsu_sim()
    assert sim.cfg.n_rsus == 2
    assert sorted(registered) == sorted((EDGES, CLOUD, VEHICLES)) == [0, 1, 2]
    owners = [sim.edges, sim.cloud, sim.local]
    assert [registered[i].__self__ for i in (EDGES, CLOUD, VEHICLES)] == owners
    assert all(h.__func__.__name__ == "receive" for h in registered.values())


def test_records_come_in_id_and_creation_order():
    """Task ids are issued in event order, so a run's records, which
    ``tasks_csv`` writes as they come, are in id order and in
    ``created_us`` order."""
    result = run_showcase(parse_scenario(copy.deepcopy(SCENARIOS["hotspot"])))
    records = result.records
    assert len(records) > 1000
    assert [r.task_id for r in records] == list(range(len(records)))
    created = [r.created_us for r in records]
    assert all(a <= b for a, b in zip(created, created[1:]))


def test_simulations_from_one_config_stay_apart(tmp_path):
    """Two simulations built from one ``cfg`` and advanced in alternating 5 s
    slices each write the artifacts of a fresh run of that ``cfg``: no random
    stream and no link-delay cache is shared between runs."""
    cfg = parse_scenario({"seed": 5, "duration_s": 61.0, "vehicles_per_rsu": 40,
                          "hotspot": {"region": 1, "t_end_s": 61}})
    sims = [Simulation(cfg), Simulation(cfg)]
    for t_us in range(5 * US, cfg.duration_us + 5 * US, 5 * US):
        for sim in sims:
            sim.engine.run_until(min(t_us, cfg.duration_us))
    for i, sim in enumerate(sims):
        sim.run().write(tmp_path / str(i))
    run_showcase(cfg, tmp_path / "fresh")
    for name in ("tasks.csv", "indices.csv", "epochs.jsonl"):
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert fresh.count(b"\n") > 1
        assert (tmp_path / "0" / name).read_bytes() == fresh, name
        assert (tmp_path / "1" / name).read_bytes() == fresh, name
