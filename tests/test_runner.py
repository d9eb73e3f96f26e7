import hashlib

import pytest

from twinsim.kernel import Engine
from twinsim.metrics import summarize
from twinsim.mobility import ConfigError
from twinsim.runner import Simulation, run_showcase
from twinsim.scenario import GridConfig, ScenarioConfig, parse_scenario

from oracles import channel_quality, rsu_distances, window_mean_speed

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
    """The local twins build the 1 Hz reports from their per-vehicle arrays
    in one pass; each must carry what the per-vehicle accessors give at send
    time, in vehicle order."""
    sim = _backlogged_two_rsu_sim()
    local = sim.local
    send_batch = sim.engine.send_batch
    checked = {"reports": 0, "backlogged": 0}

    def checking_send_batch(dsts, nbytes, link, deliver, payload):
        now = sim.engine.now
        assert dsts.tolist() == sim.current_rsu.tolist()
        for v in range(sim.cfg.n_vehicles):
            kind, (device, mean_speed, cq, backlog) = payload(v)
            assert kind == "report" and device == v
            rsu = dsts[v]
            d = rsu_distances(sim.net, sim.fleet.pos[v])[rsu]
            # 1 s report windows of 100 ms ticks
            assert mean_speed == window_mean_speed(float(sim.fleet.speed[v]), 10)
            assert mean_speed == pytest.approx(sim.fleet.speed[v])
            assert cq == channel_quality(d, sim.net.rsu_radius_m)
            assert backlog == local.backlog_cu(v, now)
            assert all(type(x) is float for x in (mean_speed, cq, backlog))
            checked["backlogged"] += backlog > 0
        checked["reports"] += len(dsts)
        return send_batch(dsts, nbytes, link, deliver, payload)

    sim.engine.send_batch = checking_send_batch
    sim.run()
    assert checked["reports"] > 0
    assert checked["backlogged"] > 0


@pytest.mark.parametrize("v2r_latency_ms", [5, 250])
def test_report_batch_delivery_matches_one_at_a_time_reports(v2r_latency_ms):
    """Delivering a report batch from its arrays (``HeldReports.take_batch``)
    leaves every edge window, held report, role and task record as sending
    each report on its own (``Engine.send`` to ``EdgeTwin.receive``) does.
    At 250 ms some vehicles change RSU while their report is in flight."""
    def run(batched):
        sim = _backlogged_two_rsu_sim(links={"v2r": {"base_latency_ms": v2r_latency_ms}})
        send_batch, lost = sim.engine.send_batch, []

        def sending(dsts, nbytes, link, deliver, payload):
            if batched:
                def lost_payload(i):
                    lost.append(i)
                    return payload(i)
                return send_batch(dsts, nbytes, link, deliver, lost_payload)
            for i, dst in enumerate(dsts):
                sim.engine.send(dst, payload(i), nbytes, link)
        sim.engine.send_batch = sending
        roles = []

        def recording(fuse):
            def recording_fuse(now):
                fuse(now)
                roles.append(sim.held.role.tolist())
            return recording_fuse
        for e in sim.edges:
            e.fuse_and_uplink = recording(e.fuse_and_uplink)
        result = sim.run()
        held = (sim.held.has.tolist(), sim.held.cq.tolist(), sim.held.backlog.tolist())
        return result, roles, held, len(lost)

    (batched, roles_b, held_b, lost), (single, roles_s, held_s, _) = run(True), run(False)
    assert lost > 0  # some reports of a batch retransmit on their own
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


def test_one_endpoint_per_twin(monkeypatch):
    """Edge ``r`` is endpoint ``r``, the cloud ``n_rsus`` and every vehicle
    shares ``n_rsus + 1``: each a twin object's bound ``receive``."""
    registered = {}
    monkeypatch.setattr(Engine, "register",
                        lambda eng, name, handler: registered.setdefault(name, handler))
    sim = _backlogged_two_rsu_sim()
    n_rsus = sim.cfg.n_rsus
    assert sorted(registered) == list(range(n_rsus + 2))
    owners = [*sim.edges, sim.cloud, sim.local]
    assert [registered[i].__self__ for i in range(n_rsus + 2)] == owners
    assert all(h.__func__.__name__ == "receive" for h in registered.values())


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
