"""Showcase runner: wires the three twin layers into one deterministic
simulation instance, runs it and returns the run artifacts (task records,
index series, epoch log).  It holds none of the layers' logic.

The ``Simulation`` builds the engine and the world (grid, fleet and
``current_rsu``, which only its tick writes, in place), hands the engine
the loss stream and the fleet the mobility stream, and is the read-only view
the layers read it from.  It builds one object per twin layer, the
``EdgeTwins`` of every RSU, the ``CloudTwin`` and the ``LocalTwins`` of the
fleet, which derive their own streams, and registers each one's ``receive``
as the layer's kernel endpoint: ``EDGES``, ``CLOUD`` and ``VEHICLES``.  Each
tick moves the fleet, updates coverage, searches the V2V pairs in range
(``pair_search``) and calls into the layers: the vehicles that changed RSU
send one report batch, and at a report tick every vehicle does.

Modes: "layered" runs the full pyramid; "cloud_only" is the centralised
baseline (local serving off, edge compute disabled, everything relayed to
the cloud).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel, metrics
from .cloud import CloudTwin, EpochRecord, OffloadDirective
from .edge import EdgeTwins, RegionState
from .kernel import CLOUD, EDGES, US_PER_S, VEHICLES, Engine, rng_stream, numpy_stream
from .local import LocalTwins
from .metrics import TaskRecord, build_index_series
from .mobility import Fleet, build_grid, pair_search, serving_rsu
from .scenario import ScenarioConfig, validate


@dataclass
class RunResult:
    records: list[TaskRecord]
    series: metrics.IndexSeries
    epoch_records: list[EpochRecord]
    directive_log: list[OffloadDirective]
    label_log: list[RegionState]
    messages: kernel.MessageCounters
    wall_time_s: float

    @property
    def generated(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed_us is not None)

    @property
    def dropped(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    @property
    def in_flight(self) -> int:
        return self.generated - self.completed - self.dropped

    def write(self, outdir: str | Path) -> None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tasks.csv").write_text(metrics.tasks_csv(self.records), newline="")
        (out / "indices.csv").write_text(metrics.indices_csv(self.series), newline="")
        lines = "".join(r.to_json() + "\n" for r in self.epoch_records)
        (out / "epochs.jsonl").write_text(lines, newline="")


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.engine = Engine(rng_stream(cfg.seed, "loss"))
        # every period is a whole number of sensing ticks (checked at parse time)
        self._sense_us = round(cfg.periods.sense_ms * 1000)
        self._report_ticks, self._fusion_ticks, self._epoch_ticks = (
            round(period_s * US_PER_S / self._sense_us)
            for period_s in (cfg.periods.report_s, cfg.periods.fusion_s, cfg.periods.epoch_s))

        self.net = build_grid(cfg.grid.rows, cfg.grid.cols, cfg.grid.spacing_m,
                              cfg.grid.rsu_radius_m)
        self.fleet = Fleet(self.net, numpy_stream(cfg.seed, "mobility"), self._sense_us / US_PER_S,
                           tuple(cfg.speed_range_mps),
                           np.repeat(np.arange(cfg.n_rsus), cfg.vehicles_per_rsu))
        self.current_rsu, _ = serving_rsu(self.fleet.pos, self.net.intersections,
                                          self.net.rsu_radius_m, None, cfg.grid.hysteresis_m)
        self._screen_m = self.net.screen_radius

        self.cloud = CloudTwin(self, self._epoch_ticks * self._sense_us)
        self.edges = EdgeTwins(self, self._fusion_ticks * self._sense_us)
        self.local = LocalTwins(self, self.edges, self.cloud)
        self.engine.register(EDGES, self.edges.receive)
        self.engine.register(CLOUD, self.cloud.receive)
        self.engine.register(VEHICLES, self.local.receive)

        self._tick_index = 0
        self.engine.schedule(self._sense_us, self._tick, kind="tick")

    def _tick(self) -> None:
        self._tick_index = tick = self._tick_index + 1
        now = self.engine.now
        local = self.local
        self.fleet.step()
        moved, d_cur = self._update_coverage()
        if len(moved):
            self.edges.forget(moved)
            local.send_reports(moved, now)
        if tick % self._report_ticks == 0:
            local.beacon_pass(now, pair_search(self.fleet.pos, self.cfg.thresholds.v2v_range_m))
            local.emit_reports(now, d_cur / self.net.rsu_radius_m)
        if tick % self._fusion_ticks == 0:
            self.edges.fuse_and_uplink(now)
        if tick % self._epoch_ticks == 0:
            self.cloud.epoch_boundary(now, tick // self._epoch_ticks - 1)
        nxt = now + self._sense_us
        if nxt <= self.cfg.duration_us:
            self.engine.schedule(nxt, self._tick, kind="tick")

    def _update_coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """Move ``current_rsu`` in place to each vehicle's serving RSU; returns
        the vehicles that changed RSU and each one's distance to its RSU."""
        rsu, d_cur = serving_rsu(self.fleet.pos, self.net.intersections, self.net.rsu_radius_m,
                                 self.current_rsu, self.cfg.grid.hysteresis_m, self._screen_m)
        moved = np.flatnonzero(rsu != self.current_rsu)
        self.current_rsu[:] = rsu
        return moved, d_cur

    def run(self) -> RunResult:
        start = time.perf_counter()
        self.engine.run_until(self.cfg.duration_us)
        wall = time.perf_counter() - start
        series = build_index_series(
            self.local.records, self.cfg.duration_us,
            round(self.cfg.periods.index_window_s * US_PER_S))
        return RunResult(
            records=self.local.records,
            series=series,
            epoch_records=self.cloud.epoch_records,
            directive_log=self.cloud.directive_log,
            label_log=self.edges.label_log,
            messages=self.engine.messages,
            wall_time_s=wall,
        )


def run_showcase(cfg: ScenarioConfig, outdir: str | Path | None = None) -> RunResult:
    """Check one scenario, as ``scenario.validate`` does at parse time, and
    run it to completion; optionally write run artifacts."""
    validate(cfg)
    sim = Simulation(cfg)
    result = sim.run()
    if outdir is not None:
        result.write(outdir)
    return result
