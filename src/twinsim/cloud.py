"""Cloud twin: cross-regional knowledge graph of the latest region labels
and utilization, (1+1)-style blueprint evolution with rollback, and
overload/underload pairing directives.  A blueprint is an ``edge.Policy``
with its lineage: the target region, the epoch and the parent blueprint.

``CloudTwin``, the kernel endpoint ``CLOUD``, owns the cloud FIFO and the
results it sends back to the edge layer (``EDGES``), the uplink ingest,
each region's per-epoch completion tallies, and the epoch boundary.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .edge import PARAM_RANGES, Policy, UplinkPackage
from .kernel import EDGES, US_PER_S, rng_stream
from .local import drop_task
from .metrics import BELOW_CLOUD, median

DIRECTIVE_BYTES = 200  # size of an offload directive message

# round-robin mutation order, one parameter per epoch
MUTATION_ORDER = (
    "local_serve_threshold",
    "offload_fraction",
    "congestion_speed_threshold",
    "role_quotas",
)


def clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


@dataclass(frozen=True)
class PolicyBlueprint:
    target: int                       # the region's rsu id
    epoch: int
    parent_id: str | None
    policy: Policy

    @property
    def blueprint_id(self) -> str:
        return f"{self.target}:{self.epoch}"


def blueprint_dict(bp: PolicyBlueprint) -> dict:
    # its object in epochs.jsonl; json writes the role_quotas tuple as a list
    return {
        "target": bp.target,
        "epoch": bp.epoch,
        "parent": bp.parent_id,
        "params": asdict(bp.policy),
    }


@dataclass(frozen=True)
class OffloadDirective:
    from_rsu: int
    to_rsu: int
    fraction: float
    epoch: int
    expires_at_us: int


@dataclass
class RegionNode:
    labels: tuple[str, ...] = ("Normal",)
    utilization: float = 0.0


class KnowledgeGraph:
    """One node per RSU region holding its latest labels and utilization;
    edges follow RSU adjacency."""

    def __init__(self, rsu_ids: list[int], adjacency: dict[int, list[int]]):
        self.nodes = {r: RegionNode() for r in rsu_ids}
        self.adjacency = adjacency

    def ingest(self, package: UplinkPackage) -> None:
        """Latch a package's labels and utilization on its region."""
        node = self.nodes[package.rsu_id]
        node.labels = package.event_labels
        node.utilization = package.utilization


def coordinate(graph: KnowledgeGraph, fractions: dict[int, float], epoch: int,
               expires_at_us: int) -> list[OffloadDirective]:
    """Pair each overloaded region with its lowest-utilization underloaded
    neighbor; no region joins two pairings; ties break on rsu id."""
    overloaded = sorted(
        r for r, n in graph.nodes.items() if "Overload" in n.labels
    )
    taken: set[int] = set()
    directives = []
    for r in overloaded:
        candidates = [
            n for n in graph.adjacency.get(r, [])
            if n not in taken and "Underload" in graph.nodes[n].labels
        ]
        if not candidates:
            continue
        partner = min(candidates, key=lambda n: (graph.nodes[n].utilization, n))
        taken.add(partner)
        taken.add(r)
        directives.append(
            OffloadDirective(r, partner, fractions.get(r, 0.0), epoch, expires_at_us)
        )
    return directives


def mutate_blueprint(parent: PolicyBlueprint, epoch: int, rng) -> PolicyBlueprint:
    """(1+1)-ES step: one parameter chosen round-robin per epoch, Gaussian
    perturbation with sigma = 10% of the parameter's range, clamped."""
    which = MUTATION_ORDER[(epoch - 1) % len(MUTATION_ORDER)]
    if which == "role_quotas":
        lo, hi = PARAM_RANGES["acquisition_quota"]
        sigma = 0.1  # 10% of the unit quota scale
        acq, proc, coord = parent.policy.role_quotas
        new_acq = clamp(acq + rng.gauss(0.0, sigma), lo, hi)
        rest = 1.0 - new_acq
        old_rest = proc + coord
        if old_rest > 1e-12:
            proc, coord = proc / old_rest * rest, coord / old_rest * rest
        else:
            proc = coord = rest / 2.0
        # keep every role staffed
        if proc < 0.05:
            coord -= 0.05 - proc
            proc = 0.05
        if coord < 0.05:
            proc -= 0.05 - coord
            coord = 0.05
        new_acq, proc = round(new_acq, 9), round(proc, 9)
        value = (new_acq, proc, round(1.0 - new_acq - proc, 9))
    else:
        lo, hi = PARAM_RANGES[which]
        sigma = 0.1 * (hi - lo)
        value = clamp(getattr(parent.policy, which) + rng.gauss(0.0, sigma), lo, hi)
    return PolicyBlueprint(parent.target, epoch, parent.blueprint_id,
                           replace(parent.policy, **{which: value}))


def evaluate_epoch(prev_kept_median_us: float | None,
                   candidate_median_us: float | None,
                   tolerance: float = 1.05) -> str:
    """Keep unless the candidate's median response time is strictly worse
    than tolerance times the previous kept epoch's median."""
    if prev_kept_median_us is None or candidate_median_us is None:
        return "keep"
    if candidate_median_us > tolerance * prev_kept_median_us:
        return "rollback"
    return "keep"


@dataclass
class EpochRecord:
    epoch: int
    rsu_id: int
    blueprint: PolicyBlueprint
    median_rt_us: float | None
    autonomy: float | None
    decision: str

    def to_json(self) -> str:
        payload = {
            "epoch": self.epoch,
            "rsu": self.rsu_id,
            "blueprint": blueprint_dict(self.blueprint),
            "median_rt_us": self.median_rt_us,
            "autonomy": self.autonomy,
            "decision": self.decision,
        }
        return json.dumps(payload, separators=(",", ":"))


class RegionEvolution:
    """Per-region (1+1) evolution state: kept parent, live candidate, and the
    kept parent's observed fitness."""

    def __init__(self, initial: PolicyBlueprint):
        self.kept = initial
        self.kept_median_us: float | None = None
        self.candidate: PolicyBlueprint | None = None

    def close_epoch(self, observed_median_us: float | None) -> tuple[str, PolicyBlueprint]:
        """Decide on the epoch that just ended; returns (decision, active
        blueprint going forward).  Rollback restores the parent's params
        exactly (same frozen object)."""
        if self.candidate is None:
            # first full epoch ran the initial blueprint
            self.kept_median_us = observed_median_us
            return "keep", self.kept
        decision = evaluate_epoch(self.kept_median_us, observed_median_us)
        if decision == "keep":
            self.kept = self.candidate
            if observed_median_us is not None:
                self.kept_median_us = observed_median_us
        self.candidate = None
        return decision, self.kept

    def open_epoch(self, epoch: int, rng) -> PolicyBlueprint:
        self.candidate = mutate_blueprint(self.kept, epoch, rng)
        return self.candidate


@dataclass
class DirectiveLogEntry:
    issued_us: int
    epoch: int
    from_rsu: int
    to_rsu: int
    fraction: float
    from_labels: tuple
    to_labels: tuple


class CloudTwin:
    """The one cloud twin; ``world`` is the runner's read-only view."""

    def __init__(self, world, epoch_us: int):
        cfg = self.cfg = world.cfg
        self.engine = world.engine
        self._r2c = cfg.links.r2c
        self.rng_mutation = rng_stream(cfg.seed, "mutation")
        self.epoch_us = epoch_us
        regions = range(cfg.n_rsus)
        self.graph = KnowledgeGraph(list(regions), world.net.adjacency)
        self.evolutions = {r: RegionEvolution(PolicyBlueprint(r, 0, None, cfg.policy))
                           for r in regions}
        self.busy_until = 0
        # per region: response times and below-cloud completions this epoch
        self.epoch_rts: dict[int, list[int]] = {r: [] for r in regions}
        self.epoch_below: dict[int, int] = {r: 0 for r in regions}
        self.epoch_records: list[EpochRecord] = []
        self.directive_log: list[DirectiveLogEntry] = []

    def receive(self, payload) -> None:
        kind = payload[0]
        if kind == "task":
            task = payload[1]
            start = max(self.engine.now, self.busy_until)
            finish = start + round(task.cost_cu / self.cfg.capacity.cloud_cu_s * US_PER_S)
            self.busy_until = finish
            task.tier = "Cloud"
            self.engine.schedule(finish, self._route_result, task, kind="compute")
        elif kind == "relay_result":
            self._route_result(payload[1])
        elif kind == "uplink":
            self.graph.ingest(payload[1])

    def _route_result(self, task) -> None:
        """Send a result to the edge layer, which passes it on to its vehicle."""
        self.engine.send(EDGES, ("result", task), self.cfg.workload.response_bytes,
                         self._r2c, on_drop=drop_task)

    def tally(self, task) -> None:
        """A completed task counts toward its origin region's epoch."""
        self.epoch_rts[task.origin_rsu].append(task.completed_us - task.created_us)
        if task.tier in BELOW_CLOUD:
            self.epoch_below[task.origin_rsu] += 1

    def epoch_boundary(self, now: int, epoch_idx: int) -> None:
        """Close epoch ``epoch_idx``; unless the run ends, open the next."""
        for r in sorted(self.evolutions):
            evo = self.evolutions[r]
            evaluated = evo.candidate if evo.candidate is not None else evo.kept
            rts = self.epoch_rts[r]
            med = median(rts) if rts else None
            autonomy = self.epoch_below[r] / len(rts) if rts else None
            decision, _ = evo.close_epoch(med)
            self.epoch_records.append(
                EpochRecord(epoch_idx, r, evaluated, med, autonomy, decision))
            self.epoch_rts[r] = []
            self.epoch_below[r] = 0
        if now >= self.cfg.duration_us:
            return
        fractions = {}
        for r in sorted(self.evolutions):
            candidate = self.evolutions[r].open_epoch(epoch_idx + 1, self.rng_mutation)
            fractions[r] = candidate.policy.offload_fraction
            self.engine.send(EDGES, ("blueprint", candidate),
                             self.cfg.workload.blueprint_bytes, self._r2c)
        nodes = self.graph.nodes
        for d in coordinate(self.graph, fractions, epoch_idx + 1, now + self.epoch_us):
            self.directive_log.append(DirectiveLogEntry(
                now, d.epoch, d.from_rsu, d.to_rsu, d.fraction,
                nodes[d.from_rsu].labels, nodes[d.to_rsu].labels))
            self.engine.send(EDGES, ("directive", d), DIRECTIVE_BYTES, self._r2c)
