"""Cloud twin: cross-regional knowledge graph of the latest region labels
and utilization, (1+1)-style blueprint evolution with rollback, and
overload/underload pairing directives.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .edge import PARAM_RANGES, clamp

# round-robin mutation order, one parameter per epoch
MUTATION_ORDER = (
    "local_serve_threshold",
    "offload_fraction",
    "congestion_speed_threshold",
    "role_quotas",
)


@dataclass(frozen=True)
class PolicyBlueprint:
    target: int | str                 # rsu id, or "global"
    epoch: int
    parent_id: str | None
    local_serve_threshold: float
    offload_fraction: float
    congestion_speed_threshold: float
    role_quotas: tuple[float, float, float]

    @property
    def blueprint_id(self) -> str:
        return f"{self.target}:{self.epoch}"

    def params(self) -> dict:
        return {
            "local_serve_threshold": self.local_serve_threshold,
            "offload_fraction": self.offload_fraction,
            "congestion_speed_threshold": self.congestion_speed_threshold,
            "role_quotas": self.role_quotas,
        }


def blueprint_to_json(bp: PolicyBlueprint) -> str:
    payload = {
        "target": bp.target,
        "epoch": bp.epoch,
        "parent": bp.parent_id,
        "params": {
            "local_serve_threshold": bp.local_serve_threshold,
            "offload_fraction": bp.offload_fraction,
            "congestion_speed_threshold": bp.congestion_speed_threshold,
            "role_quotas": list(bp.role_quotas),
        },
    }
    return json.dumps(payload, separators=(",", ":"))


@dataclass(frozen=True)
class OffloadDirective:
    from_rsu: int
    to_rsu: int
    fraction: float
    epoch: int
    expires_at_us: int


@dataclass
class RegionNode:
    rsu_id: int
    labels: tuple[str, ...] = ("Normal",)
    utilization: float = 0.0


class KnowledgeGraph:
    """One node per RSU region holding its latest labels and utilization;
    edges follow RSU adjacency."""

    def __init__(self, rsu_ids: list[int], adjacency: dict[int, list[int]]):
        self.nodes = {r: RegionNode(r) for r in rsu_ids}
        self.adjacency = adjacency
        self.rejected = 0

    def ingest(self, package) -> bool:
        """Latch a package's labels and utilization on its region; malformed
        or unknown packages are rejected/counted."""
        rsu = getattr(package, "rsu_id", None)
        if rsu not in self.nodes:
            self.rejected += 1
            return False
        node = self.nodes[rsu]
        node.labels = tuple(package.event_labels)
        node.utilization = package.utilization
        return True


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
    child = {
        "local_serve_threshold": parent.local_serve_threshold,
        "offload_fraction": parent.offload_fraction,
        "congestion_speed_threshold": parent.congestion_speed_threshold,
        "role_quotas": parent.role_quotas,
    }
    if which == "role_quotas":
        lo, hi = PARAM_RANGES["acquisition_quota"]
        sigma = 0.1  # 10% of the unit quota scale
        acq, proc, coord = parent.role_quotas
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
        child["role_quotas"] = (new_acq, proc, round(1.0 - new_acq - proc, 9))
    else:
        lo, hi = PARAM_RANGES[which]
        sigma = 0.1 * (hi - lo)
        child[which] = clamp(parent.params()[which] + rng.gauss(0.0, sigma), lo, hi)
    return PolicyBlueprint(
        target=parent.target,
        epoch=epoch,
        parent_id=parent.blueprint_id,
        local_serve_threshold=child["local_serve_threshold"],
        offload_fraction=child["offload_fraction"],
        congestion_speed_threshold=child["congestion_speed_threshold"],
        role_quotas=tuple(child["role_quotas"]),
    )


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
            "blueprint": json.loads(blueprint_to_json(self.blueprint)),
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
