"""Per-vehicle local twin: task placement and the V2V beacon record.

Sensing runs at 100 ms cadence.  A status report goes up every second with
the mean speed of the last 1 s window, the last channel quality and the
local queue backlog, plus immediately on an RSU handover or when the local
queue backlog exceeds the trigger threshold.  The serving edge adds the
speeds to its fusion window and ranks its vehicles for roles by the channel
quality and idle compute of their latest report.  The simulation
runner computes sensing, reports and V2V beacons over its per-vehicle
arrays; the scalar models of channel quality and of the neighbour table
that those arrays stand in for live in tests/oracles.py, where the tests
check the runner against them.
"""
from __future__ import annotations

import numpy as np


def decide_local(cost_cu: float, local_serve_threshold: float, backlog_cu: float,
                 local_capacity_cu_s: float, backlog_limit_s: float = 2.0) -> str:
    """Pure placement rule: 'local' iff the task's cost is below the policy
    threshold and the local queue is short enough, else 'edge'."""
    if (
        cost_cu <= local_serve_threshold
        and backlog_cu / local_capacity_cu_s <= backlog_limit_s
    ):
        return "local"
    return "edge"


class BeaconSnapshot:
    """One 1 Hz V2V beacon pass: the vehicle pairs in range, the loss draw
    of each directed beacon, and the senders' local queue and role at send
    time.

    ``ok[i]`` belongs to the ``i``-th directed beacon of the pairs in
    ``(p0, p1)`` order: the first half are the beacons ``p0 -> p1``, the
    second half ``p1 -> p0``.  The per-receiver sender index is built on the
    first ``senders`` call, so a pass that no handoff reads sorts nothing.
    """

    __slots__ = ("t_send", "heard_at", "pairs", "ok", "busy", "role", "_src", "_indptr")

    def __init__(self, t_send: int, heard_at: int, pairs: np.ndarray, ok: np.ndarray,
                 busy: np.ndarray, role: np.ndarray):
        self.t_send = t_send
        self.heard_at = heard_at
        self.pairs = pairs
        self.ok = ok
        self.busy = busy
        self.role = role
        self._src: np.ndarray | None = None
        self._indptr: np.ndarray | None = None

    def senders(self, v: int) -> np.ndarray:
        """Senders of the delivered beacons vehicle ``v`` heard, ascending."""
        if self._indptr is None:
            self._build_index()
        return self._src[self._indptr[v]:self._indptr[v + 1]]

    def _build_index(self) -> None:
        n = len(self.busy)
        pairs = self.pairs
        # pairs are unique, so one key gives the (p0, p1) order
        pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])[self.ok]
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])[self.ok]
        # a stable sort on the receiver keeps each receiver's senders
        # ascending (first half: senders below it, second half: above it);
        # on the narrowest integer type that holds a vehicle id it is a
        # radix sort
        by_dst = np.argsort(dst.astype(np.min_scalar_type(n - 1)), kind="stable")
        self._src = src[by_dst]
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        self._indptr = indptr
