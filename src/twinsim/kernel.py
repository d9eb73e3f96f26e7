"""Deterministic discrete-event engine: integer-microsecond clock, seeded
substreams, and parameterized point-to-point links with loss/retransmission.

Time is kept as non-negative integer microseconds so that event ordering and
tie-breaking are exact; ties at equal fire times are broken by global issue
sequence.
"""
from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field

import numpy as np

US_PER_S = 1_000_000


class CausalityError(Exception):
    """Raised when an event is scheduled in the past."""


class RoutingError(Exception):
    """Raised when a message targets an unregistered endpoint."""


def derive_seed(root_seed: int, label: str) -> int:
    """Mix (root_seed, label) into a 64-bit stream seed.

    Independent labels give decorrelated streams; identical inputs always
    give the same seed (stable across processes and platforms).
    """
    h = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little")


def rng_stream(root_seed: int, label: str) -> random.Random:
    """Scalar RNG substream for one named consumer (tasks, loss, mutation...)."""
    return random.Random(derive_seed(root_seed, label))


def numpy_stream(root_seed: int, label: str) -> np.random.Generator:
    """Vectorized RNG substream (mobility kinematics, batched beacon loss)."""
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, label)))


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point link: fixed propagation delay plus serialization time,
    Bernoulli loss per attempt and bounded retransmission."""

    base_latency_us: int
    bandwidth_bps: float  # bytes per second
    loss_prob: float = 0.0
    retx_timeout_us: int = 20_000
    max_attempts: int = 1

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be > 0")
        if not (0.0 <= self.loss_prob < 1.0):
            raise ValueError("loss_prob must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def link_latency(link: LinkSpec, payload_bytes: int) -> int:
    """One-way delivery time, rounded to the nearest microsecond."""
    return link.base_latency_us + round(payload_bytes * US_PER_S / link.bandwidth_bps)


@dataclass(frozen=True)
class Event:
    """A scheduled occurrence; (fire_at, seq) is a strict total order."""

    fire_at: int
    seq: int
    kind: str = "timer"


@dataclass
class MessageCounters:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.dropped


class Engine:
    """Single-threaded event loop. One instance per simulation run; seed
    sweeps run isolated instances with no shared state."""

    def __init__(self, trace: bool = False):
        self.now: int = 0
        self._seq: int = 0
        self._heap: list = []
        self.trace: list[Event] | None = [] if trace else None
        self._endpoints: dict = {}
        self.messages = MessageCounters()

    def schedule(self, at_us: int, fn, *args, kind: str = "timer") -> int:
        """Enqueue fn(*args) at absolute time at_us; returns the event id."""
        if at_us < self.now:
            raise CausalityError(
                f"causality violation: schedule at {at_us} us but clock is {self.now} us"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (at_us, seq, kind, fn, args))
        return seq

    def schedule_in(self, delay_us: int, fn, *args, kind: str = "timer") -> int:
        return self.schedule(self.now + delay_us, fn, *args, kind=kind)

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire_at <= t_end (inclusive), in
        (fire_at, seq) order; leaves the clock at t_end."""
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            fire_at, seq, kind, fn, args = heapq.heappop(heap)
            self.now = fire_at
            if self.trace is not None:
                self.trace.append(Event(fire_at, seq, kind))
            fn(*args)
            processed += 1
        self.now = t_end_us
        return processed

    # -- messaging ---------------------------------------------------------

    def register(self, name, handler) -> None:
        self._endpoints[name] = handler

    def send(self, dst, payload, nbytes: int, link: LinkSpec, rng, on_drop=None) -> None:
        """Deliver payload to dst after link latency; on loss, retransmit
        after retx_timeout up to max_attempts, then record a drop."""
        if dst not in self._endpoints:
            raise RoutingError(f"unknown endpoint: {dst!r}")
        self.messages.sent += 1
        if link.loss_prob > 0.0 and rng.random() < link.loss_prob:
            self._lost(dst, payload, nbytes, link, rng, 1, on_drop)
        else:
            self.schedule(self.now + link_latency(link, nbytes), self._deliver,
                          dst, payload, kind="delivery")

    def send_batch(self, dsts: list, nbytes: int, link: LinkSpec, rng, deliver,
                   payload, on_drop=None) -> None:
        """Send one message to each endpoint in dsts, drawing the loss of
        each in list order as ``send`` would.  The messages that get through
        on their first attempt share one delivery event, which calls
        ``deliver`` once with their list indices in order; a lost message i
        carries ``payload(i)`` and retransmits on its own, as ``send`` does."""
        endpoints = self._endpoints
        counters = self.messages
        lossy = link.loss_prob > 0.0
        delivered = []
        for i, dst in enumerate(dsts):
            if dst not in endpoints:
                raise RoutingError(f"unknown endpoint: {dst!r}")
            counters.sent += 1
            if lossy and rng.random() < link.loss_prob:
                self._lost(dst, payload(i), nbytes, link, rng, 1, on_drop)
            else:
                delivered.append(i)
        if delivered:
            self.schedule(self.now + link_latency(link, nbytes), self._deliver_batch,
                          deliver, delivered, kind="delivery")

    def _lost(self, dst, payload, nbytes, link, rng, attempt, on_drop) -> None:
        """Attempt number ``attempt`` was lost: retry after the timeout, or
        drop once max_attempts are used up."""
        if attempt >= link.max_attempts:
            self.messages.dropped += 1
            if on_drop is not None:
                on_drop(payload)
        else:
            self.schedule(self.now + link.retx_timeout_us, self._retransmit,
                          dst, payload, nbytes, link, rng, attempt + 1, on_drop,
                          kind="retx")

    def _retransmit(self, dst, payload, nbytes, link, rng, attempt, on_drop) -> None:
        """Attempt number ``attempt``, after a lost one: one more loss draw."""
        if rng.random() < link.loss_prob:
            self._lost(dst, payload, nbytes, link, rng, attempt, on_drop)
        else:
            self.schedule(self.now + link_latency(link, nbytes), self._deliver,
                          dst, payload, kind="delivery")

    def _deliver(self, dst, payload) -> None:
        self.messages.delivered += 1
        self._endpoints[dst](payload)

    def _deliver_batch(self, deliver, indices: list) -> None:
        self.messages.delivered += len(indices)
        deliver(indices)

    def account_batch(self, sent: int, delivered: int, dropped: int) -> None:
        """Bulk message accounting for batched exchanges (V2V beacons) that
        bypass per-message events for performance."""
        self.messages.sent += sent
        self.messages.delivered += delivered
        self.messages.dropped += dropped
