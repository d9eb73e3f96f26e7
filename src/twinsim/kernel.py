"""Deterministic discrete-event engine: integer-microsecond clock, seeded
substreams, and parameterized point-to-point links with loss/retransmission.

Time is kept as non-negative integer microseconds so that event ordering and
tie-breaking are exact; ties at equal fire times are broken by global issue
sequence.

The pending events form a windowed event set after Brown's calendar queue
(CACM 31(10), 1988): only the current window of ``2**WINDOW_BITS`` us is a
heap, and each later window is an unordered list until its turn comes.
"""
from __future__ import annotations

import hashlib
import random
from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field

import numpy as np

US_PER_S = 1_000_000
# width of one event-set window: 2**16 us, about 65.5 ms
WINDOW_BITS = 16
# the kernel endpoints of the three twin layers
EDGES, CLOUD, VEHICLES = 0, 1, 2


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
    Bernoulli loss per attempt and bounded retransmission.  Times are in ms,
    as a scenario gives them; ``scenario.validate`` checks every field."""

    base_latency_ms: float
    bandwidth_bps: float  # bytes per second
    loss_prob: float = 0.0
    retx_timeout_ms: float = 20.0
    max_attempts: int = 1
    # first-attempt delay per payload size, as ``link_latency`` defines it;
    # ``Engine`` fills it on the first message of each size
    delays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def base_latency_us(self) -> int:
        return round(self.base_latency_ms * 1000)

    @property
    def retx_timeout_us(self) -> int:
        return round(self.retx_timeout_ms * 1000)


def link_latency(link: LinkSpec, payload_bytes: int) -> int:
    """One-way delivery time, rounded to the nearest microsecond."""
    return link.base_latency_us + round(payload_bytes * US_PER_S / link.bandwidth_bps)


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
    sweeps run isolated instances with no shared state.  Every loss draw,
    of a send or of a retransmission, is the next ``loss_rng.random()``."""

    def __init__(self, loss_rng):
        self._random = loss_rng.random
        self.now: int = 0
        self._seq: int = 0
        # every pending event of window ``_window`` or earlier is in
        # ``_heap``; each later one is in ``_later[its window]``, and
        # ``_windows`` is a heap of the keys of ``_later``
        self._window: int = 0
        self._heap: list = []
        self._later: dict = {}
        self._windows: list = []
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
        window = at_us >> WINDOW_BITS
        if window <= self._window:
            heappush(self._heap, (at_us, seq, fn, args))
        elif window in self._later:
            self._later[window].append((at_us, seq, fn, args))
        else:
            self._later[window] = [(at_us, seq, fn, args)]
            heappush(self._windows, window)
        return seq

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire_at <= t_end (inclusive), in
        (fire_at, seq) order; leaves the clock at t_end, which must not be
        before it."""
        if t_end_us < self.now:
            raise CausalityError(
                f"causality violation: run until {t_end_us} us but clock is {self.now} us")
        processed = 0
        heap, windows = self._heap, self._windows
        while True:
            while heap and heap[0][0] <= t_end_us:
                fire_at, _, fn, args = heappop(heap)
                self.now = fire_at
                fn(*args)
                processed += 1
            if heap or not windows or windows[0] << WINDOW_BITS > t_end_us:
                break
            self._window = window = heappop(windows)
            heap = self._heap = self._later.pop(window)
            heapify(heap)
        self.now = t_end_us
        return processed

    # -- messaging ---------------------------------------------------------

    def register(self, name, handler) -> None:
        self._endpoints[name] = handler

    def send(self, dst, payload, nbytes: int, link: LinkSpec, on_drop=None) -> None:
        """Deliver payload to dst after link latency; on loss, retransmit
        after retx_timeout up to max_attempts, then record a drop."""
        handler = self._endpoints.get(dst)
        if handler is None:
            raise RoutingError(f"unknown endpoint: {dst!r}")
        self.messages.sent += 1
        if link.loss_prob > 0.0 and self._random() < link.loss_prob:
            self._lost(handler, payload, nbytes, link, 1, on_drop)
        else:
            delay = link.delays.get(nbytes)
            if delay is None:
                delay = self._delay(link, nbytes)
            self.schedule(self.now + delay, self._deliver, handler, payload, kind="delivery")

    def send_batch(self, n: int, nbytes: int, link: LinkSpec, deliver) -> None:
        """Send ``n`` messages, the rows ``0..n-1`` of one batch.  Each attempt
        of the batch draws the loss of each of its rows, in row order, as
        ``send`` would: the rows that get through share one delivery event,
        which calls ``deliver`` with their indices, ascending, in an array;
        the lost rows retry together in one ``retx`` event after the timeout,
        or are dropped once max_attempts are used up."""
        self.messages.sent += n
        self._attempt_batch(np.arange(n), nbytes, link, deliver, 1)

    def _attempt_batch(self, rows, nbytes, link, deliver, attempt) -> None:
        """Attempt number ``attempt`` of the batch rows ``rows``."""
        if link.loss_prob > 0.0:
            lost = np.fromiter(iter(self._random, None), float, len(rows)) < link.loss_prob
            if np.count_nonzero(lost):
                retry, rows = rows[lost], rows[~lost]
                if attempt < link.max_attempts:
                    self.schedule(self.now + link.retx_timeout_us, self._attempt_batch,
                                  retry, nbytes, link, deliver, attempt + 1, kind="retx")
                else:
                    self.messages.dropped += len(retry)
        if len(rows):
            self.schedule(self.now + self._delay(link, nbytes), self._deliver_batch,
                          deliver, rows, kind="delivery")

    @staticmethod
    def _delay(link: LinkSpec, nbytes: int) -> int:
        """``link_latency(link, nbytes)``, computed once per link and size."""
        delay = link.delays.get(nbytes)
        if delay is None:
            delay = link.delays[nbytes] = link_latency(link, nbytes)
        return delay

    def _lost(self, handler, payload, nbytes, link, attempt, on_drop) -> None:
        """Attempt number ``attempt`` was lost: retry after the timeout, or
        drop once max_attempts are used up."""
        if attempt >= link.max_attempts:
            self.messages.dropped += 1
            if on_drop is not None:
                on_drop(payload)
        else:
            self.schedule(self.now + link.retx_timeout_us, self._retransmit,
                          handler, payload, nbytes, link, attempt + 1, on_drop,
                          kind="retx")

    def _retransmit(self, handler, payload, nbytes, link, attempt, on_drop) -> None:
        """Attempt number ``attempt``, after a lost one: one more loss draw."""
        if self._random() < link.loss_prob:
            self._lost(handler, payload, nbytes, link, attempt, on_drop)
        else:
            self.schedule(self.now + self._delay(link, nbytes), self._deliver,
                          handler, payload, kind="delivery")

    def _deliver(self, handler, payload) -> None:
        self.messages.delivered += 1
        handler(payload)

    def _deliver_batch(self, deliver, rows: np.ndarray) -> None:
        self.messages.delivered += len(rows)
        deliver(rows)

    def account_batch(self, sent: int, delivered: int, dropped: int) -> None:
        """Bulk message accounting for batched exchanges (V2V beacons) that
        bypass per-message events for performance."""
        self.messages.sent += sent
        self.messages.delivered += delivered
        self.messages.dropped += dropped
