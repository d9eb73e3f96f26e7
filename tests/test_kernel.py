import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import HeapEngine
from twinsim.kernel import (WINDOW_BITS, CausalityError, Engine, LinkSpec,
                            RoutingError, derive_seed, link_latency,
                            numpy_stream, rng_stream)
from twinsim.scenario import MAX_TIME_US

WINDOW_US = 1 << WINDOW_BITS


class ScriptedRng:
    """Feeds a fixed sequence of uniforms to the loss draw."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_derive_seed_stable_and_label_separated():
    assert derive_seed(0, "tasks") == derive_seed(0, "tasks")
    assert derive_seed(0, "tasks") != derive_seed(0, "loss")
    assert derive_seed(0, "tasks") != derive_seed(1, "tasks")


def test_rng_streams_reproducible():
    a = rng_stream(7, "tasks")
    b = rng_stream(7, "tasks")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    ga = numpy_stream(7, "mobility")
    gb = numpy_stream(7, "mobility")
    assert (ga.random(5) == gb.random(5)).all()


def test_link_latency_oracles():
    # R2C, zero payload: pure propagation
    assert link_latency(LinkSpec(25.0, 1e8), 0) == 25_000
    # V2R, 2000 B at 1e7 B/s: 5 ms + 200 us
    assert link_latency(LinkSpec(5.0, 1e7), 2000) == 5_200
    # closed form holds for random pairs
    rng = random.Random(42)
    for _ in range(1000):
        base = rng.randrange(0, 100_000)
        bw = rng.uniform(1e5, 1e9)
        nbytes = rng.randrange(0, 1_000_000)
        link = LinkSpec(base / 1000, bw)
        assert link_latency(link, nbytes) == base + round(nbytes * 1_000_000 / bw)


def test_event_order_same_timestamp_fifo():
    eng = Engine(random.Random(0))
    out = []
    eng.schedule(100, out.append, "a")
    eng.schedule(100, out.append, "b")
    eng.schedule(50, out.append, "c")
    eng.run_until(100)
    assert out == ["c", "a", "b"]
    assert eng.now == 100


def test_run_until_boundary_inclusive_and_clock_advances():
    eng = Engine(random.Random(0))
    out = []
    eng.schedule(10, out.append, 1)
    eng.schedule(11, out.append, 2)
    eng.run_until(10)
    assert out == [1]
    assert eng.now == 10
    eng.run_until(20)
    assert out == [1, 2]
    assert eng.now == 20


def test_schedule_in_past_raises_causality_error():
    eng = Engine(random.Random(0))
    eng.schedule(100, lambda: None)
    eng.run_until(100)
    with pytest.raises(CausalityError, match="causality violation"):
        eng.schedule(99, lambda: None)


def test_send_unknown_endpoint():
    eng = Engine(random.Random(0))
    with pytest.raises(RoutingError):
        eng.send("nowhere", {}, 100, LinkSpec(1.0, 1e7))


def test_lossless_delivery_time():
    eng = Engine(random.Random(0))
    got = []
    eng.register("sink", got.append)
    link = LinkSpec(5.0, 1e7)
    eng.send("sink", "hello", 2000, link)
    eng.run_until(5_199)
    assert got == []
    eng.run_until(5_200)
    assert got == ["hello"]
    assert eng.messages.sent == 1
    assert eng.messages.delivered == 1
    assert eng.messages.in_flight == 0


def test_retransmission_delay_and_drop_accounting():
    link = LinkSpec(5.0, 1e7, loss_prob=0.5, retx_timeout_ms=20.0, max_attempts=3)
    # first attempt lost, second delivered
    eng = Engine(ScriptedRng([0.1, 0.9]))
    got = []
    eng.register("sink", got.append)
    eng.send("sink", "x", 0, link)
    eng.run_until(24_999)
    assert got == []
    eng.run_until(25_000)  # 20 ms timeout + 5 ms latency
    assert got == ["x"]

    # all three attempts lost: drop, on_drop fires
    eng = Engine(ScriptedRng([0.1, 0.2, 0.3]))
    eng.register("sink", got.append)
    drops = []
    eng.send("sink", "y", 0, link, on_drop=lambda p: drops.append((eng.now, p)))
    eng.run_until(1_000_000)
    assert drops == [(40_000, "y")]  # the third attempt, two timeouts in
    assert eng.messages.dropped == 1
    assert eng.messages.in_flight == 0


def test_message_conservation_under_loss():
    eng = Engine(random.Random(123))
    eng.register("sink", lambda p: None)
    link = LinkSpec(1.0, 1e7, loss_prob=0.3, retx_timeout_ms=2.0, max_attempts=2)
    for i in range(500):
        eng.send("sink", i, 100, link)
    eng.run_until(10_000_000)
    m = eng.messages
    assert m.sent == 500
    assert m.delivered + m.dropped == 500
    assert m.in_flight == 0


def test_trace_records_fire_order():
    eng = Engine(random.Random(0))
    fired = []
    eng.schedule(5, lambda: fired.append((eng.now, "a")))
    eng.schedule(3, lambda: fired.append((eng.now, "b")))
    eng.run_until(10)
    assert fired == [(3, "b"), (5, "a")]


def record_kinds(eng) -> list:
    """``(fire time, kind)`` of each event ``eng`` fires from now on, in
    firing order, recorded by wrapping its ``schedule``."""
    fired = []
    schedule = eng.schedule

    def recording_schedule(at_us, fn, *args, kind="timer"):
        def fire(*a):
            fired.append((eng.now, kind))
            fn(*a)
        return schedule(at_us, fire, *args, kind=kind)

    eng.schedule = recording_schedule
    return fired


MSGS = [("a", 0), ("b", 1), ("a", 2), ("b", 3), ("a", 4)]
# name -> (messages, max_attempts, scripted loss draws; loss below 0.5)
SEND_BATCH_CASES = {
    # first attempts: ok, lost, lost, ok, lost; the retries of messages 1
    # and 4 get through and message 2 is lost again, which exhausts
    # max_attempts=2 and drops it
    "mixed": (MSGS, 2, [0.9, 0.1, 0.2, 0.7, 0.4, 0.8, 0.3, 0.6]),
    # every first attempt lost: no batch delivery event; retries ok, lost
    # (dropped), ok
    "all lost": (MSGS[:3], 2, [0.1, 0.2, 0.3, 0.9, 0.4, 0.8]),
    # one attempt only: each lost message is dropped at once
    "drop after max_attempts": (MSGS, 1, [0.9, 0.1, 0.2, 0.7, 0.4]),
    "empty": ([], 2, []),
    # integer endpoints, passed to the batch as an int array: lost, ok, ok,
    # lost; retries ok, lost (dropped)
    "array destinations": ([(0, "p"), (1, "q"), (0, "r"), (1, "s")], 2,
                           [0.1, 0.9, 0.6, 0.2, 0.7, 0.3]),
}


def _loss_oracle_run(batched, msgs, max_attempts, draws):
    """``msgs`` over a lossy link with scripted loss draws, sent one at a
    time or as one batch (its destinations as an array).  Sent one at a
    time, their ``on_drop`` records ``(time, payload)`` of each drop."""
    link = LinkSpec(5.0, 1e7, loss_prob=0.5, retx_timeout_ms=20.0,
                    max_attempts=max_attempts)
    rng = ScriptedRng(draws)
    eng = Engine(rng)
    calls, drops = [], []
    for name in ("a", "b", 0, 1):
        eng.register(name, lambda p, name=name: calls.append((eng.now, name, p)))
    eng.schedule(1_000, lambda: None)
    eng.run_until(1_000)
    fired = record_kinds(eng)
    if batched:
        def deliver(indices):
            assert isinstance(indices, np.ndarray)
            for i in indices.tolist():
                calls.append((eng.now, *msgs[i]))
        eng.send_batch(np.array([dst for dst, _ in msgs]), 2000, link, deliver,
                       lambda i: msgs[i][1])
    else:
        for dst, payload in msgs:
            eng.send(dst, payload, 2000, link, on_drop=lambda p: drops.append((eng.now, p)))
    eng.run_until(1_000_000)
    retx = [t for t, kind in fired if kind == "retx"]
    dropped = sorted({p for _, p in msgs} - {p for *_, p in calls})
    if not batched:
        assert sorted(p for _, p in drops) == dropped
    n_delivery_events = sum(kind == "delivery" for _, kind in fired)
    return calls, retx, dropped, eng.messages, rng.values, n_delivery_events, drops


def test_send_batch_matches_one_at_a_time_sends():
    for case, args in SEND_BATCH_CASES.items():
        single = _loss_oracle_run(False, *args)
        batch = _loss_oracle_run(True, *args)
        assert batch[:5] == single[:5], case
        assert batch[4] == [], case  # every scripted draw was made
        # the first-attempt deliveries (at 1000 + 5200 us) share one event
        first = sum(t == 6_200 for t, *_ in single[0])
        assert batch[5] == single[5] - first + (first > 0), case
    # a dropped message's on_drop fires at its last lost attempt
    assert _loss_oracle_run(False, *SEND_BATCH_CASES["mixed"])[6] == [(21_000, 2)]
    assert _loss_oracle_run(False, *SEND_BATCH_CASES["drop after max_attempts"])[6] == [
        (1_000, 1), (1_000, 2), (1_000, 4)]
    calls, retx, drops, messages, _, n_events, _ = _loss_oracle_run(True, *SEND_BATCH_CASES["mixed"])
    # first attempts land at 1000 + 5200 us, retries 20 ms later
    assert calls == [(6_200, "a", 0), (6_200, "b", 3),
                     (26_200, "b", 1), (26_200, "a", 4)]
    assert retx == [21_000, 21_000, 21_000]
    assert drops == [2]
    assert (messages.sent, messages.delivered, messages.dropped) == (5, 4, 1)
    assert n_events == 3
    calls, retx, drops, messages, _, n_events, _ = _loss_oracle_run(
        True, *SEND_BATCH_CASES["drop after max_attempts"])
    assert retx == [] and drops == [1, 2, 4]
    assert (messages.sent, messages.delivered, messages.dropped, n_events) == (5, 2, 3, 1)
    calls, retx, drops, messages, _, n_events, _ = _loss_oracle_run(True, *SEND_BATCH_CASES["empty"])
    assert (calls, retx, drops, messages.sent, n_events) == ([], [], [], 0, 0)


def test_send_batch_unknown_endpoint():
    eng = Engine(random.Random(0))
    eng.register("sink", lambda p: None)
    with pytest.raises(RoutingError):
        eng.send_batch(["sink", "nowhere"], 100, LinkSpec(1.0, 1e7),
                       lambda indices: None, lambda i: i)


# Where an event goes, from the clock ``now`` when it is scheduled:
# ("at", d) is now + d, ("window", k, d) is offset d into the k-th window
# after now's (0: now's own window), and ("max",) is MAX_TIME_US; targets
# are clamped into [now, MAX_TIME_US].
TARGETS = st.one_of(
    st.tuples(st.just("at"), st.sampled_from([0, 0, 1, 7, WINDOW_US - 1, WINDOW_US])),
    st.tuples(st.just("at"), st.integers(0, 3 * WINDOW_US)),
    st.tuples(st.just("at"), st.integers(0, MAX_TIME_US)),
    st.tuples(st.just("window"), st.integers(0, 3),
              st.sampled_from([0, 1, WINDOW_US // 2, WINDOW_US - 1])),
    st.tuples(st.just("window"), st.integers(4, 5000), st.integers(0, WINDOW_US - 1)),
    st.tuples(st.just("max")),
)
# Where a ``run_until`` cut falls: ("at", t) is absolute, ("boundary", k, d)
# is d us from the start of window k, ("before",) is just before the
# earliest pending event (or now), ("after", d) is d us after now.
CUTS = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 40 * WINDOW_US)),
    st.tuples(st.just("boundary"), st.integers(0, 40), st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("before")),
    st.tuples(st.just("after"), st.integers(0, 2 * WINDOW_US)),
    st.tuples(st.just("after"), st.integers(0, MAX_TIME_US)),
)


def _target(now: int, target: tuple) -> int:
    if target[0] == "at":
        at = now + target[1]
    elif target[0] == "window":
        at = (((now >> WINDOW_BITS) + target[1]) << WINDOW_BITS) + target[2]
    else:
        at = MAX_TIME_US
    return max(now, min(at, MAX_TIME_US))


def _replay(eng, events, cuts, next_pending):
    """Schedule ``events`` on ``eng`` and run it through ``cuts``, then to
    MAX_TIME_US.  Event i is ``(target, parent)``: a root (parent < 0 or
    not below i) is scheduled before the run, the others by their parent's
    handler when it fires, in index order.  Returns each event's
    ``(fire time, index)`` in firing order, the ids ``schedule`` returned,
    and each cut's time, ``processed`` and clock afterwards."""
    children = [[] for _ in events]
    roots = []
    for i, (_, parent) in enumerate(events):
        (children[parent] if 0 <= parent < i else roots).append(i)
    fired, ids, runs = [], [], []

    def spawn(indices):
        for i in indices:
            ids.append(eng.schedule(_target(eng.now, events[i][0]), fire, i))

    def fire(i):
        fired.append((eng.now, i))
        spawn(children[i])

    spawn(roots)
    for cut in [*cuts, ("max",)]:
        if cut[0] == "at":
            t_end = cut[1]
        elif cut[0] == "boundary":
            t_end = (cut[1] << WINDOW_BITS) + cut[2]
        elif cut[0] == "before":
            t_end = next_pending() - 1
        elif cut[0] == "after":
            t_end = eng.now + cut[1]
        else:
            t_end = MAX_TIME_US
        t_end = max(eng.now, min(t_end, MAX_TIME_US))
        runs.append((t_end, eng.run_until(t_end), eng.now))
    return fired, ids, runs


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(TARGETS, st.integers(-3, 40)), max_size=60),
       st.lists(CUTS, max_size=8))
def test_windowed_event_set_matches_heap_oracle(events, cuts):
    """The windowed event set fires every event in the single heap's
    ``(fire_at, seq)`` order, with the same ``processed`` and clock per
    ``run_until``, over ties, events at ``now``, into the current, next and
    far windows, long runs of empty windows and cuts mid-window, on window
    boundaries and before every pending event."""
    oracle = HeapEngine(random.Random(0))
    expected = _replay(oracle, events, cuts,
                       lambda: oracle._heap[0][0] if oracle._heap else oracle.now)
    # the windowed engine runs to the oracle's cut times
    got = _replay(Engine(random.Random(0)), events, [("at", t_end) for t_end, _, _ in expected[2][:-1]],
                  None)
    assert got == expected
    assert len(expected[0]) == len(events)
