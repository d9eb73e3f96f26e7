import random

import pytest

from twinsim.kernel import (CausalityError, Engine, LinkSpec, RoutingError,
                            derive_seed, link_latency, numpy_stream,
                            rng_stream)


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


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(5000, 0.0)
    with pytest.raises(ValueError):
        LinkSpec(5000, 1e7, loss_prob=1.0)
    with pytest.raises(ValueError):
        LinkSpec(5000, 1e7, max_attempts=0)


def test_link_latency_oracles():
    # R2C, zero payload: pure propagation
    assert link_latency(LinkSpec(25_000, 1e8), 0) == 25_000
    # V2R, 2000 B at 1e7 B/s: 5 ms + 200 us
    assert link_latency(LinkSpec(5_000, 1e7), 2000) == 5_200
    # closed form holds for random pairs
    rng = random.Random(42)
    for _ in range(1000):
        base = rng.randrange(0, 100_000)
        bw = rng.uniform(1e5, 1e9)
        nbytes = rng.randrange(0, 1_000_000)
        link = LinkSpec(base, bw)
        assert link_latency(link, nbytes) == base + round(nbytes * 1_000_000 / bw)


def test_event_order_same_timestamp_fifo():
    eng = Engine()
    out = []
    eng.schedule(100, out.append, "a")
    eng.schedule(100, out.append, "b")
    eng.schedule(50, out.append, "c")
    eng.run_until(100)
    assert out == ["c", "a", "b"]
    assert eng.now == 100


def test_run_until_boundary_inclusive_and_clock_advances():
    eng = Engine()
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
    eng = Engine()
    eng.schedule(100, lambda: None)
    eng.run_until(100)
    with pytest.raises(CausalityError, match="causality violation"):
        eng.schedule(99, lambda: None)


def test_send_unknown_endpoint():
    eng = Engine()
    with pytest.raises(RoutingError):
        eng.send("nowhere", {}, 100, LinkSpec(1000, 1e7), random.Random(0))


def test_lossless_delivery_time():
    eng = Engine()
    got = []
    eng.register("sink", got.append)
    link = LinkSpec(5_000, 1e7)
    eng.send("sink", "hello", 2000, link, random.Random(0))
    eng.run_until(5_199)
    assert got == []
    eng.run_until(5_200)
    assert got == ["hello"]
    assert eng.messages.sent == 1
    assert eng.messages.delivered == 1
    assert eng.messages.in_flight == 0


def test_retransmission_delay_and_drop_accounting():
    link = LinkSpec(5_000, 1e7, loss_prob=0.5, retx_timeout_us=20_000, max_attempts=3)
    # first attempt lost, second delivered
    eng = Engine()
    got = []
    eng.register("sink", got.append)
    eng.send("sink", "x", 0, link, ScriptedRng([0.1, 0.9]))
    eng.run_until(24_999)
    assert got == []
    eng.run_until(25_000)  # 20 ms timeout + 5 ms latency
    assert got == ["x"]

    # all three attempts lost: drop, on_drop fires
    eng = Engine()
    eng.register("sink", got.append)
    drops = []
    eng.send("sink", "y", 0, link, ScriptedRng([0.1, 0.2, 0.3]), on_drop=drops.append)
    eng.run_until(1_000_000)
    assert drops == ["y"]
    assert eng.messages.dropped == 1
    assert eng.messages.in_flight == 0


def test_message_conservation_under_loss():
    eng = Engine()
    eng.register("sink", lambda p: None)
    link = LinkSpec(1_000, 1e7, loss_prob=0.3, retx_timeout_us=2_000, max_attempts=2)
    rng = random.Random(123)
    for i in range(500):
        eng.send("sink", i, 100, link, rng)
    eng.run_until(10_000_000)
    m = eng.messages
    assert m.sent == 500
    assert m.delivered + m.dropped == 500
    assert m.in_flight == 0


def test_trace_records_fire_order():
    eng = Engine(trace=True)
    eng.schedule(5, lambda: None, kind="a")
    eng.schedule(3, lambda: None, kind="b")
    eng.run_until(10)
    fired = [(e.fire_at, e.kind) for e in eng.trace]
    assert fired == [(3, "b"), (5, "a")]


def _loss_oracle_run(batched):
    """Five messages to two endpoints over a lossy link, sent one at a time
    or as one batch.  Scripted first attempts: ok, lost, lost, ok, lost;
    the retries of messages 1 and 4 get through and message 2 is lost
    again, which exhausts max_attempts=2 and drops it."""
    link = LinkSpec(5_000, 1e7, loss_prob=0.5, retx_timeout_us=20_000, max_attempts=2)
    rng = ScriptedRng([0.9, 0.1, 0.2, 0.7, 0.4, 0.8, 0.3, 0.6])
    eng = Engine(trace=True)
    calls, drops = [], []
    for name in ("a", "b"):
        eng.register(name, lambda p, name=name: calls.append((eng.now, name, p)))
    eng.schedule(1_000, lambda: None)
    eng.run_until(1_000)
    msgs = [("a", 0), ("b", 1), ("a", 2), ("b", 3), ("a", 4)]
    on_drop = lambda p: drops.append((eng.now, p))  # noqa: E731
    if batched:
        def deliver(indices):
            for i in indices:
                calls.append((eng.now, *msgs[i]))
        eng.send_batch([dst for dst, _ in msgs], 2000, link, rng, deliver,
                       lambda i: msgs[i][1], on_drop=on_drop)
    else:
        for dst, payload in msgs:
            eng.send(dst, payload, 2000, link, rng, on_drop=on_drop)
    eng.run_until(1_000_000)
    retx = [e.fire_at for e in eng.trace if e.kind == "retx"]
    n_delivery_events = sum(e.kind == "delivery" for e in eng.trace)
    return calls, retx, drops, eng.messages, rng.values, n_delivery_events


def test_send_batch_matches_one_at_a_time_sends():
    single = _loss_oracle_run(batched=False)
    batch = _loss_oracle_run(batched=True)
    assert batch[:5] == single[:5]
    calls, retx, drops, messages, unused, _ = batch
    # first attempts land at 1000 + 5200 us, retries 20 ms later
    assert calls == [(6_200, "a", 0), (6_200, "b", 3),
                     (26_200, "b", 1), (26_200, "a", 4)]
    assert retx == [21_000, 21_000, 21_000]
    assert drops == [(21_000, 2)]
    assert (messages.sent, messages.delivered, messages.dropped) == (5, 4, 1)
    assert unused == []
    # the two first-attempt deliveries share one event
    assert (single[5], batch[5]) == (4, 3)


def test_send_batch_unknown_endpoint():
    eng = Engine()
    eng.register("sink", lambda p: None)
    with pytest.raises(RoutingError):
        eng.send_batch(["sink", "nowhere"], 100, LinkSpec(1000, 1e7),
                       random.Random(0), lambda indices: None, lambda i: i)
