"""Kernel walkthrough: deterministic event ordering, link pricing, and loss.

The engine runs on an integer microsecond clock.  Events fire in
(fire_at, seq) order, and the engine holds the loss stream it is built
with, so two runs with the same inputs replay identically.
"""
from twinsim.kernel import Engine, LinkSpec, link_latency, rng_stream

# -- ordering ---------------------------------------------------------------

eng = Engine(rng_stream(0, "loss"))
log = []
eng.schedule(5_000, log.append, "timer at 5 ms")
eng.schedule(2_000, log.append, "timer at 2 ms")
eng.schedule(5_000, log.append, "second timer at 5 ms (scheduled later)")
eng.run_until(10_000)
print("fire order:")
for line in log:
    print("  ", line)

# -- link pricing -----------------------------------------------------------

# links take their times in ms, as a scenario file gives them
v2r = LinkSpec(base_latency_ms=5.0, bandwidth_bps=1e7, loss_prob=0.01,
               retx_timeout_ms=20.0, max_attempts=3)
r2c = LinkSpec(base_latency_ms=25.0, bandwidth_bps=1e8)

print("\nlink latency = base + payload / bandwidth, rounded to 1 us:")
print(f"  2000 B over V2R: {link_latency(v2r, 2000)} us")
print(f"   500 B over V2R: {link_latency(v2r, 500)} us")
print(f"  1500 B over R2C: {link_latency(r2c, 1500)} us")

# -- loss, retransmission, conservation ------------------------------------

eng = Engine(rng_stream(0, "loss"))
received = []
eng.register("edge", received.append)
for i in range(1000):
    eng.send("edge", i, 2000, v2r)
eng.run_until(1_000_000)

m = eng.messages
print(f"\n1000 messages over a 1% lossy link with 3 attempts:")
print(f"  sent={m.sent} delivered={m.delivered} dropped={m.dropped} "
      f"in_flight={m.in_flight}")
assert m.sent == m.delivered + m.dropped + m.in_flight

# -- determinism ------------------------------------------------------------

def run_once():
    eng = Engine(rng_stream(42, "loss"))
    seen = []
    eng.register("sink", seen.append)
    lossy = LinkSpec(1.0, 1e6, loss_prob=0.3, retx_timeout_ms=5.0, max_attempts=2)
    for i in range(50):
        eng.send("sink", i, 100, lossy)
    eng.run_until(100_000)
    return seen

assert run_once() == run_once()
print("\ntwo identical runs delivered the same messages in the same order")
