"""Per-layer spans for one traced simulation run.

The spans are recorded by wrappers that this module installs around public
entry points of twinsim; nothing inside the program is changed.  A span's
self time is its duration minus the time of the spans nested in it, so the
self times of all spans add up to the duration of the outermost ones
(``Engine.run_until`` and ``build_index_series`` inside ``Simulation.run``).

``twinsim.runner`` imports several functions by name, so each wrapper is
installed both in the defining module and under that name in the runner.
Install into a fresh process only: the patches are process-wide.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span bucket).  A dotted attribute is a class method.
ENTRY_POINTS = [
    ("twinsim.kernel", "Engine.run_until", "kernel"),
    ("twinsim.kernel", "Engine.send", "kernel"),
    ("twinsim.kernel", "Engine.account_batch", "kernel"),
    ("twinsim.mobility", "Fleet.step", "mobility.step"),
    ("twinsim.mobility", "Fleet.current_segment_of", "mobility.segment_of"),
    ("twinsim.local", "decide_local", "local.decide"),
    ("twinsim.edge", "fuse_labels", "edge.fuse_labels"),
    ("twinsim.edge", "assign_roles", "edge.assign_roles"),
    ("twinsim.edge", "localize_policy", "edge.localize_policy"),
    ("twinsim.edge", "ols_slope", "edge.ols_slope"),
    ("twinsim.edge", "EdgeServer.enqueue", "edge.enqueue"),
    ("twinsim.edge", "EdgeServer.backlog_s", "edge.backlog_s"),
    ("twinsim.edge", "ThinningCounter.take", "edge.thinning"),
    ("twinsim.cloud", "KnowledgeGraph.ingest", "cloud.ingest"),
    ("twinsim.cloud", "coordinate", "cloud.coordinate"),
    ("twinsim.cloud", "RegionEvolution.open_epoch", "cloud.open_epoch"),
    ("twinsim.cloud", "RegionEvolution.close_epoch", "cloud.close_epoch"),
    ("twinsim.metrics", "build_index_series", "metrics.index_series"),
    ("twinsim.metrics", "tasks_csv", "metrics.tasks_csv"),
    ("twinsim.metrics", "indices_csv", "metrics.indices_csv"),
]

RUNNER = "twinsim.runner"


class Tracer:
    """Span stack, self time and call count per bucket, plus the counters
    read at the kernel boundary (events by kind, sends by payload tag,
    batched beacons)."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.sends: Counter = Counter()
        self.beacons = {"sent": 0, "delivered": 0}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self.self_s.clear()
        self.calls.clear()
        self.events.clear()
        self.sends.clear()
        self.beacons = {"sent": 0, "delivered": 0}

    def span(self, bucket: str, fn):
        """``fn`` wrapped in a span that charges its self time to ``bucket``."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[bucket] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[bucket] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
        return wrapped

    def install(self) -> None:
        """Wrap every entry point, the kernel's handler hooks and cKDTree."""
        runner = importlib.import_module(RUNNER)
        for module_name, attr, bucket in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.span(bucket, original)
            setattr(owner, name, wrapped)
            if not owner_name and getattr(runner, name, None) is original:
                setattr(runner, name, wrapped)
        self._install_kernel_hooks()
        self._install_kdtree(runner)

    def _install_kernel_hooks(self) -> None:
        from twinsim.kernel import Engine

        tracer = self
        schedule = Engine.schedule
        register = Engine.register
        send = Engine.send
        account_batch = Engine.account_batch
        events = self.events

        def counted(kind, fn):
            def fire(*args):
                events[kind] += 1
                return fn(*args)
            return fire

        def traced_schedule(self, at_us, fn, *args, kind="timer"):
            # The engine's own callbacks (delivery, retransmission) are kernel
            # time; everything else is a runner handler, grouped by kind.
            if getattr(fn, "__self__", None) is not self:
                fn = tracer.span(f"runner.{kind}", fn)
            return schedule(self, at_us, counted(kind, fn), *args, kind=kind)

        def traced_register(self, name, handler):
            return register(self, name, tracer.span("runner.delivery", handler))

        def tagged_send(self, dst, payload, *args, **kwargs):
            tag = payload[0] if isinstance(payload, tuple) and payload else "other"
            tracer.sends[tag] += 1
            return send(self, dst, payload, *args, **kwargs)

        def beacon_batch(self, sent, delivered, dropped):
            tracer.beacons["sent"] += sent
            tracer.beacons["delivered"] += delivered
            return account_batch(self, sent, delivered, dropped)

        Engine.schedule = self.span("kernel", traced_schedule)
        Engine.register = traced_register
        Engine.send = tagged_send
        Engine.account_batch = beacon_batch

    def _install_kdtree(self, runner) -> None:
        import scipy.spatial

        base = getattr(runner, "cKDTree", None)
        if base is None:
            self.missing.append(f"{RUNNER}.cKDTree")
            return
        traced = type("TracedKDTree", (base,), {
            "query_pairs": self.span("runner.kdtree", base.query_pairs)})
        factory = self.span("runner.kdtree", traced)
        runner.cKDTree = factory
        scipy.spatial.cKDTree = factory
