"""Span tracing from outside the program.

The benchmark never edits ``src/repro``. For a traced run it replaces
public functions and methods of the program's modules with wrappers that
record one span per call — name, start, end, parent span and operation
id — in memory, and writes the spans out when the run ends. A layer's
self time is its spans' durations minus the time of their child spans.

:func:`install_library` wraps the gossip, overlay and runtime layers;
:func:`install_service` adds the HTTP, queue, service and snapshot
layers (used by ``serve_traced.py`` inside the server process).
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Passes over the state matrix one fused kernel step makes: the
#: prescale read, the prescale write and the scatter-add write.
KERNEL_STATE_PASSES = 3

#: Spans reported as ``<name>.calls`` and ``<name>.self_s`` per operation.
_SPAN_METRICS = (
    "plan.sample", "plan.build", "kernel.step", "protocol.observe", "engine.run",
    "mutable.add_peer", "mutable.remove_peer", "mutable.bridge", "mutable.snapshot",
    "runtime.step", "httpd.get", "httpd.post", "queue.put_many", "service.tick",
    "snapshot.get", "snapshot.top_k",
)


class _Open:
    """A span still running: its child time accrues as children close."""

    __slots__ = ("sid", "name", "start", "child_s", "op")

    def __init__(self, sid, name, start, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.op = op


class Tracer:
    """Records spans of wrapped calls; ``phase`` tags each span."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: Closed spans: (id, name, phase, start, end, self_s, parent id, op id).
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        self.lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._installed: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def add(self, key: str, amount: float) -> None:
        with self.lock:
            self.counters[key] += amount

    def _patch(self, owner, attr: str, replacement) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r} of its own")
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(tracer, args, result)`` updates counters once the call
        returns.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = _Open(
                next(tracer._ids),
                name,
                time.perf_counter(),
                parent.op if parent is not None else next(tracer._ops),
            )
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                duration = end - span.start
                if parent is not None:
                    parent.child_s += duration
                tracer.spans.append((
                    span.sid, name, tracer.phase, span.start, end,
                    duration - span.child_s,
                    parent.sid if parent is not None else None, span.op,
                ))
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = original
        self._patch(owner, attr, traced)

    def hook(self, owner, attr: str, after: Callable) -> None:
        """Call ``after(tracer, args, result)`` after ``owner.attr``; no span."""
        original = vars(owner)[attr]
        tracer = self

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(tracer, args, result)
            return result

        self._patch(owner, attr, hooked)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s`` in ``phase``."""
        out: Dict[str, Dict[str, float]] = collections.defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for _sid, name, span_phase, start, end, self_s, _parent, _op in self.spans:
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
        return dict(out)

    def summary(self) -> Dict:
        """JSON-friendly totals, counters and samples (crosses processes)."""
        return {
            "totals": {phase: self.totals(phase) for phase in ("setup", "ops")},
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "phase", "start", "end", "self_s", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- counters --------------------------------------------------------------


def _after_sample(tracer, args, result):
    tracer.add("plan.sample.pushes", len(result[1]))


def _after_kernel_step(tracer, args, result):
    state = result[0]
    tracer.add(
        "kernel.bytes_computed",
        state.shape[0] * state.shape[1] * state.itemsize * KERNEL_STATE_PASSES,
    )


def _after_observe(tracer, args, result):
    tracer.add("protocol.announced", len(result))


def _after_engine_run(tracer, args, result):
    engine = args[0]
    eligible = int(np.count_nonzero(engine.graph.degrees))
    tracer.add("engine.active_node_steps", result.active_node_steps)
    tracer.add("engine.eligible_steps", eligible * result.steps)
    tracer.add("engine.runs", 1)
    if type(engine).__name__ == "SparseGossipEngine":
        tracer.add("engine.sparse_runs", 1)


def _after_run_backend(tracer, args, result):
    if tracer.inside("runtime.step"):
        tracer.add("runtime.blocks", 1)


def install_library(tracer: Tracer) -> None:
    """Wrap the gossip, overlay and runtime layers' public entry points."""
    import repro
    import repro.core.backend as backend
    import repro.facade as facade
    import repro.network.preferential_attachment as pa
    import repro.runtime.dynamics as dynamics
    from repro.core.convergence import ConvergenceProtocol
    from repro.core.kernels.numpy_kernels import FusedNumpyKernel, UnfusedNumpyKernel
    from repro.core.kernels.plan import PushPlan
    from repro.core.sparse_engine import SparseGossipEngine
    from repro.core.vector_engine import VectorGossipEngine
    from repro.network.mutable import MutableOverlay

    tracer.wrap(PushPlan, "__init__", "plan.build")
    tracer.wrap(PushPlan, "sample_full_active", "plan.sample", _after_sample)
    tracer.wrap(PushPlan, "sample_subset", "plan.sample", _after_sample)
    for kernel in (FusedNumpyKernel, UnfusedNumpyKernel):
        tracer.wrap(kernel, "step", "kernel.step", _after_kernel_step)
    tracer.wrap(ConvergenceProtocol, "observe", "protocol.observe", _after_observe)
    for engine in (SparseGossipEngine, VectorGossipEngine):
        tracer.wrap(engine, "run", "engine.run", _after_engine_run)
    # run_backend is imported by name: wrap each namespace the measured
    # entry points resolve it from.
    for module in (backend, facade, dynamics):
        tracer.wrap(module, "run_backend", "backend.run", _after_run_backend)
    for module in (facade, repro):
        tracer.wrap(module, "aggregate", "variant")
    tracer.wrap(pa, "preferential_attachment_graph", "network.pa_build")
    tracer.wrap(MutableOverlay, "add_peer", "mutable.add_peer")
    tracer.wrap(MutableOverlay, "remove_peer", "mutable.remove_peer")
    tracer.wrap(MutableOverlay, "bridge_components", "mutable.bridge")
    tracer.wrap(MutableOverlay, "snapshot", "mutable.snapshot")
    tracer.wrap(dynamics.DynamicReputationRuntime, "step", "runtime.step")


def install_service(tracer: Tracer) -> None:
    """Wrap the library layers plus HTTP, queue, service and snapshot."""
    from repro.service.httpd import _Handler
    from repro.service.queue import ReportQueue
    from repro.service.service import ReputationService
    from repro.service.snapshot import ReputationSnapshot

    install_library(tracer)
    # FIFO of [accept time, reports left] pairs: drain pops from the
    # front, so each report's wait is its drain time minus its accept time.
    fifo: collections.deque = collections.deque()

    def after_put_many(tracer, args, accepted):
        pending = args[0].pending
        with tracer.lock:
            tracer.counters["queue.pending.max"] = max(
                tracer.counters["queue.pending.max"], pending
            )
            if accepted:
                fifo.append([time.perf_counter(), accepted])

    def after_drain(tracer, args, batch):
        now = time.perf_counter()
        left = len(batch)
        with tracer.lock:
            waits = tracer.samples["queue.wait_ms"]
            while left and fifo:
                entry = fifo[0]
                taken = min(left, entry[1])
                waits.extend([(now - entry[0]) * 1e3] * taken)
                entry[1] -= taken
                left -= taken
                if not entry[1]:
                    fifo.popleft()

    def after_tick(tracer, args, record):
        tracer.add("service.tick.epoch_steps", record.epoch_steps)

    tracer.wrap(_Handler, "do_GET", "httpd.get")
    tracer.wrap(_Handler, "do_POST", "httpd.post")
    tracer.wrap(ReportQueue, "put_many", "queue.put_many", after_put_many)
    tracer.hook(ReportQueue, "drain", after_drain)
    tracer.wrap(ReputationService, "tick", "service.tick", after_tick)
    tracer.wrap(ReputationSnapshot, "get", "snapshot.get")
    tracer.wrap(ReputationSnapshot, "top_k", "snapshot.top_k")


# -- the layer table -------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_table(summary: Dict, ops: float) -> Dict[str, float]:
    """Per-layer metrics from a tracer :meth:`~Tracer.summary`.

    Counts and self times are totals per workload operation (``ops`` is
    the number of traced operations, or traced seconds for the service);
    ratios, latencies and maxima are not divided. ``http.wait_ms``,
    ``queue.accept_ratio`` and ``trace.overhead_ratio`` are the caller's
    to add.
    """
    totals = summary["totals"]["ops"]
    counters = summary["counters"]
    samples = summary["samples"]

    def span(name: str) -> Dict[str, float]:
        return totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    table: Dict[str, float] = {}
    for name in _SPAN_METRICS:
        entry = span(name)
        table[f"{name}.calls"] = _ratio(entry["calls"], ops)
        table[f"{name}.self_s"] = _ratio(entry["self_s"], ops)
    builds = summary["totals"]["setup"].get("network.pa_build")
    waits = samples.get("queue.wait_ms", [])
    ticks = span("service.tick")["calls"]
    table.update({
        "plan.sample.pushes": _ratio(counters.get("plan.sample.pushes", 0.0), ops),
        "kernel.bytes_computed": _ratio(counters.get("kernel.bytes_computed", 0.0), ops),
        "protocol.announced": _ratio(counters.get("protocol.announced", 0.0), ops),
        "engine.active_ratio": _ratio(
            counters.get("engine.active_node_steps", 0.0),
            counters.get("engine.eligible_steps", 0.0),
        ),
        "backend.dispatch_s": _ratio(span("backend.run")["self_s"], ops),
        "backend.resolved": _ratio(
            counters.get("engine.sparse_runs", 0.0), counters.get("engine.runs", 0.0)
        ),
        "variant.state_s": _ratio(span("variant")["self_s"], ops),
        "network.pa_build_s": _ratio(builds["self_s"], builds["calls"]) if builds else 0.0,
        "runtime.blocks": _ratio(
            counters.get("runtime.blocks", 0.0), span("runtime.step")["calls"]
        ),
        "queue.wait_ms": float(np.median(waits)) if waits else 0.0,
        "queue.pending.max": counters.get("queue.pending.max", 0.0),
        "service.tick.epoch_s": _ratio(span("runtime.step")["total_s"], ticks),
        "service.tick.epoch_steps": _ratio(counters.get("service.tick.epoch_steps", 0.0), ticks),
    })
    return table
