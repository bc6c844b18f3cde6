"""The library workloads: ``mean-200k`` and ``churn-50k``.

Each runs in this process, through the public entry points a caller
uses (``repro.aggregate`` and ``DynamicReputationRuntime.step``), and
returns a :class:`WorkloadRun`. Inputs derive from the workload seed
only: ``SeedSequence([seed, k])`` for input ``k``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
import repro.network.preferential_attachment as pa
from repro.core.backend import GossipConfig, choose_backend_name
from repro.core.kernels import select_kernel
from repro.network.mutable import MutableOverlay
from repro.runtime.dynamics import DynamicReputationRuntime
from repro.runtime.trace import ChurnTrace

from common import Checks, median, own_peak_rss_mb
from spans import Tracer, install_library, layer_table

#: Stop threshold of every ``mean-200k`` call (the paper's xi).
XI = 1e-6
#: Largest |estimate - sum(values)/sum(weights)| a converged node may show.
#: Basis: 3x the worst error of 46 converged calls at N=200k (1.3e-4),
#: and below the smallest known false stop (4.2e-4, ROADMAP item 1).
MEAN_TOL = 4e-4
#: ``churn-50k`` accuracy-rule tolerance (the runtime's default epoch_tol).
EPOCH_TOL = 1e-3
#: Fixed engine seeds per run whose counts give the count medians.
COUNT_OPS = 5
#: Fixed warm epochs per run whose counts give the count medians.
COUNT_EPOCHS = 8
#: Nominal seconds per operation on a 2-CPU host. A run makes
#: ``seconds / nominal`` operations (at least the counted ones), so the
#: work done, and the base of failed_ratio, do not depend on speed.
CALL_NOMINAL_S = 3.0
EPOCH_NOMINAL_S = 1.2
#: Fresh set-ups per untraced run; setup_s is their median.
MEAN_SETUP_REPEATS = 3
SETUP_REPEATS = 5
#: Operations per half of a traced run (untraced half, traced half), at least.
TRACE_OPS = 2


@dataclass
class WorkloadRun:
    """What one run measured."""

    checks: Checks
    backend: str
    kernel: Optional[str]
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict = field(default_factory=dict)
    #: The traced run's tracer, whose spans ``run.py`` writes out.
    tracer: Optional[Tracer] = None


def _seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *key])


def _op_count(seconds: float, nominal: float, minimum: int) -> int:
    return max(minimum, int(round(seconds / nominal)))


def _run_ops(op: Callable[[int], dict], start: int, count: int) -> List[dict]:
    """Run ``op(start)`` .. ``op(start + count - 1)``."""
    return [op(start + i) for i in range(count)]


def _timed_setup(build: Callable[[], object], repeats: int, tracer: Optional[Tracer]) -> tuple:
    """Build ``repeats`` times; return the last world and the median time.

    With a ``tracer`` the one build is traced (its spans give
    ``network.pa_build_s``).
    """
    if tracer is not None:
        install_library(tracer)
        try:
            return _timed_setup(build, 1, None)
        finally:
            tracer.uninstall()
    times = []
    world = None
    for _ in range(repeats):
        world = None  # release the previous world before building the next
        began = time.perf_counter()
        world = build()
        times.append(time.perf_counter() - began)
    return world, median(times)


def _traced_halves(tracer: Tracer, op: Callable[[int], dict], count: int, repeat: bool) -> tuple:
    """``count`` untraced then ``count`` traced operations; both result lists.

    The traced half repeats the untraced indices where operations can
    repeat (``repeat``), and takes the following ones where they chain
    (epochs).
    """
    untraced = _run_ops(op, 0, count)
    install_library(tracer)
    tracer.phase = "ops"
    try:
        traced = _run_ops(op, 0 if repeat else count, count)
    finally:
        tracer.uninstall()
    return untraced, traced


def _layers(tracer: Tracer, untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    table = layer_table(tracer.summary(), len(traced))
    table["http.wait_ms"] = table["queue.accept_ratio"] = 0.0
    table["trace.overhead_ratio"] = median([r["seconds"] for r in traced]) / median(
        [r["seconds"] for r in untraced]
    )
    return table


# -- mean-200k -------------------------------------------------------------


def mean_200k(seed: int, seconds: float, trace: bool, tiny: bool) -> WorkloadRun:
    """``repro.aggregate`` to convergence on a 200k-node PA graph."""
    n = 3_000 if tiny else 200_000
    m = 4

    def build():
        graph = pa.preferential_attachment_graph(n, m=m, rng=_seq(seed, 0))
        values = np.random.default_rng(_seq(seed, 1)).random(n)
        return graph, values

    tracer = Tracer()
    (graph, values), setup_s = _timed_setup(
        build, MEAN_SETUP_REPEATS, tracer if trace else None
    )

    fixpoint = float(values.sum()) / n  # every weight starts at 1
    checks = Checks()
    backend = choose_backend_name(graph, GossipConfig(xi=XI))
    run = WorkloadRun(
        checks, backend, select_kernel(None).name if backend == "sparse" else None
    )

    def call(rng) -> dict:
        began = time.perf_counter()
        out = repro.aggregate(graph, values, GossipConfig(xi=XI, rng=rng))
        elapsed = time.perf_counter() - began
        error = float(np.abs(out.estimates[:, 0] - fixpoint).max())
        converged = bool(out.converged.all())
        checks.record(
            converged and error <= MEAN_TOL,
            f"converged={converged} max_error={error:.3e} (tolerance {MEAN_TOL:g})",
        )
        return {
            "seconds": elapsed,
            "steps": out.steps,
            "msgs_per_node": (out.push_messages + out.protocol_messages) / n,
            "max_error": error,
        }

    call(_seq(seed, 2))  # untimed warm-up
    op = lambda i: call(_seq(seed, 3, i))  # noqa: E731

    if trace:
        count = _op_count(seconds / 2, CALL_NOMINAL_S, TRACE_OPS)
        untraced, traced = _traced_halves(tracer, op, count, repeat=True)
        run.metrics = _layers(tracer, untraced, traced)
        run.details["traced_ops"] = len(traced)
        run.tracer = tracer
        return run

    results = _run_ops(op, 0, _op_count(seconds, CALL_NOMINAL_S, COUNT_OPS))
    counted = results[:COUNT_OPS]
    run.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb(),
        "converge_s": median([r["seconds"] for r in results]),
        "converge_steps": median([r["steps"] for r in counted]),
        "msgs_per_node": median([r["msgs_per_node"] for r in counted]),
    }
    run.details.update({
        "call_seconds": [r["seconds"] for r in results],
        "calls": len(results),
        "max_error": max(r["max_error"] for r in results),
        "tolerance": MEAN_TOL,
    })
    return run


# -- churn-50k -------------------------------------------------------------


def churn_50k(seed: int, seconds: float, trace: bool, tiny: bool) -> WorkloadRun:
    """Warm ``DynamicReputationRuntime`` epochs under 1% join / 1% leave."""
    n = 2_000 if tiny else 50_000
    # The cold epoch, then enough warm epochs for either kind of run.
    epochs = 1 + 2 * _op_count(seconds, EPOCH_NOMINAL_S, COUNT_EPOCHS)

    def build():
        overlay = MutableOverlay.grow_preferential(n, m=3, rng=_seq(seed, 0))
        churn = ChurnTrace.steady(
            epochs, population=n, join_rate=0.01, leave_rate=0.01, seed=seed
        )
        runtime = DynamicReputationRuntime(
            overlay, config=GossipConfig(delta=0.0), backend="auto", stop_rule="accuracy"
        )
        runtime.initialize(churn.seed)
        return runtime, list(churn)

    tracer = Tracer()
    (runtime, schedule), setup_s = _timed_setup(
        build, SETUP_REPEATS, tracer if trace else None
    )

    checks = Checks()
    backend = runtime.backend
    run = WorkloadRun(
        checks, backend, select_kernel(None).name if backend == "sparse" else None
    )

    def epoch(index: int) -> dict:
        churn = schedule[index]
        began = time.perf_counter()
        record = runtime.step(arrivals=churn.arrivals, departures=churn.departures)
        elapsed = time.perf_counter() - began
        checks.record(
            record.converged_fraction == 1.0 and record.mean_abs_error <= EPOCH_TOL,
            f"epoch {record.epoch}: converged_fraction={record.converged_fraction} "
            f"mean_abs_error={record.mean_abs_error:.3e} (epoch_tol {EPOCH_TOL:g})",
        )
        return {
            "seconds": elapsed,
            "steps": record.steps,
            "msgs_per_node": record.push_messages / record.num_peers,
            "mean_abs_error": record.mean_abs_error,
        }

    epoch(0)  # the cold epoch is the untimed warm-up
    warm = lambda i: epoch(1 + i)  # noqa: E731

    if trace:
        count = _op_count(seconds / 2, EPOCH_NOMINAL_S, TRACE_OPS)
        untraced, traced = _traced_halves(tracer, warm, count, repeat=False)
        run.metrics = _layers(tracer, untraced, traced)
        run.details["traced_ops"] = len(traced)
        run.tracer = tracer
        return run

    results = _run_ops(warm, 0, _op_count(seconds, EPOCH_NOMINAL_S, COUNT_EPOCHS))
    counted = results[:COUNT_EPOCHS]
    run.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb(),
        "epoch_s": median([r["seconds"] for r in results]),
        "epoch_steps": median([r["steps"] for r in counted]),
        "msgs_per_node": median([r["msgs_per_node"] for r in counted]),
    }
    run.details.update({
        "epoch_seconds": [r["seconds"] for r in results],
        "warm_epochs": len(results),
        "max_mean_abs_error": max(r["mean_abs_error"] for r in results),
        "tolerance": EPOCH_TOL,
    })
    return run
