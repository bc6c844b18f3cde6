"""Benchmark: sparse-engine push kernels, paired-marginal per-step time.

Builds power-law overlays (the Batagelj–Brandes fast PA generator) and
measures *marginal round throughput* — seconds per gossip step with the
one-time setup (plan construction, state concatenation) subtracted out —
of the sparse engine under every available push kernel: the unfused
reference, the fused numpy kernel, and numba when the optional extra is
installed. Writes ``BENCH_kernels.json``.

Methodology: wall-clock on a shared host is non-stationary (factor-2
swings between minutes are routine), so single long runs lie. Every
kernel runs SHORT and LONG fixed budgets back-to-back, kernels
interleave round-robin within each repetition, the per-step cost is the
*marginal* ``(long - short) / (steps_long - steps_short)`` of each pair,
and ratios are medians of per-repetition ratios — drift hits both sides
of a ratio in the same minute.

The script cross-checks that every kernel lands near the same
fully-mixed estimates and conserves gossip mass, so a speedup obtained
by computing the wrong thing fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        [--n 1000000] [--m 8 16] [--steps 13] [--short-steps 3] \
        [--pairs 4] [--out BENCH_kernels.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.kernels import available_kernels
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.preferential_attachment import preferential_attachment_graph_fast
from repro.utils.hardware import host_metadata

#: Acceptance bar: fused kernel throughput vs the unfused reference.
FUSED_TARGET = 1.5


def _timed_run(graph, kernel: str, seed: int, values, weights, steps: int):
    """(wall seconds, outcome) of one fresh fixed-budget run."""
    engine = SparseGossipEngine(graph, rng=seed, kernel=kernel)
    start = time.perf_counter()
    outcome = engine.run(values, weights, xi=1e-12, max_steps=steps, run_to_max=True)
    return time.perf_counter() - start, outcome


def _paired_marginal_grid(
    graph,
    kernels: List[str],
    seed: int,
    values: np.ndarray,
    weights: np.ndarray,
    *,
    steps: int,
    short_steps: int,
    pairs: int,
) -> Dict[str, Dict[str, object]]:
    """Median marginal per-step seconds per kernel, interleaved.

    Each repetition runs every kernel's SHORT+LONG pair before the next
    repetition starts, so slow minutes of the host hit every kernel
    roughly equally and per-repetition ratios stay honest.
    """
    if short_steps >= steps:
        raise ValueError(f"short_steps ({short_steps}) must be < steps ({steps})")
    marginals: Dict[str, List[float]] = {name: [] for name in kernels}
    outcomes: Dict[str, object] = {}
    for _ in range(pairs):
        for kernel in kernels:
            short_elapsed, _ = _timed_run(graph, kernel, seed, values, weights, short_steps)
            long_elapsed, outcomes[kernel] = _timed_run(
                graph, kernel, seed, values, weights, steps
            )
            marginal = max(long_elapsed - short_elapsed, 1e-9) / (steps - short_steps)
            marginals[kernel].append(marginal)
    results: Dict[str, Dict[str, object]] = {}
    for kernel in kernels:
        median = statistics.median(marginals[kernel])
        results[kernel] = {
            "marginal_step_seconds": [round(m, 7) for m in marginals[kernel]],
            "median_step_seconds": round(median, 5),
            "steps_per_second": round(1.0 / median, 4),
            "push_messages": outcomes[kernel].push_messages,
            **_check_outcome(kernel, outcomes[kernel], values, steps),
        }
        print(
            f"  {kernel:10s} median {median * 1e3:8.1f} ms/step "
            f"({results[kernel]['steps_per_second']:.2f} steps/s marginal)"
        )
    return results


def _median_ratio(baseline: Dict[str, object], contender: Dict[str, object]) -> float:
    """Throughput ratio contender/baseline, median of per-pair ratios."""
    # The recorded marginals are rounded for the JSON artifact; clamp the
    # denominator so a sub-resolution marginal (tiny-N smoke shapes)
    # cannot divide by zero.
    pairs = zip(baseline["marginal_step_seconds"], contender["marginal_step_seconds"])
    return round(statistics.median(base / max(cont, 1e-9) for base, cont in pairs), 4)


def _check_outcome(kernel: str, outcome, values: np.ndarray, steps: int) -> Dict[str, float]:
    """Mass conservation + agreement on the mixed estimates."""
    n = values.shape[0]
    if not np.isclose(float(outcome.values.sum()), values.sum(), rtol=1e-9):
        raise AssertionError(f"{kernel}: gossip value mass not conserved")
    if not np.isclose(float(outcome.weights.sum()), float(n), rtol=1e-9):
        raise AssertionError(f"{kernel}: gossip weight mass not conserved")
    errors = np.abs(outcome.estimates.reshape(-1) - float(values.mean()))
    record = {
        "estimates_max_error": float(errors.max()),
        "estimates_mean_error": float(errors.mean()),
    }
    # Mixing needs ~log2(N) steps before the estimates mean anything;
    # gate only when the configured budget clears that bar (stragglers
    # keep the max noisy, so the mean carries the assertion).
    if steps >= int(np.ceil(np.log2(n))) + 6 and record["estimates_mean_error"] > 0.02:
        raise AssertionError(
            f"{kernel}: mean estimate error {record['estimates_mean_error']:.3g} "
            f"after {steps} steps — a kernel is computing the wrong thing"
        )
    return record


def run_benchmark(
    n: int = 1_000_000,
    *,
    m_values: Optional[List[int]] = None,
    steps: int = 13,
    short_steps: int = 3,
    pairs: int = 4,
    seed: int = 2016,
) -> Dict[str, object]:
    """The kernel grid, one sub-grid per PA density; returns the JSON record."""
    m_values = m_values or [8, 16]
    kernels = [name for name in ("unfused", "fused", "numba") if name in available_kernels()]
    grids: Dict[str, object] = {}
    for m in m_values:
        build_start = time.perf_counter()
        graph = preferential_attachment_graph_fast(n, m=m, rng=seed)
        build_seconds = time.perf_counter() - build_start
        print(
            f"graph: N={graph.num_nodes} E={graph.num_edges} m={m} "
            f"(built in {build_seconds:.1f}s); kernels: {', '.join(kernels)}"
        )
        values = np.random.default_rng(seed + 1).random(n)
        weights = np.ones(n)
        results = _paired_marginal_grid(
            graph, kernels, seed + 2, values, weights,
            steps=steps, short_steps=short_steps, pairs=pairs,
        )
        for kernel, record in results.items():
            if kernel != "unfused":
                record["speedup_vs_unfused"] = _median_ratio(results["unfused"], record)
        fused_speedup = results["fused"]["speedup_vs_unfused"]
        grids[f"m{m}"] = {
            "m": m,
            "num_edges": graph.num_edges,
            "graph_build_seconds": round(build_seconds, 2),
            "kernels": results,
            "fused_speedup": fused_speedup,
            "fused_target": FUSED_TARGET,
            "fused_target_met": bool(fused_speedup >= FUSED_TARGET),
        }
        print(f"  m={m}: fused {fused_speedup}x unfused (target {FUSED_TARGET}x)")
    return {
        "benchmark": "push_kernels",
        "n": n,
        "steps": steps,
        "short_steps": short_steps,
        "pairs": pairs,
        "seed": seed,
        **host_metadata(required_workers=1),
        "available_kernels": kernels,
        "methodology": (
            "paired marginal differencing: per repetition each kernel runs "
            "SHORT then LONG fixed budgets, marginal = (long-short)/(steps delta); "
            "ratios are medians of per-repetition ratios (robust to a "
            "non-stationary host clock)"
        ),
        "grids": grids,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument(
        "--m",
        type=int,
        nargs="+",
        default=[8, 16],
        help="PA densities of the grid (one sub-grid per value)",
    )
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--short-steps", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args(argv)

    record = run_benchmark(
        args.n,
        m_values=args.m,
        steps=args.steps,
        short_steps=args.short_steps,
        pairs=args.pairs,
        seed=args.seed,
    )
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
