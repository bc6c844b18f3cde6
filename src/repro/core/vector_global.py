"""Algorithm variant 3 — simultaneous global aggregation for all nodes.

Instead of gossiping about one target, every node pushes its whole
feedback *vector* ``y_i`` (one slot per target) and weight vector
``g_i``, tagged with target ids so receivers add slot-wise. Convergence
uses the summed criterion of eq. 7. Dynamics per slot are identical to
Algorithm 1 run under shared push randomness, so one engine invocation
with an ``(N, d)`` state matrix is an exact simulation.

Memory is ``O(N * d)``: tracking all ``N`` targets is feasible to a few
thousand nodes; beyond that, pass a ``targets`` subset (the experiments
sample targets — slot dynamics are independent, so a sample is unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.core.single_global import Convention
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike


@dataclass
class VectorGlobalResult:
    """Outcome of variant 3.

    Attributes
    ----------
    targets:
        Target node ids, one per column.
    estimates:
        ``(N, d)`` matrix: ``estimates[I, c]`` is node ``I``'s estimate
        of target ``targets[c]``'s global reputation.
    true_values:
        Exact per-target values (length ``d``).
    outcome:
        Raw engine outcome.
    """

    targets: np.ndarray
    estimates: np.ndarray
    true_values: np.ndarray
    outcome: GossipOutcome

    @property
    def max_relative_error(self) -> float:
        """Worst relative error over every (node, target) cell."""
        scale = np.where(np.abs(self.true_values) > 0, np.abs(self.true_values), 1.0)
        return float((np.abs(self.estimates - self.true_values[None, :]) / scale[None, :]).max())


def initial_state_vector_global(
    trust: TrustMatrix,
    targets: Sequence[int],
    convention: Convention = "observers",
) -> tuple:
    """Initial ``(values, weights)`` matrices, one column per target."""
    n = trust.num_nodes
    d = len(targets)
    values = np.zeros((n, d), dtype=np.float64)
    weights = np.zeros((n, d), dtype=np.float64)
    for col, target in enumerate(targets):
        for observer, value in trust.column(int(target)).items():
            values[observer, col] = value
            weights[observer, col] = 1.0
    if convention == "all":
        weights[:, :] = 1.0
    elif convention != "observers":
        raise ValueError(f"convention must be 'observers' or 'all', got {convention!r}")
    return values, weights


def aggregate_vector_global(
    graph: Graph,
    trust: TrustMatrix,
    *,
    targets: Optional[Sequence[int]] = None,
    xi: float = 1e-4,
    convention: Convention = "observers",
    backend: str = "auto",
    push_counts: Optional[np.ndarray] = None,
    loss_model: Optional[PacketLossModel] = None,
    rng: RngLike = None,
    max_steps: int = 10_000,
    track_history: bool = False,
    patience: int = 3,
) -> VectorGlobalResult:
    """Run variant 3: every node estimates every target's global reputation.

    Parameters
    ----------
    graph, trust:
        Topology and local trust matrix (sizes must agree).
    targets:
        Target columns to aggregate (default: all ``N`` nodes — mind the
        ``O(N^2)`` memory).
    xi:
        Eq.-7 tolerance (per-node threshold is ``d * xi``).
    convention:
        See :mod:`repro.core.single_global`.
    backend:
        Gossip backend name (or ``"auto"``); see
        :func:`repro.core.backend.available_backends`.
    Other parameters as in
    :func:`repro.core.single_global.aggregate_single_global`.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> from repro.trust.matrix import random_trust_matrix
    >>> graph = example_network()
    >>> trust = random_trust_matrix(graph, rng=1)
    >>> result = aggregate_vector_global(graph, trust, targets=[0, 3], rng=2)
    >>> result.estimates.shape
    (10, 2)
    """
    if graph.num_nodes != trust.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but trust matrix has {trust.num_nodes}"
        )
    if targets is None:
        targets = range(graph.num_nodes)
    target_array = np.asarray(list(targets), dtype=np.int64)
    if target_array.size == 0:
        raise ValueError("targets must be non-empty")
    if np.any((target_array < 0) | (target_array >= graph.num_nodes)):
        raise ValueError(f"targets outside 0..{graph.num_nodes - 1}")
    if np.unique(target_array).size != target_array.size:
        raise ValueError("targets must be distinct")

    values, weights = initial_state_vector_global(trust, target_array, convention)
    outcome = run_backend(
        graph,
        values,
        weights,
        config=GossipConfig(
            xi=xi,
            push_counts=push_counts,
            loss_model=loss_model,
            rng=rng,
            max_steps=max_steps,
            track_history=track_history,
            patience=patience,
        ),
        backend=backend,
    )

    if convention == "observers":
        true_values = np.array(
            [trust.column_mean_over_observers(int(t)) for t in target_array]
        )
    else:
        true_values = np.array([trust.column_mean_over_all(int(t)) for t in target_array])

    return VectorGlobalResult(
        targets=target_array,
        estimates=outcome.estimates,
        true_values=true_values,
        outcome=outcome,
    )
