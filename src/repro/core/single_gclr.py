"""Algorithm 2 — globally calibrated local reputation for a single node.

Each estimating node ``I`` computes (eq. 6):

``Rep_I,j = (sum_{k in NS_I} (w_Ik - 1) t_kj  +  sum_i t_ij)
           / (sum_{k in NS_I} (w_Ik - 1)      +  N_d)``

The two global sums — ``sum_i t_ij`` and the observer count ``N_d`` —
come out of one gossip round in which exactly *one* designated node
starts with gossip weight 1 (so every ratio converges to a *sum*, not a
mean), and observers additionally gossip a ``count`` component seeded
at 1. The neighbour terms need each neighbour's direct feedback about
``j``, which neighbours push directly before the round starts (the
pre-gossip feedback exchange in the paper's Figure 1 timeline).

The pseudocode's denominator uses the *observer count* ``N_d``; the
derivation in eq. 6 uses ``N`` (all nodes). ``denominator_convention``
selects between them, defaulting to the pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.core.weights import WeightParams, excess_weights
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike

DenominatorConvention = Literal["observers", "all"]
#: Any registered backend name ("dense", "message", "sparse", ...);
#: "vector" remains as a registry alias of "dense".
EngineName = str


@dataclass
class SingleGclrResult:
    """Outcome of Algorithm 2 for one target node.

    Attributes
    ----------
    target:
        Node whose reputation was aggregated.
    reputations:
        ``Rep_I,j`` per estimating node ``I`` — note these legitimately
        *differ across nodes*; that is the point of GCLR.
    true_reputations:
        Exact eq.-6 values computed directly from the trust matrix.
    global_sum_estimates:
        Per-node gossip estimate of ``sum_i t_ij``.
    observer_count_estimates:
        Per-node gossip estimate of ``N_d``.
    outcome:
        Raw engine outcome.
    """

    target: int
    reputations: np.ndarray
    true_reputations: np.ndarray
    global_sum_estimates: np.ndarray
    observer_count_estimates: np.ndarray
    outcome: GossipOutcome

    @property
    def max_absolute_error(self) -> float:
        """Worst per-node deviation from the exact eq.-6 value."""
        return float(np.abs(self.reputations - self.true_reputations).max())


def neighbor_correction_terms(
    graph: Graph,
    trust: TrustMatrix,
    target: int,
    params: WeightParams,
) -> tuple:
    """Per-node numerator/denominator corrections from neighbour feedback.

    Returns ``(y_hat, w_excess_sum)`` where for each estimating node
    ``I``: ``y_hat[I] = sum_{k in NS_I} (w_Ik - 1) * t_kj`` and
    ``w_excess_sum[I] = sum_{k in NS_I} (w_Ik - 1)``.

    Only neighbours enter these sums: eq. 6 exploits that non-neighbours
    always have weight exactly 1, i.e. zero excess.
    """
    n = graph.num_nodes
    y_hat = np.zeros(n, dtype=np.float64)
    w_excess_sum = np.zeros(n, dtype=np.float64)
    feedback = trust.column(target)  # observer -> t_observer,target
    for estimator in range(n):
        excess = excess_weights(params, trust.row(estimator))
        for neighbor in graph.neighbors(estimator):
            neighbor = int(neighbor)
            e = excess.get(neighbor)
            if e is None:
                continue
            w_excess_sum[estimator] += e
            t_kj = feedback.get(neighbor)
            if t_kj is not None:
                y_hat[estimator] += e * t_kj
    return y_hat, w_excess_sum


def true_single_gclr(
    graph: Graph,
    trust: TrustMatrix,
    target: int,
    params: WeightParams,
    denominator_convention: DenominatorConvention = "observers",
) -> np.ndarray:
    """Exact eq.-6 reputations, computed without gossip (ground truth)."""
    y_hat, w_excess_sum = neighbor_correction_terms(graph, trust, target, params)
    column = trust.column(target)
    global_sum = float(sum(column.values()))
    count = float(len(column)) if denominator_convention == "observers" else float(trust.num_nodes)
    denominator = w_excess_sum + count
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = np.where(denominator > 0, (y_hat + global_sum) / denominator, 0.0)
    return rep


def pick_designated_node(graph: Graph) -> int:
    """Lowest-id non-isolated node — the single carrier of gossip weight 1.

    The pseudocode hardcodes "node 1"; any node reachable by gossip
    works, but it must be able to participate or the weight mass would
    be stranded and every ratio would stay undefined.
    """
    degrees = graph.degrees
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        raise ValueError("graph has no edges; sum-estimating gossip cannot run")
    return int(candidates[0])


def initial_state_single_gclr(
    trust: TrustMatrix, target: int, designated: int
) -> tuple:
    """Initial ``(values, weights, counts)`` vectors for Algorithm 2.

    Observers of ``target`` seed the value sum and the observer count;
    exactly one ``designated`` node carries gossip weight 1 so every
    ratio converges to a *sum*, not a mean. Exposed separately so the
    :func:`repro.aggregate` facade, tests and baselines share the exact
    initialisation.
    """
    n = trust.num_nodes
    values = np.zeros(n, dtype=np.float64)
    counts = np.zeros(n, dtype=np.float64)
    for observer, value in trust.column(target).items():
        values[observer] = value
        counts[observer] = 1.0
    weights = np.zeros(n, dtype=np.float64)
    weights[designated] = 1.0
    return values, weights, counts


def aggregate_single_gclr(
    graph: Graph,
    trust: TrustMatrix,
    target: int,
    *,
    params: WeightParams = WeightParams(),
    xi: float = 1e-4,
    denominator_convention: DenominatorConvention = "observers",
    engine: EngineName = "vector",
    backend: Optional[str] = None,
    designated_node: Optional[int] = None,
    push_counts: Optional[np.ndarray] = None,
    loss_model: Optional[PacketLossModel] = None,
    rng: RngLike = None,
    max_steps: int = 10_000,
    track_history: bool = False,
    patience: int = 3,
) -> SingleGclrResult:
    """Run Algorithm 2: every node's own calibrated estimate of ``target``.

    Parameters mirror :func:`repro.core.single_global.aggregate_single_global`,
    plus:

    params:
        Weighting constants ``a``, ``b`` of eq. 2.
    denominator_convention:
        ``"observers"`` divides by the gossiped observer count ``N_d``
        (Algorithm 2 pseudocode); ``"all"`` divides by ``N`` (eq. 6).
    designated_node:
        The single node starting with gossip weight 1 (default: lowest-id
        non-isolated node).

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.trust.matrix import random_trust_matrix
    >>> g = preferential_attachment_graph(50, m=2, rng=11)
    >>> t = random_trust_matrix(g, rng=12)
    >>> r = aggregate_single_gclr(g, t, target=7, xi=1e-6, rng=13)
    >>> r.max_absolute_error < 0.01
    True
    """
    if graph.num_nodes != trust.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but trust matrix has {trust.num_nodes}"
        )
    if not 0 <= target < graph.num_nodes:
        raise ValueError(f"target {target} outside 0..{graph.num_nodes - 1}")
    if denominator_convention not in ("observers", "all"):
        raise ValueError(
            f"denominator_convention must be 'observers' or 'all', got {denominator_convention!r}"
        )

    n = graph.num_nodes
    designated = pick_designated_node(graph) if designated_node is None else int(designated_node)
    if not 0 <= designated < n:
        raise ValueError(f"designated_node {designated} outside 0..{n - 1}")
    if graph.degree(designated) == 0:
        raise ValueError(f"designated_node {designated} is isolated; gossip weight would be stranded")

    values, weights, counts = initial_state_single_gclr(trust, target, designated)
    outcome = run_backend(
        graph,
        values,
        weights,
        extras={"count": counts},
        config=GossipConfig(
            xi=xi,
            push_counts=push_counts,
            loss_model=loss_model,
            rng=rng,
            max_steps=max_steps,
            track_history=track_history,
            patience=patience,
        ),
        backend=backend if backend is not None else engine,
    )

    global_sum_estimates = outcome.estimates.reshape(-1)
    observer_count_estimates = outcome.extra_estimates("count").reshape(-1)
    y_hat, w_excess_sum = neighbor_correction_terms(graph, trust, target, params)

    if denominator_convention == "observers":
        count_term = observer_count_estimates
    else:
        count_term = np.full(n, float(n))
    denominator = w_excess_sum + count_term
    with np.errstate(invalid="ignore", divide="ignore"):
        reputations = np.where(
            denominator > 0, (y_hat + global_sum_estimates) / denominator, 0.0
        )

    return SingleGclrResult(
        target=target,
        reputations=reputations,
        true_reputations=true_single_gclr(graph, trust, target, params, denominator_convention),
        global_sum_estimates=global_sum_estimates,
        observer_count_estimates=observer_count_estimates,
        outcome=outcome,
    )
