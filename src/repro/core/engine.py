"""Message-level differential-gossip engine.

Where :mod:`repro.core.vector_engine` vectorises the update rule for
scale, this engine models the *protocol*: every node is an object with a
mailbox, pushes are discrete messages, and the convergence announcement
is a message-like event between neighbours. It exists for three reasons:

1. it is a line-by-line rendering of the paper's Algorithm 1/2
   pseudocode, so reviewers can audit fidelity;
2. it cross-checks the vectorised engine (integration tests run both on
   the same topology and compare converged estimates);
3. it produces the per-iteration, per-node traces behind the paper's
   Table 1.

It is O(N) Python objects per step — use it for small networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError
from repro.core.results import GossipOutcome
from repro.core.state import UNDEFINED_RATIO
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass
class PushMessage:
    """One gossip push: a ``1/(k+1)`` share of the sender's components."""

    sender: int
    value: np.ndarray  # shape (d,)
    weight: np.ndarray  # shape (d,)
    extras: Dict[str, np.ndarray] = field(default_factory=dict)


class GossipNode:
    """Per-node protocol state machine for differential gossip.

    Mirrors Algorithm 1's per-node variables: the gossip components, the
    previous-step ratio ``u``, the convergence flag, and the set of
    neighbours known to have converged.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: np.ndarray,
        k: int,
        value: np.ndarray,
        weight: np.ndarray,
        extras: Dict[str, np.ndarray],
    ):
        self.node_id = node_id
        self.neighbors = neighbors
        self.k = int(k)
        self.value = value.astype(np.float64).copy()
        self.weight = weight.astype(np.float64).copy()
        self.extras = {name: arr.astype(np.float64).copy() for name, arr in extras.items()}
        self.inbox: List[PushMessage] = []
        self.ever_defined = self.weight != 0.0
        self.previous_ratio = np.full_like(self.value, UNDEFINED_RATIO)
        np.divide(self.value, self.weight, out=self.previous_ratio, where=self.weight != 0.0)
        self.converged = False
        self.satisfied_streak = 0
        self.converged_neighbors: set = set()
        self.stopped = neighbors.size == 0  # isolated nodes never gossip

    def _ratio(self) -> np.ndarray:
        """Current estimate, carrying the last defined ratio through
        drained cells.

        Splitting preserves the ratio exactly in real arithmetic, so a
        cell whose pair underflowed to float zero keeps its previous
        estimate; only never-defined cells show the sentinel.
        """
        defined_now = self.weight != 0.0
        self.ever_defined |= defined_now
        out = self.previous_ratio.copy()
        np.divide(self.value, self.weight, out=out, where=defined_now)
        out[~self.ever_defined] = UNDEFINED_RATIO
        return out

    def absorb_inbox(self) -> bool:
        """Sum all received pairs into local state (Algorithm 1's update).

        Returns whether any pair arrived from a node other than self —
        the ``|S| > 1`` guard on the convergence check.
        """
        heard_external = False
        for message in self.inbox:
            self.value += message.value
            self.weight += message.weight
            for name, arr in message.extras.items():
                self.extras[name] += arr
            if message.sender != self.node_id:
                heard_external = True
        self.inbox.clear()
        return heard_external

    def make_shares(self) -> Tuple[PushMessage, PushMessage]:
        """Split state into ``k + 1`` shares; return (self-share, outgoing-share).

        The outgoing share is identical for every chosen target, so one
        prototype message is built and copied per target by the engine.
        """
        divisor = self.k + 1
        share_value = self.value / divisor
        share_weight = self.weight / divisor
        share_extras = {name: arr / divisor for name, arr in self.extras.items()}
        self_share = PushMessage(self.node_id, share_value, share_weight, share_extras)
        out_share = PushMessage(
            self.node_id,
            share_value.copy(),
            share_weight.copy(),
            {name: arr.copy() for name, arr in share_extras.items()},
        )
        # After splitting, local state is emptied; the self-share comes back
        # through the mailbox exactly as the pseudocode's "send ... to itself".
        self.value = np.zeros_like(self.value)
        self.weight = np.zeros_like(self.weight)
        self.extras = {name: np.zeros_like(arr) for name, arr in self.extras.items()}
        return self_share, out_share

    def check_convergence(
        self,
        threshold: float,
        heard_external: bool,
        live_components: np.ndarray,
        patience: int,
    ) -> bool:
        """Run the ``|y/g - u| <= xi`` test; returns True if newly converged.

        A node whose weight has never been non-zero on a live component
        has an undefined (sentinel) estimate and cannot converge yet.
        The test must hold for ``patience`` consecutive heard-external
        steps (see :class:`repro.core.convergence.ConvergenceProtocol`).
        """
        ratio = self._ratio()
        deviation = float(np.abs(ratio - self.previous_ratio).sum())
        self.previous_ratio = ratio
        if self.converged or not heard_external:
            return False
        if np.any(~self.ever_defined[live_components]) or deviation > threshold:
            self.satisfied_streak = 0
            return False
        self.satisfied_streak += 1
        if self.satisfied_streak >= patience:
            self.converged = True
            return True
        return False

    def note_neighbor_converged(self, neighbor: int) -> None:
        """Record a neighbour's convergence announcement."""
        self.converged_neighbors.add(neighbor)

    def refresh_stopped(self) -> None:
        """Stop once self and every neighbour have converged."""
        if self.converged and len(self.converged_neighbors) >= self.neighbors.size:
            self.stopped = True


class MessageLevelGossip:
    """Protocol-faithful gossip executor over :class:`GossipNode` objects.

    Parameters
    ----------
    graph:
        Topology.
    push_counts:
        Per-node ``k_i``; defaults to the differential rule.
    loss_model:
        Optional churn model; a lost push is re-enqueued to the sender.
    rng:
        Seed / generator for target selection.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.topology_example import example_network
    >>> engine = MessageLevelGossip(example_network(), rng=3)
    >>> out = engine.run(np.arange(10.0), np.ones(10))
    >>> bool(np.allclose(out.estimates, 4.5, atol=1e-3))  # mean of 0..9
    True
    """

    def __init__(
        self,
        graph: Graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_model: Optional[PacketLossModel] = None,
        rng: RngLike = None,
    ):
        self._graph = graph
        # Non-strict: oversized counts are clamped to node degree (with
        # a PushCountClampWarning) — the clamp must happen before the
        # (k + 1)-way split or the excess shares would leak gossip mass.
        self._push_counts = resolve_push_counts(graph, push_counts, strict=False)
        self._loss_model = loss_model
        self._rng = as_generator(rng)

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        extras: Optional[Dict[str, np.ndarray]] = None,
        max_steps: int = 10_000,
        track_history: bool = False,
        patience: int = 3,
        warmup_steps: Optional[int] = None,
    ) -> GossipOutcome:
        """Execute one gossip round; same contract as the vector engine.

        See :meth:`repro.core.vector_engine.VectorGossipEngine.run`.
        """
        check_positive(xi, "xi")
        graph = self._graph
        n = graph.num_nodes
        values = np.array(values, dtype=np.float64, copy=True)
        weights = np.array(weights, dtype=np.float64, copy=True)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if weights.ndim == 1:
            weights = weights.reshape(-1, 1)
        if values.shape != weights.shape or values.shape[0] != n:
            raise ValueError(
                f"values/weights must share shape (N, d) with N={n}; got {values.shape} and {weights.shape}"
            )
        d = values.shape[1]
        extra_arrays = {}
        for name, arr in (extras or {}).items():
            arr = np.array(arr, dtype=np.float64, copy=True)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.shape != values.shape:
                raise ValueError(f"extras[{name}] shape {arr.shape} != values shape {values.shape}")
            extra_arrays[name] = arr
        threshold = xi * d

        nodes = [
            GossipNode(
                i,
                graph.neighbors(i),
                self._push_counts[i],
                values[i],
                weights[i],
                {name: arr[i] for name, arr in extra_arrays.items()},
            )
            for i in range(n)
        ]

        history: Optional[List[np.ndarray]] = [] if track_history else None
        live_components = weights.sum(axis=0) != 0.0
        if warmup_steps is None:
            warmup_steps = int(np.ceil(np.log2(max(2, n)))) + 1
        push_messages = 0
        protocol_messages = int(graph.degrees.sum())  # degree announcements
        active_node_steps = 0
        steps = 0

        while not all(node.stopped for node in nodes):
            if steps >= max_steps:
                raise ConvergenceError(steps, sum(1 for node in nodes if not node.converged))

            # Send phase: every active node splits and pushes.
            for node in nodes:
                if node.stopped or node.neighbors.size == 0:
                    continue
                active_node_steps += 1
                self_share, out_share = node.make_shares()
                node.inbox.append(self_share)
                if node.k >= node.neighbors.size:
                    chosen = node.neighbors
                else:
                    chosen = self._rng.choice(node.neighbors, size=node.k, replace=False)
                for target in np.atleast_1d(chosen):
                    push_messages += 1
                    receiver = int(target)
                    if self._loss_model is not None:
                        redirected = self._loss_model.apply(
                            np.array([node.node_id]), np.array([receiver])
                        )
                        receiver = int(redirected[0])
                    message = PushMessage(
                        node.node_id,
                        out_share.value.copy(),
                        out_share.weight.copy(),
                        {name: arr.copy() for name, arr in out_share.extras.items()},
                    )
                    nodes[receiver].inbox.append(message)

            # Receive phase: absorb, check convergence, announce.
            announcements: List[int] = []
            in_warmup = steps < warmup_steps
            for node in nodes:
                if node.inbox:
                    heard_external = node.absorb_inbox()
                    if node.check_convergence(
                        threshold, heard_external and not in_warmup, live_components, patience
                    ):
                        announcements.append(node.node_id)
            for announcer in announcements:
                protocol_messages += int(nodes[announcer].neighbors.size)
                for neighbor in nodes[announcer].neighbors:
                    nodes[int(neighbor)].note_neighbor_converged(announcer)
            for node in nodes:
                node.refresh_stopped()

            steps += 1
            if history is not None:
                snapshot = np.vstack([node._ratio() for node in nodes])
                history.append(snapshot)

        final_values = np.vstack([node.value for node in nodes])
        final_weights = np.vstack([node.weight for node in nodes])
        final_extras = {
            name: np.vstack([node.extras[name] for node in nodes]) for name in extra_arrays
        }
        return GossipOutcome(
            values=final_values,
            weights=final_weights,
            extras=final_extras,
            steps=steps,
            push_messages=push_messages,
            protocol_messages=protocol_messages,
            active_node_steps=active_node_steps,
            converged=np.array([node.converged for node in nodes]),
            ratio_history=history,
        )
