"""Vectorised differential-gossip engine.

This engine executes the exact update rule of Algorithms 1–2 over numpy
arrays, which is what makes the paper's 50 000-node sweeps tractable in
Python. Per step, for every still-active node ``i``:

1. split the node's components into ``k_i + 1`` equal shares;
2. keep one share (the self-push);
3. send one share to each of ``k_i`` *distinct* random neighbours
   (a push lost to churn is redirected back to the sender, conserving
   mass — :class:`repro.network.conditions.PacketLossModel`);
4. sum everything received; compare the new estimate to the previous
   step's and run the convergence/stop protocol
   (:class:`repro.core.convergence.ConvergenceProtocol`).

Because a node pushes *all* of its state to the same chosen targets, an
``(N, d)`` state matrix evolves each of its ``d`` columns under shared
randomness — exactly the paper's vector variants (Algorithms 3–4), and
``d = 1`` recovers the single-node variants.

Everything random flows through one generator; identical seeds replay
identical rounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import (
    ConvergenceProtocol,
    channel_deviations,
    deviation_vector,
)
from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError, MassConservationError
from repro.core.results import GossipOutcome
from repro.core.state import MASS_RTOL, ratios
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator


def _as_state_matrix(array: np.ndarray, num_nodes: int, name: str) -> np.ndarray:
    """Coerce a per-node state array to a float64 ``(N, d)`` matrix."""
    out = np.array(array, dtype=np.float64, copy=True)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2 or out.shape[0] != num_nodes:
        raise ValueError(f"{name} must have shape (N,) or (N, d) with N={num_nodes}, got {out.shape}")
    return out


class VectorGossipEngine:
    """Reusable engine bound to a topology and a push-count rule.

    Parameters
    ----------
    graph:
        Overlay topology.
    push_counts:
        Per-node push counts ``k_i``; defaults to the differential rule
        (:func:`repro.core.differential.push_counts`). Pass
        ``fixed_push_counts(graph, 1)`` for the normal-push baseline.
    loss_model:
        Optional churn/packet-loss model applied to every push.
    rng:
        Seed / generator for target selection.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> import numpy as np
    >>> g = example_network()
    >>> engine = VectorGossipEngine(g, rng=7)
    >>> values = np.arange(10, dtype=float)
    >>> outcome = engine.run(values, np.ones(10), xi=1e-6)
    >>> bool(np.allclose(outcome.estimates, values.mean(), atol=1e-3))
    True
    """

    def __init__(
        self,
        graph: Graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_model: Optional[PacketLossModel] = None,
        rng: RngLike = None,
        degree_announcements: Optional[bool] = None,
    ):
        self._graph = graph
        # The differential rule needs each node to learn its neighbours'
        # degrees, which costs one push per directed edge at round start.
        # Fixed-count baselines (normal push) skip that exchange.
        if degree_announcements is None:
            degree_announcements = push_counts is None
        self._degree_announcements = bool(degree_announcements)
        push_counts = resolve_push_counts(graph, push_counts)
        self._push_counts = push_counts
        self._loss_model = loss_model
        self._rng = as_generator(rng)
        # Pre-grouped sender structure: k == 1 solo fast path, k >= 2 by value.
        degrees = graph.degrees
        active_eligible = degrees > 0
        self._k1_nodes = np.flatnonzero(active_eligible & (push_counts == 1))
        self._k_multi: List[Tuple[int, np.ndarray]] = []
        for k in np.unique(push_counts[active_eligible & (push_counts >= 2)]):
            self._k_multi.append((int(k), np.flatnonzero(push_counts == k)))

    @property
    def graph(self) -> Graph:
        """Topology this engine is bound to."""
        return self._graph

    @property
    def push_counts(self) -> np.ndarray:
        """Per-node push counts ``k_i`` (read-only)."""
        view = self._push_counts.view()
        view.flags.writeable = False
        return view

    # -- target selection -------------------------------------------------------

    def _choose_targets(self, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Random push targets for every active node.

        Returns ``(senders, targets)`` flat arrays: node ``senders[p]``
        pushes its share to ``targets[p]``. Each sender appears ``k_i``
        times with *distinct* targets.
        """
        graph = self._graph
        indptr, indices = graph.indptr, graph.indices
        degrees = graph.degrees
        rng = self._rng
        sender_chunks: List[np.ndarray] = []
        target_chunks: List[np.ndarray] = []

        # Fast path: k == 1 — one uniform neighbour per node, fully vectorised.
        k1 = self._k1_nodes[active[self._k1_nodes]]
        if k1.size:
            offsets = (rng.random(k1.size) * degrees[k1]).astype(np.int64)
            target_chunks.append(indices[indptr[k1] + offsets])
            sender_chunks.append(k1)

        # k >= 2 — sample k distinct neighbours per node. Hubs are few, so a
        # Python loop per hub is cheap relative to the vector work.
        for k, nodes in self._k_multi:
            selected = nodes[active[nodes]]
            for node in selected:
                neighbors = indices[indptr[node] : indptr[node + 1]]
                if k >= neighbors.size:
                    chosen = neighbors
                else:
                    chosen = rng.choice(neighbors, size=k, replace=False)
                target_chunks.append(np.asarray(chosen, dtype=np.int64))
                sender_chunks.append(np.full(chosen.size, node, dtype=np.int64))

        if not sender_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(sender_chunks), np.concatenate(target_chunks)

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        extras: Optional[Dict[str, np.ndarray]] = None,
        max_steps: int = 10_000,
        track_history: bool = False,
        run_to_max: bool = False,
        patience: int = 3,
        warmup_steps: Optional[int] = None,
        num_channels: int = 1,
    ) -> GossipOutcome:
        """Execute one gossip round to the stopping condition.

        Parameters
        ----------
        values, weights:
            Initial per-node gossip values/weights, shape ``(N,)`` or
            ``(N, d)``. Both are copied; callers' arrays are untouched.
        xi:
            Error tolerance; vector gossip uses eq. 7's ``d * xi``.
        extras:
            Extra components (same shape as ``values``) split and shipped
            with every push — Algorithm 2's ``count`` rides here.
        max_steps:
            Hard safety limit; exceeding it raises
            :class:`repro.core.errors.ConvergenceError`.
        track_history:
            Record the ``(N, d)`` ratio array after every step
            (memory-heavy; meant for small-N diagnostics).
        run_to_max:
            Ignore the stop protocol and run exactly ``max_steps`` steps
            (used by diffusion-speed studies that fix the step budget).
        patience:
            Consecutive satisfied convergence checks required before a
            node announces (see
            :class:`repro.core.convergence.ConvergenceProtocol`;
            ``patience=1`` is the paper-literal single-shot test).
        warmup_steps:
            Steps before convergence checks count; default
            ``ceil(log2 N) + 1`` — the time Theorem 5.1 says mass needs
            to reach every node. Pass 0 for the paper-literal rule.
        num_channels:
            Independent reputation channels ``V`` packed channel-major
            into the ``d`` columns (``d`` must be a multiple of ``V``).
            All channels share every sampling draw and scatter; only
            convergence is judged per channel (a node announces when
            every channel has latched). Default 1 — the classic
            single-channel protocol.

        Returns
        -------
        GossipOutcome

        Raises
        ------
        ConvergenceError
            If the protocol has not stopped within ``max_steps``.
        MassConservationError
            If a component's global sum drifts (an engine bug, not a
            user error — this should never fire).
        """
        graph = self._graph
        n = graph.num_nodes
        state: Dict[str, np.ndarray] = {
            "value": _as_state_matrix(values, n, "values"),
            "weight": _as_state_matrix(weights, n, "weights"),
        }
        d = state["value"].shape[1]
        if num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {num_channels}")
        if d % num_channels:
            raise ValueError(
                f"values width ({d}) must be a multiple of num_channels ({num_channels})"
            )
        if state["weight"].shape != state["value"].shape:
            raise ValueError(
                f"weights shape {state['weight'].shape} != values shape {state['value'].shape}"
            )
        for name, extra in (extras or {}).items():
            matrix = _as_state_matrix(extra, n, f"extras[{name}]")
            if matrix.shape != state["value"].shape:
                raise ValueError(
                    f"extras[{name}] shape {matrix.shape} != values shape {state['value'].shape}"
                )
            if name in state:
                raise ValueError(f"extra component name {name!r} is reserved")
            state[name] = matrix

        initial_mass = {
            name: float(component.sum(dtype=np.float64)) for name, component in state.items()
        }
        # Components whose total weight mass is zero can never define a
        # ratio anywhere; they stay at the sentinel and are excluded from
        # the "ratio defined" requirement below.
        live_components = state["weight"].sum(axis=0) != 0.0
        if warmup_steps is None:
            warmup_steps = int(np.ceil(np.log2(max(2, n)))) + 1
        protocol = ConvergenceProtocol(
            graph,
            xi,
            num_components=d,
            num_channels=num_channels,
            patience=patience,
            warmup_steps=warmup_steps,
        )
        previous_ratios = ratios(state["value"], state["weight"])
        # Whether each (node, component) cell has EVER held weight. A
        # node that keeps splitting without receiving drains its pair
        # geometrically until it underflows to exactly zero — but in
        # exact arithmetic the drain preserves the ratio, so once a cell
        # has been defined its last ratio is carried forward rather than
        # snapping back to the sentinel (which would otherwise deadlock
        # the last unconverged nodes in very long tails at large N).
        ever_defined = state["weight"] != 0.0
        history: Optional[List[np.ndarray]] = [] if track_history else None

        k_plus_one = (self._push_counts + 1).astype(np.float64).reshape(-1, 1)
        push_messages = 0
        # Degree announcements: one message per directed edge at round start.
        protocol_messages = int(graph.degrees.sum()) if self._degree_announcements else 0
        degrees = graph.degrees
        active_node_steps = 0
        steps = 0

        while not protocol.all_stopped or (run_to_max and steps < max_steps):
            if steps >= max_steps:
                if run_to_max:
                    break
                raise ConvergenceError(steps, protocol.num_unconverged)
            active = ~protocol.stopped & (graph.degrees > 0)
            if run_to_max:
                active = graph.degrees > 0
            senders, targets = self._choose_targets(active)
            if self._loss_model is not None:
                effective_targets = self._loss_model.apply(senders, targets)
            else:
                effective_targets = targets
            push_messages += int(senders.size)
            active_node_steps += int(active.sum())

            for component in state.values():
                # Shares come from the pre-split state; the in-place divide
                # then leaves exactly the self-share behind.
                shares = component[senders] / k_plus_one[senders]
                component[active] /= k_plus_one[active]
                np.add.at(component, effective_targets, shares)

            heard_external = np.zeros(n, dtype=bool)
            external = effective_targets[effective_targets != senders]
            heard_external[external] = True

            defined_now = state["weight"] != 0.0
            ever_defined |= defined_now
            new_ratios = ratios(state["value"], state["weight"])
            # Carry the last defined ratio through underflow-drained cells.
            drained = ever_defined & ~defined_now
            if drained.any():
                new_ratios[drained] = previous_ratios[drained]
            if num_channels == 1:
                if live_components.all():
                    ratio_defined = ever_defined.all(axis=1)
                else:
                    ratio_defined = ever_defined[:, live_components].all(axis=1)
                deviations = deviation_vector(new_ratios, previous_ratios)
            else:
                # Per-channel: a channel's ratio is defined once every
                # live column it owns has held weight (dead columns are
                # vacuously defined, as in the single-channel rule).
                if live_components.all():
                    defined_full = ever_defined
                else:
                    defined_full = ever_defined | ~live_components[None, :]
                ratio_defined = defined_full.reshape(
                    n, num_channels, d // num_channels
                ).all(axis=2)
                deviations = channel_deviations(
                    new_ratios, previous_ratios, num_channels
                )
            newly_converged = protocol.observe(
                deviations, heard_external, ratio_defined
            )
            if newly_converged.size:
                # Each announcement is one message to every neighbour.
                protocol_messages += int(degrees[newly_converged].sum())
            previous_ratios = new_ratios
            if history is not None:
                history.append(new_ratios.copy())
            steps += 1

            for name, component in state.items():
                total = float(component.sum(dtype=np.float64))
                scale = max(abs(initial_mass[name]), 1.0)
                if abs(total - initial_mass[name]) > MASS_RTOL * scale * max(1.0, np.sqrt(n * d)):
                    raise MassConservationError(
                        f"component {name!r} mass drifted from {initial_mass[name]!r} to {total!r} at step {steps}"
                    )

        extra_names = [name for name in state if name not in ("value", "weight")]
        return GossipOutcome(
            values=state["value"],
            weights=state["weight"],
            extras={name: state[name] for name in extra_names},
            steps=steps,
            push_messages=push_messages,
            protocol_messages=protocol_messages,
            active_node_steps=active_node_steps,
            converged=protocol.converged.copy(),
            ratio_history=history,
            num_channels=num_channels,
            channel_converged=(
                protocol.channel_converged.copy() if num_channels > 1 else None
            ),
        )
