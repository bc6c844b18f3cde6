"""Sparse CSR differential-gossip engine.

This is the scale-path engine: it executes the exact Algorithm 1–4
update rule of :class:`repro.core.vector_engine.VectorGossipEngine`, but
every per-step operation is a flat vectorised pass over preallocated
buffers — no Python loop over nodes, however skewed the degree
distribution.

The push round itself — target sampling, share split, self-share scale,
scatter-accumulate, heard bookkeeping — is delegated to a pluggable
*kernel* from :mod:`repro.core.kernels`:

- ``fused`` (default): prescales the state matrix once and buffer-swaps
  instead of re-scaling, gathers shares with a single ``take``, and
  scatter-adds all columns through one combined ``bincount`` — no
  ``(N, C)`` temporaries in the hot loop.
- ``numba``: the same round with compiled selection and a fully fused
  scatter pass; requires the optional ``kernels`` extra.
- ``unfused``: the historical step, byte-for-byte, kept as the parity
  and benchmark reference.

All kernels draw targets through one shared
:class:`~repro.core.kernels.plan.PushPlan`, so a fixed seed samples the
same neighbour subsets under every kernel; see the kernels package for
the exact byte-compatibility contract.

Semantics are identical to the dense engine: the same
:class:`repro.core.convergence.ConvergenceProtocol` stop rule, the same
:class:`repro.network.conditions.PacketLossModel` mass-conserving redirect,
the same per-step mass-conservation assertions, and the same
drained-ratio carry for underflowed cells.
Identical seeds replay identical *sparse* runs bit-for-bit under a
fixed kernel; the sparse and dense engines consume randomness in
different patterns, so their trajectories differ step-by-step while
converging to the same estimates (the cross-engine integration tests
pin this to 1e-8 relative agreement).

The engine accepts either a :class:`repro.network.graph.Graph` or any
``scipy.sparse`` adjacency matrix (converted once via
:meth:`repro.network.graph.Graph.from_scipy_sparse`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import ConvergenceProtocol
from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError, MassConservationError
from repro.core.kernels import PushPlan, select_kernel
from repro.core.results import GossipOutcome
from repro.core.state import MASS_RTOL, UNDEFINED_RATIO
from repro.core.vector_engine import _as_state_matrix
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator


def _coerce_graph(graph) -> Graph:
    """Accept a :class:`Graph` or a scipy sparse adjacency matrix."""
    if isinstance(graph, Graph):
        return graph
    if hasattr(graph, "tocsr"):
        return Graph.from_scipy_sparse(graph)
    raise TypeError(
        f"graph must be a repro Graph or a scipy sparse adjacency matrix, got {type(graph)!r}"
    )


class SparseGossipEngine:
    """Vectorised CSR engine for very large gossip rounds.

    Drop-in compatible with
    :class:`repro.core.vector_engine.VectorGossipEngine`: same
    constructor parameters (the topology may additionally be a
    ``scipy.sparse`` matrix), same :meth:`run` signature, same
    :class:`repro.core.results.GossipOutcome`.

    Parameters
    ----------
    graph:
        Overlay topology — a :class:`repro.network.graph.Graph` or a
        square symmetric zero-diagonal ``scipy.sparse`` matrix.
    push_counts:
        Per-node push counts ``k_i``; defaults to the differential rule.
    loss_model:
        Optional churn/packet-loss model applied to every push.
    rng:
        Seed / generator for target selection.
    kernel:
        Push-round kernel name (``"fused"``, ``"numba"``,
        ``"unfused"``) or ``None``/"auto" for the best available — see
        :func:`repro.core.kernels.select_kernel`.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> import numpy as np
    >>> g = example_network()
    >>> engine = SparseGossipEngine(g, rng=7)
    >>> values = np.arange(10, dtype=float)
    >>> outcome = engine.run(values, np.ones(10), xi=1e-6)
    >>> bool(np.allclose(outcome.estimates, values.mean(), atol=1e-3))
    True
    """

    def __init__(
        self,
        graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_model: Optional[PacketLossModel] = None,
        rng: RngLike = None,
        degree_announcements: Optional[bool] = None,
        kernel: Optional[str] = None,
    ):
        graph = _coerce_graph(graph)
        self._graph = graph
        if degree_announcements is None:
            degree_announcements = push_counts is None
        self._degree_announcements = bool(degree_announcements)
        push_counts = resolve_push_counts(graph, push_counts)
        self._push_counts = push_counts
        self._loss_model = loss_model
        self._rng = as_generator(rng)
        # Resolve the kernel spec up front so an unavailable request
        # fails at construction, not mid-run.
        self._kernel_spec = select_kernel(kernel)
        self._plan = PushPlan(graph.indptr, graph.indices, graph.degrees, push_counts)
        self._inv_k_plus_one = 1.0 / (push_counts + 1.0)
        self._max_pushes = self._plan.max_pushes
        self._kernels: Dict[Tuple[int, int], object] = {}

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

    @property
    def kernel_name(self) -> str:
        """Name of the push kernel this engine resolved to."""
        return self._kernel_spec.name

    @property
    def _groups(self):
        """Padded sampling groups (compatibility accessor for tests)."""
        return self._plan.groups

    @property
    def _k1_nodes(self) -> np.ndarray:
        return self._plan.k1_nodes

    # -- target selection -------------------------------------------------------

    def _choose_targets(self, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Random push targets for every active node, fully vectorised.

        Returns ``(senders, targets)`` flat arrays: node ``senders[p]``
        pushes its share to ``targets[p]``. Each sender appears ``k_i``
        times with *distinct* targets, uniformly over the
        ``k_i``-subsets of its neighbourhood.
        """
        return self._plan.sample_subset(self._rng, active)

    def _kernel_for(self, num_cols: int, num_channels: int = 1):
        """Kernel instance for a ``num_cols``-wide state (cached per width)."""
        key = (num_cols, num_channels)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernel_spec.factory(
                self._plan,
                self._inv_k_plus_one,
                num_cols,
                num_channels=num_channels,
            )
            self._kernels[key] = kernel
        return kernel

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

        Parameters, semantics, return type and raised exceptions are
        identical to
        :meth:`repro.core.vector_engine.VectorGossipEngine.run`.
        """
        graph = self._graph
        n = graph.num_nodes
        value = _as_state_matrix(values, n, "values")
        weight = _as_state_matrix(weights, n, "weights")
        d = value.shape[1]
        if num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {num_channels}")
        if d % num_channels:
            raise ValueError(
                f"values width ({d}) must be a multiple of num_channels ({num_channels})"
            )
        if weight.shape != value.shape:
            raise ValueError(f"weights shape {weight.shape} != values shape {value.shape}")
        names: List[str] = ["value", "weight"]
        columns: List[np.ndarray] = [value, weight]
        for name, extra in (extras or {}).items():
            matrix = _as_state_matrix(extra, n, f"extras[{name}]")
            if matrix.shape != value.shape:
                raise ValueError(
                    f"extras[{name}] shape {matrix.shape} != values shape {value.shape}"
                )
            if name in ("value", "weight"):
                raise ValueError(f"extra component name {name!r} is reserved")
            names.append(name)
            columns.append(matrix)

        # One contiguous (N, C) state matrix; component i owns columns
        # [i*d, (i+1)*d). Gather/scale/scatter touch all components at once.
        state = np.concatenate(columns, axis=1)
        slices = {name: slice(i * d, (i + 1) * d) for i, name in enumerate(names)}
        total_cols = state.shape[1]

        initial_mass = {
            name: float(state[:, sl].sum(dtype=np.float64)) for name, sl in slices.items()
        }
        live_components = state[:, slices["weight"]].sum(axis=0) != 0.0
        all_live = bool(live_components.all())
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
        history: Optional[List[np.ndarray]] = [] if track_history else None

        kernel = self._kernel_for(total_cols, num_channels)
        degrees = graph.degrees
        eligible = degrees > 0
        eligible_count = self._plan.eligible_count
        mass_bound = {
            name: MASS_RTOL * max(abs(initial_mass[name]), 1.0) * max(1.0, np.sqrt(n * d))
            for name in names
        }

        # Reusable bookkeeping buffers: the ratio matrices ping-pong
        # between steps, everything else is overwritten in full each
        # round.
        ratio_a = np.full((n, d), UNDEFINED_RATIO, dtype=np.float64)
        ratio_b = np.empty((n, d), dtype=np.float64)
        deviation_matrix = np.empty((n, d), dtype=np.float64)
        deviations = np.empty(n, dtype=np.float64)
        channel_dev = (
            np.empty((n, num_channels), dtype=np.float64) if num_channels > 1 else None
        )
        defined_now = np.empty((n, d), dtype=bool)
        not_defined = np.empty((n, d), dtype=bool)
        drained = np.empty((n, d), dtype=bool)
        heard_external = np.empty(n, dtype=bool)
        active_buf = np.empty(n, dtype=bool)
        not_stopped = np.empty(n, dtype=bool)

        def compute_ratios(out: np.ndarray) -> bool:
            # Same operations as state.ratios(): fill the sentinel, then
            # a masked divide.
            value_view = state[:, slices["value"]]
            weight_view = state[:, slices["weight"]]
            np.not_equal(weight_view, 0.0, out=defined_now)
            if defined_now.all():
                # No zero weights: a plain divide writes every slot the
                # masked divide would, so the sentinel fill is dead work.
                np.divide(value_view, weight_view, out=out)
                return True
            out.fill(UNDEFINED_RATIO)
            np.divide(value_view, weight_view, out=out, where=defined_now)
            return False

        all_defined = compute_ratios(ratio_a)
        previous_ratios = ratio_a
        new_ratios = ratio_b
        ever_defined = defined_now.copy()
        # Once every weight is non-zero, ever_defined is all-True and
        # the drained/ratio_defined algebra below is constant: the flag
        # lets the common case (weights initialised positive everywhere)
        # skip it entirely. Decisions are identical either way.
        ever_defined_all = bool(all_defined)

        push_messages = 0
        protocol_messages = int(degrees.sum()) if self._degree_announcements else 0
        active_node_steps = 0
        steps = 0

        while not protocol.all_stopped or (run_to_max and steps < max_steps):
            if steps >= max_steps:
                if run_to_max:
                    break
                raise ConvergenceError(steps, protocol.num_unconverged)
            if run_to_max:
                active = eligible
                active_count = eligible_count
            else:
                np.logical_not(protocol.stopped, out=not_stopped)
                active = np.logical_and(eligible, not_stopped, out=active_buf)
                active_count = int(active.sum())
            active_node_steps += active_count

            state, num_pushes = kernel.step(
                state,
                active,
                all_active=active_count == eligible_count,
                rng=self._rng,
                loss_model=self._loss_model,
                heard_out=heard_external,
            )
            push_messages += num_pushes

            all_defined = compute_ratios(new_ratios)
            if all_defined:
                # Every cell defined this step: nothing can have
                # drained (drained = ever_defined & ~defined_now is
                # empty), and the defined mask observe needs is
                # all-True (None in its calling convention).
                if not ever_defined_all:
                    ever_defined[:] = True
                    ever_defined_all = True
                ratio_defined = None
            else:
                ever_defined |= defined_now
                np.logical_not(defined_now, out=not_defined)
                np.logical_and(ever_defined, not_defined, out=drained)
                if drained.any():
                    # A cell whose weight underflowed to zero keeps its
                    # last defined ratio instead of snapping to the
                    # sentinel.
                    new_ratios[drained] = previous_ratios[drained]
                if num_channels > 1:
                    # Per-channel defined mask: every live column the
                    # channel owns has held weight (dead columns are
                    # vacuously defined).
                    if all_live:
                        defined_full = ever_defined
                    else:
                        defined_full = ever_defined | ~live_components[None, :]
                    ratio_defined = defined_full.reshape(
                        n, num_channels, d // num_channels
                    ).all(axis=2)
                elif all_live:
                    # (n, 1) column view == .all(axis=1) minus the reduce.
                    ratio_defined = ever_defined[:, 0] if d == 1 else ever_defined.all(axis=1)
                else:
                    ratio_defined = ever_defined[:, live_components].all(axis=1)

            if num_channels > 1:
                np.subtract(new_ratios, previous_ratios, out=deviation_matrix)
                np.abs(deviation_matrix, out=deviation_matrix)
                np.sum(
                    deviation_matrix.reshape(n, num_channels, d // num_channels),
                    axis=2,
                    out=channel_dev,
                )
                step_deviations = channel_dev
            elif d == 1:
                np.subtract(new_ratios[:, 0], previous_ratios[:, 0], out=deviations)
                np.abs(deviations, out=deviations)
                step_deviations = deviations
            else:
                np.subtract(new_ratios, previous_ratios, out=deviation_matrix)
                np.abs(deviation_matrix, out=deviation_matrix)
                np.sum(deviation_matrix, axis=1, out=deviations)
                step_deviations = deviations
            newly_converged = protocol.observe(step_deviations, heard_external, ratio_defined)
            if newly_converged.size:
                protocol_messages += int(degrees[newly_converged].sum())
            previous_ratios, new_ratios = new_ratios, previous_ratios
            if history is not None:
                history.append(previous_ratios.copy())
            steps += 1

            # Per-slice strided sums: ~13x faster than one
            # state.sum(axis=0) pass (numpy's axis-0 reduce over a
            # C-order matrix is a slow strided inner loop).
            for name, sl in slices.items():
                total = float(state[:, sl].sum(dtype=np.float64))
                if abs(total - initial_mass[name]) > mass_bound[name]:
                    raise MassConservationError(
                        f"component {name!r} mass drifted from {initial_mass[name]!r} to {total!r} at step {steps}"
                    )

        extra_names = [name for name in names if name not in ("value", "weight")]
        return GossipOutcome(
            values=state[:, slices["value"]].copy(),
            weights=state[:, slices["weight"]].copy(),
            extras={name: state[:, slices[name]].copy() for name in extra_names},
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
