"""Convergence detection and the stop-announcement protocol.

A node cannot observe the network-wide state, so the paper's stopping
rule is purely local and has two layers:

1. **Self convergence** — after a step in which the node heard from at
   least one *other* node, it compares its new estimate against the
   previous step's (``|y/g - u| <= xi`` for a scalar; eq. 7's summed
   form ``sum_j |ratio_j(n) - ratio_j(n-1)| <= N * xi`` for a vector)
   and, on success, announces convergence to its neighbours.
2. **Neighbourhood convergence** — a converged node keeps gossiping
   (its neighbours may still need its pushes) and only *stops* once it
   and every one of its neighbours have announced convergence.

:class:`ConvergenceProtocol` implements both layers over arrays so the
vectorised engine can drive thousands of nodes per step; the
message-level engine uses the same class one node at a time.
"""

from __future__ import annotations

import numpy as np

from repro.network.graph import Graph
from repro.utils.validation import check_positive


class ConvergenceProtocol:
    """Tracks per-node convergence and the neighbour-announcement stop rule.

    Parameters
    ----------
    graph:
        Topology (neighbour sets drive the stop rule).
    xi:
        Error tolerance ``xi`` of the paper. For vector gossip over
        ``d`` components the per-node threshold is ``d * xi`` (eq. 7
        with ``d = N``).
    num_components:
        Number of gossiped components ``d`` (1 for Algorithms 1–2).
    num_channels:
        Number of independent reputation channels ``V`` the ``d``
        components are split into (channel-major: components
        ``[c * d/V, (c+1) * d/V)`` belong to channel ``c``). Each
        channel runs the paper's eq.-7 test independently against the
        per-channel threshold ``xi * d/V``; a node announces
        convergence only once *every* channel has latched, so one
        converged channel can never stop a straggler channel. The
        default 1 is the single-channel protocol of the paper.
    patience:
        Number of *consecutive* satisfied checks required before a node
        announces convergence. The paper announces on the first
        satisfied check (``patience = 1``); with few feedback sources
        that single-shot test can fire while a region is still
        exchanging mass from just one source (every local ratio equal,
        globally wrong), freezing the round early. A small patience
        (2–3) makes the local rule reliable at negligible step cost; the
        deviation from the paper is documented in DESIGN.md.
    warmup_steps:
        Checks during the first ``warmup_steps`` steps never count: a
        node whose estimate has not moved *because no value mass has
        reached it yet* is indistinguishable from a converged one by the
        local test, and Theorem 5.1 says mass needs ~polylog(N) steps to
        spread. Engines default this to ``ceil(log2 N) + 1``, the PA
        diameter scale. ``warmup_steps = 0`` is the paper-literal rule.

    Notes
    -----
    Isolated nodes (degree 0) can neither push nor receive; they are
    treated as stopped from the outset so they never block termination.
    """

    def __init__(
        self,
        graph: Graph,
        xi: float,
        *,
        num_components: int = 1,
        num_channels: int = 1,
        patience: int = 1,
        warmup_steps: int = 0,
    ):
        check_positive(xi, "xi")
        if num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {num_components}")
        if num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {num_channels}")
        if num_components % num_channels:
            raise ValueError(
                f"num_components ({num_components}) must be a multiple of "
                f"num_channels ({num_channels})"
            )
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        self._xi = float(xi)
        self._num_channels = int(num_channels)
        self._threshold = float(xi) * (num_components // num_channels)
        self._patience = int(patience)
        self._warmup_steps = int(warmup_steps)
        self._bind(graph)

    def _bind(self, graph: Graph) -> None:
        """Install ``graph`` and zero every per-node counter.

        The degree vector is copied at bind time: the stop rule
        compares ``_converged_neighbor_count`` against it, and both
        must describe the *same* topology. Reading degrees freshly off
        ``graph`` on every refresh invited a stale-counter bug — a
        caller swapping the graph object (e.g. a dynamic-epoch runtime
        reusing one protocol across overlay snapshots) would have
        counters accumulated on the old topology compared against the
        new degree vector, stopping nodes that never converged on the
        new graph. Swapping topologies is now an explicit
        :meth:`rebind`, which resets the counters.
        """
        self._graph = graph
        self._degrees = graph.degrees.copy()
        self._observed_steps = 0
        n = graph.num_nodes
        self._converged = np.zeros(n, dtype=bool)
        self._converged_neighbor_count = np.zeros(n, dtype=np.int64)
        isolated = self._degrees == 0
        self._converged[isolated] = True
        self._isolated = isolated
        self._stopped = isolated.copy()
        # Reusable per-step scratch (observe runs every gossip round;
        # at large N the boolean temporaries dominate its cost). With
        # V > 1 channels the streak/satisfied/failed state is kept per
        # (node, channel); the single-channel layout is untouched.
        if self._num_channels == 1:
            self._satisfied_streak = np.zeros(n, dtype=np.int64)
            self._satisfied = np.empty(n, dtype=bool)
            self._failed = np.empty(n, dtype=bool)
            self._scratch = np.empty(n, dtype=bool)
        else:
            V = self._num_channels
            self._satisfied_streak = np.zeros((n, V), dtype=np.int64)
            self._channel_converged = np.zeros((n, V), dtype=bool)
            self._channel_converged[isolated, :] = True
            self._satisfied = np.empty((n, V), dtype=bool)
            self._failed = np.empty((n, V), dtype=bool)
            self._scratch = np.empty((n, V), dtype=bool)
            self._node_scratch = np.empty(n, dtype=bool)

    def rebind(self, graph: Graph) -> None:
        """Re-target the protocol at a new topology, resetting all state.

        Convergence flags, patience streaks and converged-neighbour
        counters are per-topology quantities: carrying them across a
        graph swap would let counters earned on the old neighbourhoods
        satisfy the new degree vector (a node could be marked stopped
        against neighbours it never heard announce). Use this between
        dynamic-network epochs when reusing one protocol object;
        warm-start state lives in the gossip pairs, not here.
        """
        self._bind(graph)

    # -- read-only state -------------------------------------------------------

    @property
    def xi(self) -> float:
        """Configured error tolerance."""
        return self._xi

    @property
    def threshold(self) -> float:
        """Per-channel deviation threshold (``xi * num_components / num_channels``)."""
        return self._threshold

    @property
    def num_channels(self) -> int:
        """Number of independent reputation channels ``V``."""
        return self._num_channels

    @property
    def channel_converged(self) -> np.ndarray:
        """``(N, V)`` per-channel convergence latches (read-only).

        With a single channel this is the node-level ``converged`` mask
        viewed as an ``(N, 1)`` column.
        """
        if self._num_channels == 1:
            view = self._converged.reshape(-1, 1).view()
        else:
            view = self._channel_converged.view()
        view.flags.writeable = False
        return view

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of nodes that have announced convergence (read-only)."""
        view = self._converged.view()
        view.flags.writeable = False
        return view

    @property
    def stopped(self) -> np.ndarray:
        """Boolean mask of nodes that stopped gossiping (read-only)."""
        view = self._stopped.view()
        view.flags.writeable = False
        return view

    @property
    def all_stopped(self) -> bool:
        """Whether every node has stopped — the round is over."""
        return bool(self._stopped.all())

    @property
    def num_unconverged(self) -> int:
        """Number of nodes that have not announced convergence yet."""
        return int((~self._converged).sum())

    # -- per-step update ---------------------------------------------------------

    def observe(
        self,
        deviations: np.ndarray,
        heard_external: np.ndarray,
        ratio_defined: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Fold one step's estimate movements into the protocol.

        Parameters
        ----------
        deviations:
            Per-node total estimate movement this step
            (``sum_j |ratio_j(n) - ratio_j(n-1)|``; plain absolute
            difference when ``d = 1``). With ``num_channels > 1`` this
            is the ``(N, V)`` per-channel movement matrix
            (:func:`channel_deviations`).
        heard_external:
            Boolean mask — node received at least one gossip pair from a
            node other than itself this step (the ``|S| > 1`` guard).
        ratio_defined:
            Boolean mask — node's estimate is defined, i.e. its gossip
            weight is non-zero on every live component. While a node's
            weight is zero its ratio is the sentinel ``u = 10``
            (undefined), and the paper's convergence test cannot be
            passed: a node that knows nothing has not converged, however
            still its sentinel sits. ``None`` means "all defined".

        Returns
        -------
        numpy.ndarray
            Ids of nodes that *newly* announced convergence this step.
        """
        if self._num_channels > 1:
            return self._observe_channels(deviations, heard_external, ratio_defined)
        deviations = np.asarray(deviations, dtype=np.float64)
        heard_external = np.asarray(heard_external, dtype=bool)
        n = self._graph.num_nodes
        if deviations.shape != (n,) or heard_external.shape != (n,):
            raise ValueError(
                f"expected shape ({n},) arrays, got {deviations.shape} and {heard_external.shape}"
            )
        self._observed_steps += 1
        # All boolean algebra below runs in preallocated buffers — the
        # per-step temporaries were a measurable fraction of large-N
        # step time. The decisions are identical to the expression
        # satisfied = ~converged & heard & (deviations <= threshold).
        satisfied = self._satisfied
        not_converged = self._scratch
        np.less_equal(deviations, self._threshold, out=satisfied)
        satisfied &= heard_external
        np.logical_not(self._converged, out=not_converged)
        satisfied &= not_converged
        if ratio_defined is not None:
            ratio_defined = np.asarray(ratio_defined, dtype=bool)
            if ratio_defined.shape != (n,):
                raise ValueError(f"ratio_defined must have shape ({n},), got {ratio_defined.shape}")
            satisfied &= ratio_defined
        if self._observed_steps <= self._warmup_steps:
            satisfied[:] = False
        # A failed check (on a step where the node heard something) resets
        # the streak; steps with no external input leave it unchanged, as
        # the pseudocode skips the check entirely when |S| <= 1.
        failed = self._failed
        np.logical_not(satisfied, out=failed)
        failed &= heard_external
        failed &= not_converged
        # No index lists: adding the boolean mask adds exactly 1 where
        # satisfied (3x cheaper than a masked add).
        np.add(self._satisfied_streak, satisfied, out=self._satisfied_streak)
        np.copyto(self._satisfied_streak, 0, where=failed)
        announced = self._scratch  # not_converged is dead past this point
        np.greater_equal(self._satisfied_streak, self._patience, out=announced)
        announced &= satisfied
        newly = np.flatnonzero(announced)
        if newly.size:
            self._announce(newly)
        self._refresh_stopped()
        return newly

    def _observe_channels(
        self,
        deviations: np.ndarray,
        heard_external: np.ndarray,
        ratio_defined: "np.ndarray | None",
    ) -> np.ndarray:
        """Multi-channel :meth:`observe`: per-channel eq.-7 latches.

        Each channel keeps its own satisfied streak and, once it has
        held ``patience`` consecutive satisfied checks, latches
        converged — permanently, mirroring the single-channel announce.
        The *node* announces (and starts counting toward the
        neighbourhood stop rule) only when all ``V`` of its channels
        have latched, so a straggler channel keeps the whole node
        gossiping.
        """
        deviations = np.asarray(deviations, dtype=np.float64)
        heard_external = np.asarray(heard_external, dtype=bool)
        n = self._graph.num_nodes
        V = self._num_channels
        if deviations.shape != (n, V) or heard_external.shape != (n,):
            raise ValueError(
                f"expected ({n}, {V}) deviations and ({n},) heard mask, "
                f"got {deviations.shape} and {heard_external.shape}"
            )
        self._observed_steps += 1
        satisfied = self._satisfied
        not_latched = self._scratch
        np.less_equal(deviations, self._threshold, out=satisfied)
        satisfied &= heard_external[:, None]
        np.logical_not(self._channel_converged, out=not_latched)
        satisfied &= not_latched
        if ratio_defined is not None:
            ratio_defined = np.asarray(ratio_defined, dtype=bool)
            if ratio_defined.shape == (n,):
                satisfied &= ratio_defined[:, None]
            elif ratio_defined.shape == (n, V):
                satisfied &= ratio_defined
            else:
                raise ValueError(
                    f"ratio_defined must have shape ({n},) or ({n}, {V}), "
                    f"got {ratio_defined.shape}"
                )
        if self._observed_steps <= self._warmup_steps:
            satisfied[:] = False
        failed = self._failed
        np.logical_not(satisfied, out=failed)
        failed &= heard_external[:, None]
        failed &= not_latched
        np.add(self._satisfied_streak, satisfied, out=self._satisfied_streak)
        np.copyto(self._satisfied_streak, 0, where=failed)
        latched = self._scratch  # not_latched is dead past this point
        np.greater_equal(self._satisfied_streak, self._patience, out=latched)
        latched &= satisfied
        self._channel_converged |= latched
        node_ready = self._node_scratch
        np.all(self._channel_converged, axis=1, out=node_ready)
        node_ready &= ~self._converged
        newly = np.flatnonzero(node_ready)
        if newly.size:
            self._announce(newly)
        self._refresh_stopped()
        return newly

    def _announce(self, nodes: np.ndarray) -> None:
        """Mark ``nodes`` (a non-empty id array) converged and notify their neighbours."""
        self._converged[nodes] = True
        # Gather every announcer's CSR range in one pass (block start
        # repeated over the block, plus a running position); np.add.at
        # counts shared neighbours once per announcer.
        indptr, indices = self._graph.indptr, self._graph.indices
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        ends = np.cumsum(counts)
        slots = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        np.add.at(self._converged_neighbor_count, indices[slots], 1)

    def _refresh_stopped(self) -> None:
        # Compare counters against the bind-time degree copy, never a
        # freshly read graph attribute — see _bind.
        stopped = self._stopped
        np.greater_equal(self._converged_neighbor_count, self._degrees, out=stopped)
        stopped &= self._converged
        stopped |= self._isolated


def deviation_scalar(new_ratios: np.ndarray, old_ratios: np.ndarray) -> np.ndarray:
    """Per-node estimate movement for scalar gossip (``d = 1``)."""
    return np.abs(np.asarray(new_ratios) - np.asarray(old_ratios)).reshape(-1)


def deviation_vector(new_ratios: np.ndarray, old_ratios: np.ndarray) -> np.ndarray:
    """Per-node estimate movement for vector gossip (eq. 7 left-hand side).

    Parameters
    ----------
    new_ratios, old_ratios:
        ``(N, d)`` ratio arrays from consecutive steps.
    """
    new_ratios = np.asarray(new_ratios)
    old_ratios = np.asarray(old_ratios)
    if new_ratios.ndim != 2:
        raise ValueError(f"expected (N, d) ratios, got shape {new_ratios.shape}")
    return np.abs(new_ratios - old_ratios).sum(axis=1)


def channel_deviations(
    new_ratios: np.ndarray, old_ratios: np.ndarray, num_channels: int
) -> np.ndarray:
    """Per-node, per-channel estimate movement for multi-channel gossip.

    The ``(N, d)`` ratio matrix is channel-major — channel ``c`` owns
    columns ``[c * d/V, (c+1) * d/V)`` — so the eq.-7 sum restricted to
    one channel is a reshape-and-reduce.

    Returns
    -------
    numpy.ndarray
        ``(N, V)`` absolute movement summed within each channel.
    """
    new_ratios = np.asarray(new_ratios)
    old_ratios = np.asarray(old_ratios)
    if new_ratios.ndim != 2:
        raise ValueError(f"expected (N, d) ratios, got shape {new_ratios.shape}")
    n, d = new_ratios.shape
    if num_channels < 1 or d % num_channels:
        raise ValueError(
            f"num_channels ({num_channels}) must divide the component count ({d})"
        )
    return (
        np.abs(new_ratios - old_ratios)
        .reshape(n, num_channels, d // num_channels)
        .sum(axis=2)
    )
