"""Network conditions: link models — loss, latency, regions, partitions.

The paper models the network as perfect pipes and churn as a Bernoulli
per-push loss (Section 5.3, Figure 4). Real overlays run over WAN links
with heterogeneous latency, lossy last miles, regional clustering and
occasional partitions that heal. This module is the single home for all
of that *network realism*, factored out of the engines:

- :class:`PacketLossModel` — the paper's mass-conserving per-push loss;
- :class:`LatencySpec` — a seeded one-dimensional delay distribution
  (constant / uniform / exponential / lognormal);
- :class:`LinkModel` — the protocol every network condition implements.
  It has two faces: :meth:`LinkModel.uniform_loss_probability` lets the
  *synchronous* engines keep their vectorised loss path (byte-identical
  to the historical ``loss_probability`` knob), and
  :meth:`LinkModel.bind` produces a per-run :class:`BoundLink` whose
  :meth:`BoundLink.transfer` the *event-driven* engine consults per
  push (drop? how much delay?);
- :class:`InstantLink` — the compatibility shim: zero latency,
  optional uniform loss. ``InstantLink(0.0)`` is provably a no-op (it
  consumes no randomness), so the refactored async engine is
  byte-identical to the pre-refactor one under it;
- :class:`HomogeneousLink` — one loss probability, one latency
  distribution and one optional bandwidth cap for every edge;
- :class:`RegionalLinkModel` — region/cluster assignment with intra- vs
  inter-region loss and latency, an optional flaky region, optional
  inter-region bandwidth caps, and scheduled
  :class:`PartitionWindow`\\ s that drop cross-group traffic until they
  heal;
- :class:`EpochPartition` — the epoch-indexed partition schedule the
  dynamic runtime (:mod:`repro.runtime.dynamics`) replays through
  :class:`repro.network.mutable.MutableOverlay`.

Determinism contract
--------------------
A link model instance is pure configuration; all randomness enters at
:meth:`LinkModel.bind` through an explicit generator. The backend layer
derives that generator *statelessly* from the run's seed via the same
``LOSS_STREAM_KEY`` child used for the classic loss stream, so link
randomness never perturbs an engine's target-selection stream — a
lossless zero-latency run draws the exact byte sequence of a run with
no link model at all. Per transfer, the bound link draws the loss
Bernoulli first and samples latency only for delivered pushes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_probability

__all__ = [
    "PacketLossModel",
    "no_loss",
    "LatencySpec",
    "INSTANT",
    "BoundLink",
    "LinkModel",
    "InstantLink",
    "HomogeneousLink",
    "PartitionWindow",
    "RegionalLinkModel",
    "EpochPartition",
    "block_regions",
]


class PacketLossModel:
    """Bernoulli per-push loss with mass-conserving self-redirect.

    P2P overlays run above TCP, so in the paper's model a push is only
    lost when the receiving peer has *left* the network (churn). The
    sender then gets no acknowledgement and — to keep the gossip mass
    conserved — pushes the pair to itself instead (Section 5.3,
    Figure 4).

    Parameters
    ----------
    loss_probability:
        Probability that any single push is lost (its receiver has
        churned away). ``0.0`` disables the model.
    rng:
        Seed / generator for the loss draws.

    Examples
    --------
    >>> model = PacketLossModel(1.0, rng=0)  # every push lost
    >>> senders = np.array([0, 1, 2])
    >>> targets = np.array([1, 2, 0])
    >>> model.apply(senders, targets).tolist()  # all redirected to self
    [0, 1, 2]
    """

    __slots__ = ("_loss_probability", "_rng", "_lost_count", "_delivered_count")

    def __init__(self, loss_probability: float, *, rng: RngLike = None):
        check_probability(loss_probability, "loss_probability")
        self._loss_probability = float(loss_probability)
        self._rng = as_generator(rng)
        self._lost_count = 0
        self._delivered_count = 0

    @property
    def loss_probability(self) -> float:
        """Configured per-push loss probability."""
        return self._loss_probability

    @property
    def lost_count(self) -> int:
        """Total pushes redirected to self so far."""
        return self._lost_count

    @property
    def delivered_count(self) -> int:
        """Total pushes delivered to their intended target so far."""
        return self._delivered_count

    def apply(self, senders: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Rewrite lost pushes to their senders.

        Parameters
        ----------
        senders:
            Node id of the sender of each push.
        targets:
            Intended receiver of each push; same shape as ``senders``.

        Returns
        -------
        numpy.ndarray
            Effective receivers: ``targets`` where delivered, ``senders``
            where lost. The input arrays are not modified.
        """
        senders = np.asarray(senders)
        targets = np.asarray(targets)
        if senders.shape != targets.shape:
            raise ValueError(
                f"senders shape {senders.shape} != targets shape {targets.shape}"
            )
        if self._loss_probability == 0.0 or targets.size == 0:
            self._delivered_count += int(targets.size)
            return targets.copy()
        lost = self._rng.random(targets.shape) < self._loss_probability
        self._lost_count += int(lost.sum())
        self._delivered_count += int(targets.size - lost.sum())
        return np.where(lost, senders, targets)

    def reset_counters(self) -> None:
        """Zero the delivered/lost counters (configuration is kept)."""
        self._lost_count = 0
        self._delivered_count = 0


def no_loss() -> PacketLossModel:
    """A :class:`PacketLossModel` that never loses a push."""
    return PacketLossModel(0.0, rng=0)


#: LatencySpec sampling families.
LATENCY_KINDS = ("constant", "uniform", "exponential", "lognormal")


@dataclass(frozen=True)
class LatencySpec:
    """A seeded one-way delay distribution, in simulated-time units.

    One simulated-time unit is the mean tick interval of a rate-1 node
    in the async engine, so ``mean=1.0`` means "a push is in flight for
    about as long as a node waits between pushes".

    Parameters
    ----------
    kind:
        ``"constant"`` (exactly ``mean``, draws no randomness),
        ``"uniform"`` (``U(mean - spread, mean + spread)``),
        ``"exponential"`` (mean ``mean``; ``spread`` ignored), or
        ``"lognormal"`` (mean ``mean``, log-space sigma ``spread``).
    mean:
        Mean delay; ``0.0`` with kind ``"constant"`` is the instant
        link.
    spread:
        Half-width (uniform) or log-sigma (lognormal); must keep
        uniform delays non-negative (``spread <= mean``).

    Examples
    --------
    >>> spec = LatencySpec("uniform", mean=2.0, spread=1.0)
    >>> rng = np.random.default_rng(0)
    >>> 1.0 <= spec.sample(rng) <= 3.0
    True
    >>> LatencySpec().is_instant
    True
    """

    kind: str = "constant"
    mean: float = 0.0
    spread: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ValueError(f"latency kind must be one of {LATENCY_KINDS}, got {self.kind!r}")
        if self.mean < 0:
            raise ValueError(f"latency mean must be >= 0, got {self.mean}")
        if self.spread < 0:
            raise ValueError(f"latency spread must be >= 0, got {self.spread}")
        if self.kind == "uniform" and self.spread > self.mean:
            raise ValueError(
                f"uniform latency needs spread <= mean to stay non-negative, "
                f"got spread={self.spread} > mean={self.mean}"
            )

    @property
    def is_instant(self) -> bool:
        """True when every sample is exactly zero."""
        if self.kind in ("constant", "exponential"):
            return self.mean == 0.0
        if self.kind == "uniform":
            return self.mean == 0.0 and self.spread == 0.0
        return self.mean == 0.0  # lognormal: mean 0 scales every sample to 0

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delay. ``"constant"`` consumes no randomness."""
        if self.kind == "constant":
            return self.mean
        if self.kind == "uniform":
            return float(rng.uniform(self.mean - self.spread, self.mean + self.spread))
        if self.kind == "exponential":
            return float(rng.exponential(self.mean)) if self.mean > 0 else 0.0
        # lognormal with exact mean: E[exp(N(mu, s))] = exp(mu + s^2/2).
        if self.mean == 0.0:
            return 0.0
        mu = float(np.log(self.mean)) - 0.5 * self.spread * self.spread
        return float(rng.lognormal(mu, self.spread))


#: The zero-delay latency spec (constant 0 — draws no randomness).
INSTANT = LatencySpec()


def block_regions(num_nodes: int, num_regions: int) -> np.ndarray:
    """Contiguous-block region assignment: node ``i`` belongs to region
    ``i * k // n``.

    Shared by :func:`repro.network.random_graphs.regional_graph` and
    :class:`RegionalLinkModel`, so a regional topology and a regional
    link model with the same ``num_regions`` always agree on who lives
    where.

    Examples
    --------
    >>> block_regions(6, 2).tolist()
    [0, 0, 0, 1, 1, 1]
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 1 <= num_regions <= num_nodes:
        raise ValueError(
            f"num_regions must be in 1..num_nodes ({num_nodes}), got {num_regions}"
        )
    return (np.arange(num_nodes, dtype=np.int64) * num_regions) // num_nodes


class BoundLink(abc.ABC):
    """A link model bound to one graph and one generator for one run.

    The event-driven engine consults :meth:`transfer` once per push; the
    bound link owns the link randomness (never the engine's
    target-selection stream) and keeps delivery statistics.
    """

    __slots__ = ("_rng", "dropped_count", "delivered_count", "partition_dropped_count")

    def __init__(self, rng: RngLike):
        self._rng = as_generator(rng)
        #: Pushes dropped (self-redirected) by loss or flakiness.
        self.dropped_count = 0
        #: Pushes handed to the network for delivery.
        self.delivered_count = 0
        #: Dropped pushes attributable to an active partition window.
        self.partition_dropped_count = 0

    @property
    def is_trivial(self) -> bool:
        """True when every transfer is instant and lossless (the bound
        link then consumes no randomness at all)."""
        return False

    @property
    def quiet_horizon(self) -> float:
        """Earliest simulated time at which link behaviour is time-invariant.

        While a partition window is active the network can be xi-quiet —
        islands converge internally, cross-region pushes are dropped
        without moving any estimate — even though islands disagree. The
        engine therefore refuses to declare convergence before this
        horizon (the end of the last scheduled partition window; ``0.0``
        for time-invariant models)."""
        return 0.0

    @abc.abstractmethod
    def transfer(self, now: float, sender: int, target: int) -> Tuple[bool, float]:
        """Fate of one push at simulated time ``now``.

        Returns ``(dropped, delay)``: ``dropped`` means the push never
        leaves the sender (mass-conserving self-redirect), otherwise it
        arrives at ``target`` after ``delay`` simulated-time units
        (``0.0`` = instant, delivered inline).
        """


class LinkModel(abc.ABC):
    """Protocol for network conditions, with a sync face and an async face.

    Synchronous engines have no time axis, so they can only express
    *uniform, instant* loss: when :attr:`has_latency` is False and
    :attr:`uniform_loss_probability` is not None, the backend layer
    materialises the model as the classic :class:`PacketLossModel`
    (byte-identical to the historical ``loss_probability`` path).
    Everything else — latency, bandwidth, per-region loss, partitions —
    requires the event-driven engine, which calls :meth:`bind` and
    consults the returned :class:`BoundLink` per push.
    """

    @property
    @abc.abstractmethod
    def has_latency(self) -> bool:
        """True when the model needs the event-driven engine: non-zero
        delays, bandwidth queueing, or time-dependent behaviour
        (partition windows). Synchronous backends raise
        ``BackendCapabilityError`` for such models."""

    @property
    def uniform_loss_probability(self) -> Optional[float]:
        """The single edge-independent loss probability, or ``None`` when
        loss depends on the edge (regional / flaky models)."""
        return None

    @abc.abstractmethod
    def bind(self, graph, rng: RngLike) -> BoundLink:
        """Bind to ``graph`` for one run, drawing link randomness from
        ``rng`` (a dedicated stream — never the engine's)."""


class _InstantBound(BoundLink):
    """Zero-latency bound link with optional uniform loss."""

    __slots__ = ("_loss_probability",)

    def __init__(self, loss_probability: float, rng: RngLike):
        super().__init__(rng)
        self._loss_probability = float(loss_probability)

    @property
    def is_trivial(self) -> bool:
        return self._loss_probability == 0.0

    def transfer(self, now: float, sender: int, target: int) -> Tuple[bool, float]:
        if self._loss_probability > 0.0 and self._rng.random() < self._loss_probability:
            self.dropped_count += 1
            return True, 0.0
        self.delivered_count += 1
        return False, 0.0


class InstantLink(LinkModel):
    """The compatibility shim: zero latency, optional uniform loss.

    ``InstantLink(0.0)`` consumes no randomness and delivers everything
    inline — the refactored async engine under it is byte-identical to
    the pre-refactor engine, and the sync backends under
    ``InstantLink(p)`` are byte-identical to ``loss_probability=p``
    (both contracts are pinned by tests).

    Examples
    --------
    >>> link = InstantLink(0.25)
    >>> link.has_latency, link.uniform_loss_probability
    (False, 0.25)
    >>> bound = InstantLink(0.0).bind(None, 0)
    >>> bound.transfer(0.0, 1, 2)  # lossless + instant: deliver inline
    (False, 0.0)
    """

    def __init__(self, loss_probability: float = 0.0):
        check_probability(loss_probability, "loss_probability")
        self._loss_probability = float(loss_probability)

    @property
    def has_latency(self) -> bool:
        return False

    @property
    def uniform_loss_probability(self) -> Optional[float]:
        return self._loss_probability

    def bind(self, graph, rng: RngLike) -> BoundLink:
        return _InstantBound(self._loss_probability, rng)

    def __repr__(self) -> str:
        return f"InstantLink(loss_probability={self._loss_probability})"


class _Bandwidth:
    """Per-directed-edge FIFO queueing under a messages-per-time cap.

    A link transmits one push per ``1 / bandwidth`` time units; a push
    arriving while the link is busy waits for the queue to drain. The
    next-free times are per ``(sender, target)`` pair, so reverse
    traffic does not contend (full-duplex links).
    """

    __slots__ = ("_service_time", "_next_free")

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._service_time = 1.0 / float(bandwidth)
        self._next_free: Dict[Tuple[int, int], float] = {}

    def queueing_delay(self, now: float, sender: int, target: int) -> float:
        """Wait-plus-transmit time for one push entering the link now."""
        key = (sender, target)
        start = max(now, self._next_free.get(key, 0.0))
        depart = start + self._service_time
        self._next_free[key] = depart
        return depart - now


class _HomogeneousBound(BoundLink):
    """Every edge shares one loss probability / latency / bandwidth."""

    __slots__ = ("_loss_probability", "_latency", "_bandwidth")

    def __init__(
        self,
        loss_probability: float,
        latency: LatencySpec,
        bandwidth: Optional[float],
        rng: RngLike,
    ):
        super().__init__(rng)
        self._loss_probability = float(loss_probability)
        self._latency = latency
        self._bandwidth = _Bandwidth(bandwidth) if bandwidth is not None else None

    def transfer(self, now: float, sender: int, target: int) -> Tuple[bool, float]:
        if self._loss_probability > 0.0 and self._rng.random() < self._loss_probability:
            self.dropped_count += 1
            return True, 0.0
        delay = self._latency.sample(self._rng)
        if self._bandwidth is not None:
            delay += self._bandwidth.queueing_delay(now, sender, target)
        self.delivered_count += 1
        return False, delay


class HomogeneousLink(LinkModel):
    """One loss probability, latency distribution and optional bandwidth
    cap shared by every edge.

    Examples
    --------
    >>> link = HomogeneousLink(latency=LatencySpec("exponential", mean=1.0))
    >>> link.has_latency
    True
    >>> bound = link.bind(None, 7)
    >>> dropped, delay = bound.transfer(0.0, 0, 1)
    >>> dropped, delay > 0.0
    (False, True)
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        *,
        latency: LatencySpec = INSTANT,
        bandwidth: Optional[float] = None,
    ):
        check_probability(loss_probability, "loss_probability")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._loss_probability = float(loss_probability)
        self._latency = latency
        self._bandwidth = bandwidth

    @property
    def has_latency(self) -> bool:
        return not self._latency.is_instant or self._bandwidth is not None

    @property
    def uniform_loss_probability(self) -> Optional[float]:
        return self._loss_probability

    @property
    def latency(self) -> LatencySpec:
        """The shared delay distribution."""
        return self._latency

    def bind(self, graph, rng: RngLike) -> BoundLink:
        return _HomogeneousBound(self._loss_probability, self._latency, self._bandwidth, rng)

    def __repr__(self) -> str:
        return (
            f"HomogeneousLink(loss_probability={self._loss_probability}, "
            f"latency={self._latency!r}, bandwidth={self._bandwidth})"
        )


@dataclass(frozen=True)
class PartitionWindow:
    """A scheduled partition in simulated time: from ``start`` until
    ``start + duration``, pushes crossing region groups are dropped
    (with the usual mass-conserving self-redirect); afterwards the
    network heals and cross-region traffic flows again.

    Examples
    --------
    >>> window = PartitionWindow(start=5.0, duration=10.0)
    >>> window.active(4.9), window.active(5.0), window.active(15.0)
    (False, True, False)
    """

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"partition start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"partition duration must be positive, got {self.duration}")

    @property
    def end(self) -> float:
        """First instant after the heal."""
        return self.start + self.duration

    def active(self, now: float) -> bool:
        """Whether the partition is in force at ``now``."""
        return self.start <= now < self.end


class _RegionalBound(BoundLink):
    """Per-edge conditions derived from a region assignment."""

    __slots__ = ("_model", "_regions", "_bandwidth")

    def __init__(self, model: "RegionalLinkModel", regions: np.ndarray, rng: RngLike):
        super().__init__(rng)
        self._model = model
        self._regions = regions
        self._bandwidth = (
            _Bandwidth(model.inter_bandwidth) if model.inter_bandwidth is not None else None
        )

    @property
    def quiet_horizon(self) -> float:
        if not self._model.partitions:
            return 0.0
        return max(window.end for window in self._model.partitions)

    def transfer(self, now: float, sender: int, target: int) -> Tuple[bool, float]:
        model = self._model
        ru = int(self._regions[sender])
        rv = int(self._regions[target])
        cross = ru != rv
        if cross:
            for window in model.partitions:
                if window.active(now):
                    # Partitioned: the push never crosses; no randomness
                    # is consumed (deterministic cut, deterministic heal).
                    self.dropped_count += 1
                    self.partition_dropped_count += 1
                    return True, 0.0
        loss = model.inter_loss if cross else model.intra_loss
        if model.flaky_region is not None and model.flaky_region in (ru, rv):
            loss = max(loss, model.flaky_loss)
        if loss > 0.0 and self._rng.random() < loss:
            self.dropped_count += 1
            return True, 0.0
        latency = model.inter_latency if cross else model.intra_latency
        delay = latency.sample(self._rng)
        if cross and self._bandwidth is not None:
            delay += self._bandwidth.queueing_delay(now, sender, target)
        self.delivered_count += 1
        return False, delay


class RegionalLinkModel(LinkModel):
    """Region/cluster link conditions: LAN inside a region, WAN across.

    Parameters
    ----------
    regions:
        Either the number of regions (nodes are then assigned by
        :func:`block_regions`, matching
        :func:`repro.network.random_graphs.regional_graph`) or an
        explicit per-node region array.
    intra_loss, inter_loss:
        Per-push loss probability within / across regions.
    intra_latency, inter_latency:
        Delay distributions within / across regions.
    inter_bandwidth:
        Optional messages-per-time cap on each directed cross-region
        link (FIFO queueing; intra-region links are uncapped).
    flaky_region:
        Optional region index whose links (either endpoint) lose pushes
        with at least ``flaky_loss`` probability.
    flaky_loss:
        Loss floor applied to the flaky region's links.
    partitions:
        :class:`PartitionWindow` schedule; while a window is active,
        cross-region pushes are dropped deterministically.

    Examples
    --------
    >>> model = RegionalLinkModel(
    ...     2,
    ...     inter_latency=LatencySpec("constant", mean=1.0),
    ... )
    >>> model.has_latency
    True
    >>> bound = model.bind(4, rng=0)  # 4 nodes -> regions [0, 0, 1, 1]
    >>> bound.transfer(0.0, 0, 1)    # intra-region: instant
    (False, 0.0)
    >>> bound.transfer(0.0, 1, 2)    # cross-region: one time unit
    (False, 1.0)
    """

    def __init__(
        self,
        regions: "int | np.ndarray",
        *,
        intra_loss: float = 0.0,
        inter_loss: float = 0.0,
        intra_latency: LatencySpec = INSTANT,
        inter_latency: LatencySpec = INSTANT,
        inter_bandwidth: Optional[float] = None,
        flaky_region: Optional[int] = None,
        flaky_loss: float = 0.0,
        partitions: Tuple[PartitionWindow, ...] = (),
    ):
        check_probability(intra_loss, "intra_loss")
        check_probability(inter_loss, "inter_loss")
        check_probability(flaky_loss, "flaky_loss")
        if inter_bandwidth is not None and inter_bandwidth <= 0:
            raise ValueError(f"inter_bandwidth must be positive, got {inter_bandwidth}")
        if isinstance(regions, (int, np.integer)):
            if regions < 1:
                raise ValueError(f"regions count must be >= 1, got {regions}")
            self._num_regions: Optional[int] = int(regions)
            self._explicit_regions: Optional[np.ndarray] = None
        else:
            assignment = np.asarray(regions, dtype=np.int64)
            if assignment.ndim != 1 or assignment.size == 0:
                raise ValueError("explicit regions must be a non-empty 1-D array")
            if assignment.min() < 0:
                raise ValueError("region indices must be >= 0")
            self._num_regions = None
            self._explicit_regions = assignment
        num_regions = (
            self._num_regions
            if self._num_regions is not None
            else int(self._explicit_regions.max()) + 1
        )
        if flaky_region is not None and not 0 <= flaky_region < num_regions:
            raise ValueError(
                f"flaky_region must be in 0..{num_regions - 1}, got {flaky_region}"
            )
        if flaky_region is not None and flaky_loss == 0.0:
            raise ValueError("flaky_region set but flaky_loss is 0 (a no-op flake)")
        self.intra_loss = float(intra_loss)
        self.inter_loss = float(inter_loss)
        self.intra_latency = intra_latency
        self.inter_latency = inter_latency
        self.inter_bandwidth = inter_bandwidth
        self.flaky_region = flaky_region
        self.flaky_loss = float(flaky_loss)
        self.partitions = tuple(partitions)

    @property
    def has_latency(self) -> bool:
        # Partition windows are time-dependent behaviour a synchronous
        # round schedule cannot express, so they force the event-driven
        # engine even when every latency is zero.
        return (
            not self.intra_latency.is_instant
            or not self.inter_latency.is_instant
            or self.inter_bandwidth is not None
            or bool(self.partitions)
        )

    @property
    def uniform_loss_probability(self) -> Optional[float]:
        if (
            self.intra_loss == self.inter_loss
            and self.flaky_region is None
            and not self.partitions
        ):
            return self.intra_loss
        return None

    def resolve_regions(self, graph_or_n) -> np.ndarray:
        """Per-node region assignment for a graph (or node count)."""
        if self._explicit_regions is not None:
            return self._explicit_regions
        n = graph_or_n if isinstance(graph_or_n, (int, np.integer)) else graph_or_n.num_nodes
        return block_regions(int(n), self._num_regions)

    def bind(self, graph, rng: RngLike) -> BoundLink:
        regions = self.resolve_regions(graph)
        return _RegionalBound(self, regions, rng)

    def __repr__(self) -> str:
        regions = (
            self._num_regions
            if self._num_regions is not None
            else f"explicit[{self._explicit_regions.size}]"
        )
        parts = [f"RegionalLinkModel({regions}"]
        if self.intra_loss or self.inter_loss:
            parts.append(f"loss={self.intra_loss:g}/{self.inter_loss:g}")
        if not self.intra_latency.is_instant or not self.inter_latency.is_instant:
            parts.append(f"latency={self.intra_latency.mean:g}/{self.inter_latency.mean:g}")
        if self.inter_bandwidth is not None:
            parts.append(f"inter_bandwidth={self.inter_bandwidth:g}")
        if self.flaky_region is not None:
            parts.append(f"flaky_region={self.flaky_region} (loss={self.flaky_loss:g})")
        if self.partitions:
            parts.append(f"partitions={list(self.partitions)}")
        return ", ".join(parts) + ")"


@dataclass(frozen=True)
class EpochPartition:
    """An epoch-indexed partition schedule for the dynamic runtime.

    The static async engine partitions in *simulated time* via
    :class:`PartitionWindow`; a dynamic run partitions in *epochs*: at
    ``start_epoch`` the runtime cuts every overlay edge crossing peer-id
    groups (re-cutting each active epoch, since joins may re-wire
    across), and at ``heal_epoch`` it re-adds the surviving cut edges.
    Groups are ``peer_id % num_groups`` — peer ids are unbounded under
    churn, so a modulo assignment (unlike contiguous blocks) stays
    meaningful as identities come and go.

    Examples
    --------
    >>> schedule = EpochPartition(start_epoch=2, heal_epoch=4)
    >>> [schedule.active(e) for e in range(5)]
    [False, False, True, True, False]
    >>> schedule.group(7)
    1
    """

    start_epoch: int
    heal_epoch: int
    num_groups: int = 2

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {self.start_epoch}")
        if self.heal_epoch <= self.start_epoch:
            raise ValueError(
                f"heal_epoch ({self.heal_epoch}) must be > start_epoch ({self.start_epoch})"
            )
        if self.num_groups < 2:
            raise ValueError(f"num_groups must be >= 2, got {self.num_groups}")

    def active(self, epoch: int) -> bool:
        """Whether the partition is in force during ``epoch``."""
        return self.start_epoch <= epoch < self.heal_epoch

    def group(self, peer_id: int) -> int:
        """Partition group of ``peer_id`` (``peer_id % num_groups``)."""
        return int(peer_id) % self.num_groups
