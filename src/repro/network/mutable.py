"""Mutable peer overlay with stable ids and incremental CSR snapshots.

:class:`repro.network.graph.Graph` is deliberately immutable — the
gossip engines read its CSR arrays on the hot path and must never see a
topology change mid-round. A *dynamic* network (peers joining via
preferential attachment, peers leaving, edges being rewired) therefore
needs a second structure: :class:`MutableOverlay` holds the live
adjacency, applies mutations, and materialises an immutable
:class:`Graph` per epoch via :meth:`MutableOverlay.snapshot`.

Three design points matter for the dynamic runtime built on top
(:mod:`repro.runtime`):

- **Stable peer ids.** Graph nodes are compact indices ``0..n-1`` and
  get renumbered when peers leave; overlay peers carry monotonically
  increasing *peer ids* that never change. ``snapshot()`` returns the
  graph together with the ``index -> peer id`` map, so per-peer state
  (reputations, gossip pairs) survives arbitrary churn.
- **Joins in O(m · log N).** A Fenwick tree holds exact
  integer prefix sums of the degree array, so a degree-proportional
  attachment target is one O(log N) descent instead of an O(N) pass.
  The descent reproduces ``Generator.choice(..., replace=False, p=...)``
  draw for draw (see :meth:`MutableOverlay._sample_targets`), so seeded
  runs keep their exact RNG streams and topologies. A departure costs
  O(degree · log N) plus one O(N) memmove of the live-id array.
- **Sort-free CSR patching.** The previous snapshot's directed edges
  are kept sorted by ``(row peer id, col peer id)``; a snapshot deletes
  the pending removals and inserts the pending additions at their
  ``searchsorted`` positions, relabels peer ids to compact indices
  through one lookup table, and hands the result to
  :meth:`Graph.from_csr` with validation off. That is a handful of O(E)
  numpy passes — about 15 ms for ~300k directed edges at 50 000 peers
  on a 2-CPU host — and no per-edge Python loop.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator

Edge = Tuple[int, int]

#: Guard band of the exact join sampler, in units of ``2**-53`` per
#: ``capacity + 2`` summed terms (see :meth:`MutableOverlay._sample_targets`).
_GUARD_ULPS = 64


def _fenwick(weights: np.ndarray) -> array:
    """Fenwick tree (1-based, int64) over ``weights``, built vectorised."""
    n = weights.shape[0]
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(weights, out=prefix[1:])
    index = np.arange(n + 1, dtype=np.int64)
    tree = prefix - prefix[index - (index & -index)]
    return array("q", tree.tobytes())


def _undirected(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge key."""
    return (u, v) if u < v else (v, u)


class MutableOverlay:
    """Evolving P2P overlay: join / leave / rewire with graph snapshots.

    Construct via :meth:`from_graph` (wrap an existing topology) or
    :meth:`grow_preferential` (grow a fresh PA overlay). Peer ids start
    at ``0..n-1`` for the initial peers and increase monotonically for
    every subsequent :meth:`add_peer`; ids of departed peers are never
    reused.

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> overlay = MutableOverlay.from_graph(preferential_attachment_graph(20, m=2, rng=0))
    >>> newcomer = overlay.add_peer(m=2, rng=1)
    >>> former_neighbors = overlay.remove_peer(0, rng=1)
    >>> graph, peer_ids = overlay.snapshot()
    >>> graph.num_nodes == overlay.num_peers == 20
    True
    >>> int(peer_ids[-1]) == newcomer
    True
    """

    def __init__(self) -> None:
        self._adj: Dict[int, Set[int]] = {}
        self._next_pid = 0
        # Degrees / liveness indexed directly by peer id (grown on demand);
        # the join sampler's float fallback reads them as one array.
        self._deg = np.zeros(0, dtype=np.int64)
        self._alive = np.zeros(0, dtype=bool)
        self._num_edges = 0
        # Exact prefix sums of _deg (a Fenwick tree over the same
        # capacity) and the number of peers with nonzero degree: the
        # join sampler's O(log N) view of the attachment weights.
        self._fen = _fenwick(self._deg)
        self._nonzero = 0
        # Live peer ids, ascending, in the first num_peers slots (a new
        # id is always the largest, so joins append).
        self._live = np.zeros(0, dtype=np.int64)
        # Snapshot cache + pending deltas for incremental CSR patching.
        # Directed, peer-id based, sorted by (row, col).
        self._snap_rows = np.zeros(0, dtype=np.int64)
        self._snap_cols = np.zeros(0, dtype=np.int64)
        self._pending_add: Set[Edge] = set()
        self._pending_remove: Set[Edge] = set()
        self._cached_graph: Optional[Graph] = None
        self._cached_pids: Optional[np.ndarray] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "MutableOverlay":
        """Wrap an existing :class:`Graph`; node ``i`` becomes peer id ``i``."""
        overlay = cls()
        n = graph.num_nodes
        overlay._next_pid = n
        overlay._deg = np.array(graph.degrees, dtype=np.int64)
        overlay._alive = np.ones(n, dtype=bool)
        overlay._fen = _fenwick(overlay._deg)
        overlay._nonzero = int(np.count_nonzero(overlay._deg))
        overlay._live = np.arange(n, dtype=np.int64)
        overlay._adj = {u: set(int(v) for v in graph.neighbors(u)) for u in range(n)}
        overlay._num_edges = graph.num_edges
        # Graph rows are strictly increasing, so the baseline is sorted.
        overlay._snap_rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(graph.indptr)
        )
        overlay._snap_cols = np.array(graph.indices, dtype=np.int64)
        overlay._cached_graph = graph
        overlay._cached_pids = overlay.peer_ids()
        overlay._cached_pids.flags.writeable = False
        return overlay

    @classmethod
    def grow_preferential(cls, num_nodes: int, m: int = 2, *, rng: RngLike = None) -> "MutableOverlay":
        """Grow a fresh preferential-attachment overlay of ``num_nodes`` peers."""
        from repro.network.preferential_attachment import preferential_attachment_graph

        return cls.from_graph(preferential_attachment_graph(num_nodes, m=m, rng=rng))

    # -- accessors -----------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of live peers."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of live undirected edges."""
        return self._num_edges

    @property
    def max_peer_id(self) -> int:
        """Largest peer id ever assigned (``-1`` before any peer exists)."""
        return self._next_pid - 1

    def has_peer(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the overlay."""
        return peer_id in self._adj

    def degree_of(self, peer_id: int) -> int:
        """Current degree of a live peer."""
        return len(self._adj[peer_id])

    def neighbors_of(self, peer_id: int) -> Tuple[int, ...]:
        """Sorted neighbour peer ids of a live peer."""
        return tuple(sorted(self._adj[peer_id]))

    def peer_ids(self) -> np.ndarray:
        """Live peer ids, ascending (the ``snapshot()`` index order).

        A fresh array the caller owns.
        """
        return self._live[: len(self._adj)].copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge between peers ``u`` and ``v`` exists."""
        return u in self._adj and v in self._adj[u]

    def edges(self) -> List[Edge]:
        """Live undirected edges as canonical ``(min, max)`` pairs, sorted.

        A materialised list (not a generator), so callers may mutate the
        overlay while iterating — partition cuts remove edges mid-walk.
        """
        return sorted(
            (u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v
        )

    def check_invariants(self) -> None:
        """Assert the overlay's internal counts describe one edge set.

        Verifies, in O(N + E):

        - the adjacency sets are symmetric and self-loop free;
        - ``num_edges`` equals the size of the undirected edge set;
        - the degree array matches each live peer's adjacency size and
          is zero for departed peers;
        - the Fenwick tree encodes the prefix sums of the degree array,
          and the nonzero-degree count is right;
        - the live-id array lists the live peers in ascending order;
        - the snapshot baseline is sorted by ``(row, col)`` peer id.

        Raises ``AssertionError`` on the first violation. Used by the
        hypothesis stateful suite after every mutation; cheap enough to
        call from application code when debugging overlay churn.
        """
        edge_set = set()
        for u, nbrs in self._adj.items():
            assert u not in nbrs, f"self-loop on peer {u}"
            assert self._alive[u], f"dead peer {u} still has an adjacency entry"
            assert self._deg[u] == len(nbrs), (
                f"degree array says {self._deg[u]} for peer {u}, adjacency has {len(nbrs)}"
            )
            for v in nbrs:
                assert v in self._adj and u in self._adj[v], f"asymmetric edge ({u}, {v})"
                edge_set.add(_undirected(u, v))
        assert self._num_edges == len(edge_set), (
            f"num_edges={self._num_edges} but the edge set has {len(edge_set)} edges"
        )
        dead = np.flatnonzero(~self._alive[: self._next_pid])
        assert not np.any(self._deg[dead]), "departed peers must have degree 0"
        # A Fenwick tree is a bijective encoding of its prefix sums.
        assert self._fen == _fenwick(self._deg), (
            "Fenwick tree disagrees with the degree array's prefix sums"
        )
        assert self._nonzero == np.count_nonzero(self._deg), (
            f"nonzero-degree count {self._nonzero}, degree array has "
            f"{np.count_nonzero(self._deg)}"
        )
        assert np.array_equal(
            self._live[: len(self._adj)], np.flatnonzero(self._alive)
        ), "live-id array disagrees with the liveness mask"
        keys = self._snap_rows * self._next_pid + self._snap_cols
        assert np.all(keys[1:] > keys[:-1]), "snapshot baseline is not sorted"

    def copy(self) -> "MutableOverlay":
        """Independent deep copy (peer ids, adjacency, pending deltas).

        Attack models poison *copies* of the world — a sybil flood joins
        its swarm to a copied overlay so the honest topology stays the
        clean-run baseline. The cached immutable snapshot (if any) is
        shared: :class:`Graph` is read-only and either copy invalidates
        its own cache on the next mutation.
        """
        clone = MutableOverlay()
        clone._adj = {peer: set(nbrs) for peer, nbrs in self._adj.items()}
        clone._next_pid = self._next_pid
        clone._deg = self._deg.copy()
        clone._alive = self._alive.copy()
        clone._fen = array("q", self._fen)
        clone._nonzero = self._nonzero
        clone._live = self._live.copy()
        clone._num_edges = self._num_edges
        clone._snap_rows = self._snap_rows.copy()
        clone._snap_cols = self._snap_cols.copy()
        clone._pending_add = set(self._pending_add)
        clone._pending_remove = set(self._pending_remove)
        # Both immutable (the peer-id map is read-only), so shareable.
        clone._cached_graph = self._cached_graph
        clone._cached_pids = self._cached_pids
        return clone

    # -- mutation ------------------------------------------------------------

    def _invalidate(self) -> None:
        self._cached_graph = None
        self._cached_pids = None

    def _require_peer(self, peer_id: int) -> None:
        if peer_id not in self._adj:
            raise KeyError(f"peer {peer_id} is not in the overlay")

    def _fen_add(self, pid: int, delta: int) -> None:
        tree = self._fen
        i = pid + 1
        size = len(tree)
        while i < size:
            tree[i] += delta
            i += i & -i

    def _record_edge(self, u: int, v: int) -> bool:
        """Install the undirected edge ``(u, v)``; return whether it was new.

        An already-present edge is skipped *explicitly* (nothing is
        recounted): the adjacency sets would absorb a duplicate
        silently, but the degree array, the edge count and the pending
        snapshot deltas would all double-count it, corrupting every
        later snapshot. Internal rewiring paths (orphan rewires,
        component bridging) check this return value instead of assuming
        their proposal is fresh.
        """
        if v in self._adj[u]:
            return False
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj[a]
            nbrs.add(b)
            if len(nbrs) == 1:
                self._nonzero += 1
            self._deg[a] += 1
            self._fen_add(a, 1)
        self._num_edges += 1
        key = _undirected(u, v)
        if key in self._pending_remove:
            self._pending_remove.discard(key)  # back to the snapshot's state
        else:
            self._pending_add.add(key)
        self._invalidate()
        return True

    def _erase_edge(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj[a]
            nbrs.discard(b)
            if not nbrs:
                self._nonzero -= 1
            self._deg[a] -= 1
            self._fen_add(a, -1)
        self._num_edges -= 1
        key = _undirected(u, v)
        if key in self._pending_add:
            self._pending_add.discard(key)  # the snapshot never saw it
        else:
            self._pending_remove.add(key)
        self._invalidate()

    def add_edge(self, u: int, v: int) -> None:
        """Connect two live peers (rejects self-loops and duplicates)."""
        self._require_peer(u)
        self._require_peer(v)
        if u == v:
            raise ValueError(f"self-loop on peer {u} is not allowed")
        if v in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) already exists")
        self._record_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Disconnect two live peers (the edge must exist)."""
        self._require_peer(u)
        self._require_peer(v)
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        self._erase_edge(u, v)

    def _sample_targets(
        self, count: int, rng: np.random.Generator, *, exclude: Iterable[int] = ()
    ) -> List[int]:
        """Draw ``count`` distinct live peers degree-proportionally.

        This is the preferential-attachment rule: an existing peer is
        chosen with probability proportional to its degree, so joins
        preserve the overlay's power-law shape. Falls back to uniform
        when the overlay has no edges yet.

        The draw equals ``rng.choice(capacity, size=count, replace=False,
        p=w / w.sum())`` over the degree array ``w`` (excluded peers
        zeroed), pick for pick and with the same RNG consumption, but
        costs O(count · log N) instead of O(N):

        - like ``choice``, each round draws ``rng.random(count - found)``
          uniforms, keeps the first occurrence of each pick, and zeroes
          the weights of peers already picked for the next round;
        - a uniform ``x`` is an exact multiple of ``2**-53``, so the
          peer it selects — the first ``j`` with ``S_{j+1} > x * T``
          over the integer prefix sums ``S`` of the ``T`` live weights —
          is found by an exact Fenwick-tree descent (see
          :meth:`_draw_exact`);
        - ``choice`` compares ``x`` against a float CDF whose entries are
          off from ``S_{j+1} / T`` by at most about ``2 * (capacity + 2)``
          units of ``2**-53``. Every exact pick must clear a guard band of
          ``_GUARD_ULPS * (capacity + 2)`` such units around both of its
          boundaries, which makes both comparisons agree; a round with a
          pick inside the band is recomputed by ``choice``'s own float
          arithmetic on the same uniforms (:meth:`_draw_float`).
        """
        excluded = tuple(exclude)
        # Excluded (and, round by round, picked) peers are zeroed by
        # lifting their degree out of the tree for the draw.
        lifted: Dict[int, int] = {}
        for pid in excluded:
            if self._adj.get(pid):
                lifted[pid] = len(self._adj[pid])
        total = 2 * self._num_edges - sum(lifted.values())
        if total <= 0:
            candidates = np.flatnonzero(self._alive)
            if excluded:
                candidates = candidates[~np.isin(candidates, np.array(excluded, dtype=np.int64))]
            if candidates.shape[0] < count:
                raise ValueError("not enough live peers to attach to")
            picks = as_generator(rng).choice(candidates, size=count, replace=False)
            return [int(p) for p in picks]
        available = self._nonzero - len(lifted)
        if available < count:
            raise ValueError(
                f"cannot pick {count} distinct attachment targets from {available} candidates"
            )
        picks: List[int] = []
        for pid, d in lifted.items():
            self._fen_add(pid, -d)
        try:
            while len(picks) < count:
                uniforms = rng.random(count - len(picks))
                drawn = self._draw_exact(uniforms, total)
                if drawn is None:
                    drawn = self._draw_float(uniforms, excluded, picks)
                for pid in dict.fromkeys(drawn):
                    d = len(self._adj[pid])
                    picks.append(pid)
                    lifted[pid] = d
                    self._fen_add(pid, -d)
                    total -= d
        finally:
            for pid, d in lifted.items():
                self._fen_add(pid, d)
        return picks

    def _draw_exact(self, uniforms: np.ndarray, total: int) -> Optional[List[int]]:
        """One round's picks by Fenwick descent, or ``None`` if any pick
        lies inside the guard band (the float CDF might disagree)."""
        tree = self._fen
        size = len(tree)
        top = (1 << (size - 1).bit_length()) >> 1  # largest power of 2 <= capacity
        band = _GUARD_ULPS * (size + 1) * total
        ceiling = total << 53
        picks = []
        for x in uniforms.tolist():
            # x = k / 2**53 exactly; scaled by 2**53 every comparison is
            # an integer one.
            scaled = int(x * 9007199254740992.0) * total
            target = scaled >> 53
            pos, rest, step = 0, target, top
            while step:
                nxt = pos + step
                if nxt < size and tree[nxt] <= rest:
                    pos = nxt
                    rest -= tree[nxt]
                step >>= 1
            # S_pos <= x * T < S_{pos+1}; both edges are scaled by 2**53.
            below = (target - rest) << 53
            above = below + (len(self._adj[pos]) << 53)
            if (below and scaled - below <= band) or (above < ceiling and above - scaled <= band):
                return None
            picks.append(pos)
        return picks

    def _draw_float(
        self, uniforms: np.ndarray, excluded: Tuple[int, ...], picked: List[int]
    ) -> List[int]:
        """One round's picks by ``Generator.choice``'s own float CDF."""
        weights = self._deg.astype(np.float64) * self._alive
        for pid in excluded:
            if 0 <= pid < weights.shape[0]:
                weights[pid] = 0.0
        p = weights / weights.sum()
        p[picked] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return cdf.searchsorted(uniforms, side="right").tolist()

    def _grow_pid_arrays(self) -> None:
        if self._next_pid >= self._deg.shape[0]:
            new_capacity = max(16, 2 * self._deg.shape[0], self._next_pid + 1)
            deg = np.zeros(new_capacity, dtype=np.int64)
            alive = np.zeros(new_capacity, dtype=bool)
            live = np.zeros(new_capacity, dtype=np.int64)
            deg[: self._deg.shape[0]] = self._deg
            alive[: self._alive.shape[0]] = self._alive
            live[: self._live.shape[0]] = self._live
            self._deg, self._alive, self._live = deg, alive, live
            self._fen = _fenwick(deg)

    def add_peer(
        self,
        *,
        m: int = 2,
        rng: RngLike = None,
        targets: Optional[Iterable[int]] = None,
    ) -> int:
        """Join a new peer and return its peer id.

        Parameters
        ----------
        m:
            Edges the joiner brings; wired to ``min(m, num_peers)``
            distinct existing peers chosen degree-proportionally (the
            preferential-attachment join of the paper's Section 2).
        rng:
            Seed / generator for target selection.
        targets:
            Explicit attachment targets (overrides the PA draw).
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        generator = as_generator(rng)
        if targets is not None:
            chosen = [int(t) for t in targets]
            for t in chosen:
                self._require_peer(t)
            if len(set(chosen)) != len(chosen):
                raise ValueError("attachment targets must be distinct")
        elif self.num_peers == 0:
            chosen = []
        else:
            chosen = self._sample_targets(min(m, self.num_peers), generator)
        pid = self._next_pid
        self._next_pid += 1
        self._grow_pid_arrays()
        self._adj[pid] = set()
        self._alive[pid] = True
        self._deg[pid] = 0
        self._live[len(self._adj) - 1] = pid
        for t in chosen:
            self._record_edge(pid, t)
        self._invalidate()
        return pid

    def remove_peer(
        self,
        peer_id: int,
        *,
        rewire_isolated: bool = True,
        rng: RngLike = None,
    ) -> Tuple[int, ...]:
        """Depart ``peer_id``, dropping all its edges.

        Parameters
        ----------
        peer_id:
            The leaving peer.
        rewire_isolated:
            When the departure strands a neighbour at degree 0, wire the
            orphan to a fresh degree-proportional target (a stranded
            peer would silently drop out of the gossip — engines exclude
            isolated nodes from convergence).
        rng:
            Seed / generator for the rewiring draws.

        Returns
        -------
        tuple
            The former neighbours of the departed peer (the candidates a
            caller may hand the peer's gossip mass to).
        """
        self._require_peer(peer_id)
        if self.num_peers <= 2:
            raise ValueError("refusing to shrink the overlay below 2 peers")
        former = tuple(sorted(self._adj[peer_id]))
        for nb in former:
            self._erase_edge(peer_id, nb)
        del self._adj[peer_id]
        self._alive[peer_id] = False
        live, n = self._live, len(self._adj)
        at = int(np.searchsorted(live[: n + 1], peer_id))
        live[at:n] = live[at + 1 : n + 1]
        if rewire_isolated:
            generator = as_generator(rng)
            for nb in former:
                if nb in self._adj and not self._adj[nb]:
                    # The orphan has degree 0, so any live target is a
                    # fresh edge; re-draw defensively if a proposal is
                    # somehow already present rather than miscounting.
                    for _ in range(8):
                        target = self._sample_targets(1, generator, exclude=(nb,))[0]
                        if self._record_edge(nb, target):
                            break
        self._invalidate()
        return former

    def bridge_components(
        self, *, rng: RngLike = None, groups: "Optional[Dict[int, int]]" = None
    ) -> int:
        """Overlay maintenance: reconnect components churn split off.

        Departures can partition the overlay, and a partitioned overlay
        cannot aggregate globally — each island converges to its own
        mean. Real P2P overlays re-bridge via bootstrap/maintenance
        traffic; this method does the same in one sweep: every
        non-giant component gets one edge from a random member to a
        random member of the giant component. Returns the number of
        bridge edges added (0 when already connected).

        When ``groups`` is given (a mapping from peer id to group
        label), bridging is restricted to *within each group*: every
        group's non-giant components connect to that group's own giant.
        A scheduled partition (see
        :class:`repro.network.conditions.EpochPartition`) deliberately
        holds groups apart, so churn repair during an active partition
        must not re-join them — each fragment lies entirely inside one
        group once the cross-group edges are cut, and its repairs stay
        there. Peers missing from the mapping form their own singleton
        groups and are left untouched.
        """
        import scipy.sparse.csgraph

        graph, pids = self.snapshot()
        num_components, labels = scipy.sparse.csgraph.connected_components(
            graph.to_scipy_csr(), directed=False
        )
        if num_components <= 1:
            return 0
        generator = as_generator(rng)
        sizes = np.bincount(labels, minlength=num_components)
        if groups is None:
            component_pool = {0: list(range(num_components))}
        else:
            # Assign each component the group of its lowest-id member
            # (fragments are group-pure while a partition is active, and
            # a mixed fragment is already a cross-group path no bridge
            # can worsen).
            component_pool = {}
            for label in range(num_components):
                members = np.flatnonzero(labels == label)
                group = groups.get(int(pids[members[0]]), -1 - label)
                component_pool.setdefault(group, []).append(label)
        bridges = 0
        for pool in component_pool.values():
            if len(pool) <= 1:
                continue
            giant = max(pool, key=lambda label: (sizes[label], -label))
            giant_members = np.flatnonzero(labels == giant)
            for label in pool:
                if label == giant:
                    continue
                members = np.flatnonzero(labels == label)
                u = int(pids[members[generator.integers(members.shape[0])]])
                v = int(
                    pids[giant_members[generator.integers(giant_members.shape[0])]]
                )
                # u and v sit in different components, so (u, v) cannot
                # exist — but the skip is explicit, never an assumption
                # about _record_edge silently tolerating duplicates.
                if self._record_edge(u, v):
                    bridges += 1
        return bridges

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Tuple[Graph, np.ndarray]:
        """Materialise the current topology as ``(graph, peer_ids)``.

        ``peer_ids[i]`` is the peer id of graph node ``i`` (live peer
        ids in ascending order); it is read-only, as the graph's own
        arrays are, because it is cached and shared with :meth:`copy`.
        The CSR arrays are patched from the previous snapshot's
        directed edges, kept sorted by ``(row, col)`` peer id: pending
        removals are located by ``searchsorted`` and dropped, pending
        additions are inserted at their ``searchsorted`` positions, and
        peer ids are relabelled through a ``cumsum`` lookup table. A
        snapshot is therefore a few O(N + E) numpy passes and no sort.
        """
        if self._cached_graph is not None and self._cached_pids is not None:
            return self._cached_graph, self._cached_pids
        if self.num_peers == 0:
            raise ValueError("cannot snapshot an empty overlay")
        rows, cols = self._snap_rows, self._snap_cols
        stride = self._next_pid
        keys = rows * stride + cols
        if self._pending_remove:
            removed = np.array(list(self._pending_remove), dtype=np.int64)
            gone = np.concatenate(
                [removed[:, 0] * stride + removed[:, 1], removed[:, 1] * stride + removed[:, 0]]
            )
            at = np.searchsorted(keys, gone)
            if np.any(at >= keys.shape[0]) or np.any(keys[np.minimum(at, keys.shape[0] - 1)] != gone):
                raise AssertionError("a pending edge removal is missing from the snapshot baseline")
            keep = np.ones(keys.shape[0], dtype=bool)
            keep[at] = False
            rows, cols, keys = rows[keep], cols[keep], keys[keep]
        if self._pending_add:
            added = np.array(list(self._pending_add), dtype=np.int64)
            new_rows = np.concatenate([added[:, 0], added[:, 1]])
            new_cols = np.concatenate([added[:, 1], added[:, 0]])
            new_keys = new_rows * stride + new_cols
            order = np.argsort(new_keys)
            at = np.searchsorted(keys, new_keys[order])
            rows = np.insert(rows, at, new_rows[order])
            cols = np.insert(cols, at, new_cols[order])
        pids = self.peer_ids()
        n = pids.shape[0]
        alive = self._alive[:stride]
        index_of = np.cumsum(alive) - 1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=stride)[alive], out=indptr[1:])
        graph = Graph.from_csr(n, indptr, index_of[cols], validate=False)
        # The patched arrays become the next snapshot's baseline.
        self._snap_rows, self._snap_cols = rows, cols
        self._pending_add.clear()
        self._pending_remove.clear()
        pids.flags.writeable = False
        self._cached_graph = graph
        self._cached_pids = pids
        return graph, pids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MutableOverlay(num_peers={self.num_peers}, num_edges={self.num_edges})"
