"""Byte-identity pins for sparse ``repro.aggregate`` and its selection routines.

The kernel parity tests compare the fused kernel against the unfused
one, but both sample through :meth:`PushPlan.sample_subset`, so a byte
change there (or in the stop protocol) would move both sides at once.
These pins compare whole runs against fixed fingerprints instead —
steps, push and protocol message counts, and the sha256 of the estimate
matrix — recorded before the sampling fast paths (stable-sort hub
selection, the vectorised stop announcement, prescaled tail steps)
were introduced. A pin may change only together with an intentional
RNG-stream change, listed in CHANGES.md.

The unit tests below check :func:`select_k_smallest` and the stop
announcement against straightforward reference loops.
"""

import hashlib

import numpy as np
import pytest

from repro import GossipConfig, aggregate
from repro.core.convergence import ConvergenceProtocol
from repro.core.differential import resolve_push_counts
from repro.core.kernels.plan import SORT_CELLS_PER_PICK, PushPlan, select_k_smallest
from repro.network.conditions import InstantLink
from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph

N = 3000


@pytest.fixture(scope="module")
def world():
    graph = preferential_attachment_graph(N, m=4, rng=np.random.default_rng(2024))
    values = np.random.default_rng(7).random(N)
    return graph, values


# (config, steps, push messages, protocol messages, sha256 of estimates)
PINS = {
    "float64": (
        dict(xi=1e-6, rng=11),
        100, 217044, 47960,
        "60de656f1875e9dbf3203c1e63e8fbe81d39c25ae8ee0472e4d582e92d540510",
    ),
    "unfused": (
        dict(xi=1e-6, rng=11, kernel="unfused"),
        100, 217044, 47960,
        "60de656f1875e9dbf3203c1e63e8fbe81d39c25ae8ee0472e4d582e92d540510",
    ),
    "lossy": (
        dict(xi=1e-6, rng=5, network=InstantLink(0.1)),
        113, 238683, 47960,
        "38acd6a60b26828396c61b0361c7c24029c7c07997a9e47bb2fcc05fb8fab2ac",
    ),
    "run_to_max": (
        dict(xi=1e-6, rng=3, run_to_max=True, max_steps=40),
        40, 128680, 24015,
        "5e914a22461abd66a451794d886bcf4af354deae315a6d07c5458f16dc9d6e30",
    ),
}


def _fingerprint(outcome):
    digest = hashlib.sha256(np.ascontiguousarray(outcome.estimates).tobytes())
    return (
        outcome.steps,
        outcome.push_messages,
        outcome.protocol_messages,
        digest.hexdigest(),
    )


class TestRunPins:
    def test_world_exercises_every_sampling_branch(self, world):
        graph, _ = world
        plan = PushPlan(
            graph.indptr, graph.indices, graph.degrees, resolve_push_counts(graph, None)
        )
        sorted_groups = [
            g.keys.size <= SORT_CELLS_PER_PICK * g.k for g in plan.groups
        ]
        assert any(sorted_groups) and not all(sorted_groups)
        assert plan.k1_nodes.size

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_sparse_aggregate_matches_pin(self, world, name):
        graph, values = world
        config, *expected = PINS[name]
        outcome = aggregate(graph, values, GossipConfig(**config), backend="sparse")
        assert _fingerprint(outcome) == tuple(expected)

    @pytest.mark.parametrize("name", ["float64", "unfused", "lossy"])
    def test_converged_pins_run_tail_steps(self, world, name):
        # Fewer pushes than steps x full-active pushes: some nodes
        # stopped early, so the subset sampler and tail step ran.
        graph, _ = world
        plan = PushPlan(
            graph.indptr, graph.indices, graph.degrees, resolve_push_counts(graph, None)
        )
        _, steps, pushes, _, _ = PINS[name]
        assert pushes < steps * plan.max_pushes

    def test_multi_channel_matches_pin(self, world):
        graph, values = world
        outcome = aggregate(
            graph,
            [values, values[::-1].copy()],
            GossipConfig(xi=1e-6, rng=9),
            backend="sparse",
        )
        assert _fingerprint(outcome) == (
            102, 219303, 47960,
            "19fb3a873a79259c88452d443da260852b01e07ea6c09bf1ad3b903c471cf138",
        )


# The paper's uniform per-push loss on the two backends that do not
# route it through a PacketLossModel draw inside a vectorised kernel:
# the message engine applies it per mailbox push, the async engine per
# send event. Small world: both engines are per-push Python loops.
LOSSY_PINS = {
    "async": (
        103, 23247, 0,
        "7c94b52e871813e536e615da295e6912a428663d21e855088a247e1fd1e48435",
    ),
    "message": (
        117, 21942, 2376,
        "97b3f89bc86181101feedc51c96e0c471fe1f72a3932c4176262f863eefeafe7",
    ),
}


@pytest.mark.parametrize("backend", sorted(LOSSY_PINS))
def test_lossy_backend_matches_pin(backend):
    graph = preferential_attachment_graph(200, m=3, rng=np.random.default_rng(2024))
    values = np.random.default_rng(7).random(200)
    outcome = aggregate(
        graph, values, GossipConfig(xi=1e-6, rng=5, network=InstantLink(0.2)), backend=backend
    )
    assert _fingerprint(outcome) == LOSSY_PINS[backend]


# -- select_k_smallest -------------------------------------------------------


def _argmin_reference(keys, k):
    """Repeated first-occurrence argmin: the selection contract."""
    keys = keys.copy()
    rows = np.arange(keys.shape[0])
    cols = np.empty((keys.shape[0], k), dtype=np.int64)
    for j in range(k):
        cols[:, j] = np.argmin(keys, axis=1)
        keys[rows, cols[:, j]] = np.inf
    return cols


def _padded_keys(rng, rows, width, *, ties):
    valid = rng.integers(width // 2 + 1, width + 1, size=rows)
    valid[0] = width  # at least one unpadded row
    keys = rng.random((rows, width))
    if ties:
        # Exact duplicates, including repeated minima.
        keys = np.round(keys * 4) / 4
    keys[np.arange(width)[None, :] >= valid[:, None]] = np.inf
    return keys, int(valid.min())


class TestSelectKSmallest:
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize(
        "rows,width",
        [(1, 5), (1, 400), (3, 60), (40, 16), (200, 64)],
    )
    def test_matches_repeated_argmin(self, rows, width, ties):
        rng = np.random.default_rng(rows * 1000 + width)
        for _ in range(3):
            keys, max_k = _padded_keys(rng, rows, width, ties=ties)
            for k in range(1, max_k + 1):
                expected = _argmin_reference(keys, k)
                got = select_k_smallest(keys.copy(), k)
                np.testing.assert_array_equal(got, expected)

    def test_covers_both_sides_of_the_cut_over(self):
        # Same matrix, different k: the argmin passes below the
        # cut-over, one stable sort at and above it.
        rng = np.random.default_rng(4)
        keys = np.round(rng.random((4, 60)) * 8) / 8
        cut_k = -(-keys.size // SORT_CELLS_PER_PICK)
        for k in (cut_k - 1, cut_k, cut_k + 1):
            np.testing.assert_array_equal(
                select_k_smallest(keys.copy(), k), _argmin_reference(keys, k)
            )


# -- stop announcements -----------------------------------------------------


def _announce_reference(graph, announcers):
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    for node in announcers:
        for neighbour in graph.indices[graph.indptr[node] : graph.indptr[node + 1]]:
            counts[neighbour] += 1
    return counts


class TestAnnounce:
    def test_star_hub_and_leaves(self):
        # Leaves 1..4 share neighbour 0; the hub has four neighbours.
        star = Graph(6, [(0, i) for i in range(1, 5)])  # node 5 isolated
        protocol = ConvergenceProtocol(star, 1e-3)
        heard = np.ones(6, dtype=bool)
        moved = np.full(6, 1.0)
        moved[[1, 2, 3]] = 0.0
        newly = protocol.observe(moved, heard)
        np.testing.assert_array_equal(newly, [1, 2, 3])
        np.testing.assert_array_equal(
            protocol._converged_neighbor_count, _announce_reference(star, [1, 2, 3])
        )
        moved[[0, 4]] = 0.0
        protocol.observe(moved, heard)
        np.testing.assert_array_equal(
            protocol._converged_neighbor_count,
            _announce_reference(star, [0, 1, 2, 3, 4]),
        )
        assert protocol.all_stopped

    def test_counters_match_reference_over_repeated_observe(self):
        graph = preferential_attachment_graph(500, m=3, rng=np.random.default_rng(8))
        protocol = ConvergenceProtocol(graph, 1e-3, patience=2)
        rng = np.random.default_rng(1)
        announced = []
        for _ in range(12):
            moved = rng.random(graph.num_nodes) * 4e-3
            heard = rng.random(graph.num_nodes) < 0.8
            announced.extend(protocol.observe(moved, heard).tolist())
            np.testing.assert_array_equal(
                protocol._converged_neighbor_count,
                _announce_reference(graph, announced),
            )
        assert len(announced) == len(set(announced)) > 100

    def test_channel_path_matches_reference(self):
        graph = preferential_attachment_graph(300, m=2, rng=np.random.default_rng(3))
        protocol = ConvergenceProtocol(graph, 1e-3, num_components=4, num_channels=2)
        rng = np.random.default_rng(2)
        announced = []
        for _ in range(8):
            moved = rng.random((graph.num_nodes, 2)) * 6e-3
            heard = rng.random(graph.num_nodes) < 0.9
            announced.extend(protocol.observe(moved, heard).tolist())
            np.testing.assert_array_equal(
                protocol._converged_neighbor_count,
                _announce_reference(graph, announced),
            )
        assert len(announced) > 50
