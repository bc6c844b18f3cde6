"""Tests for the sparse CSR gossip engine.

The load-bearing checks: the sparse engine is a drop-in for
``VectorGossipEngine`` (same API, same protocol, same invariants), its
estimates agree with the dense engine to 1e-8 relative tolerance on
power-law graphs, and mass is conserved every round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConvergenceError
from repro.core.sparse_engine import SparseGossipEngine
from repro.core.vector_engine import VectorGossipEngine
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.random_graphs import erdos_renyi_graph


class TestApiParity:
    """Construction-time contract matches the dense engine."""

    def test_push_counts_property_read_only(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        assert engine.graph is fig2_network
        with pytest.raises(ValueError):
            engine.push_counts[0] = 5

    def test_rejects_bad_push_count_shape(self, fig2_network):
        with pytest.raises(ValueError, match="shape"):
            SparseGossipEngine(fig2_network, push_counts=np.ones(3, dtype=np.int64))

    def test_rejects_push_counts_above_degree(self, fig2_network):
        counts = np.ones(10, dtype=np.int64)
        counts[5] = 9  # node 5 has degree 2
        with pytest.raises(ValueError, match="degree"):
            SparseGossipEngine(fig2_network, push_counts=counts)

    def test_rejects_zero_push_count_for_connected_node(self, fig2_network):
        counts = np.ones(10, dtype=np.int64)
        counts[3] = 0
        with pytest.raises(ValueError, match="at least once"):
            SparseGossipEngine(fig2_network, push_counts=counts)

    def test_rejects_reserved_extra_name(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ValueError, match="reserved"):
            engine.run(np.ones(10), np.ones(10), extras={"weight": np.ones(10)})

    def test_rejects_weight_shape_mismatch(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ValueError, match="shape"):
            engine.run(np.ones(10), np.ones((10, 2)))

    def test_rejects_non_graph_topology(self):
        with pytest.raises(TypeError, match="scipy sparse"):
            SparseGossipEngine(np.eye(4))

    def test_accepts_scipy_sparse_adjacency(self, fig2_network):
        adjacency = fig2_network.to_scipy_csr()
        engine = SparseGossipEngine(adjacency, rng=3)
        values = np.arange(10, dtype=float)
        outcome = engine.run(values, np.ones(10), xi=1e-7)
        assert np.allclose(outcome.estimates, values.mean(), atol=1e-4)

    def test_convergence_error_when_budget_exhausted(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ConvergenceError):
            engine.run(np.arange(10, dtype=float), np.ones(10), xi=1e-12, max_steps=3)


class TestTargetSelection:
    """Each sender pushes to exactly k_i distinct neighbours."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_targets_distinct_and_adjacent(self, fig2_network, seed):
        engine = SparseGossipEngine(fig2_network, rng=seed)
        active = fig2_network.degrees > 0
        senders, targets = engine._choose_targets(active)
        counts = engine.push_counts
        for node in range(10):
            mask = senders == node
            assert int(mask.sum()) == int(counts[node])
            chosen = targets[mask]
            assert len(set(chosen.tolist())) == chosen.size  # distinct
            neighbors = set(fig2_network.neighbors(node).tolist())
            assert set(chosen.tolist()) <= neighbors

    def test_inactive_nodes_send_nothing(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=9)
        active = np.zeros(10, dtype=bool)
        active[2] = True  # the k=3 hub
        senders, targets = engine._choose_targets(active)
        assert set(senders.tolist()) == {2}
        assert senders.size == 3

    def test_degree_banding_bounds_padding(self):
        # A k=2 group mixing degree-2 nodes with one degree-40 hub must
        # not pad every row to the hub's degree: banding keeps each
        # group's width within 2x of its members' degrees.
        hub_degree = 40
        edges = [(0, i) for i in range(1, hub_degree + 1)]
        edges += [(i, i + 1) for i in range(1, hub_degree)]
        graph = Graph(hub_degree + 1, edges)
        counts = np.full(hub_degree + 1, 2, dtype=np.int64)
        engine = SparseGossipEngine(graph, push_counts=counts, rng=0)
        for group in engine._groups:
            width = group.padded_neighbors.shape[1]
            min_degree = int(graph.degrees[group.nodes].min())
            assert width <= 2 * min_degree
        total_padded = sum(g.padded_neighbors.size for g in engine._groups)
        assert total_padded <= 2 * int(graph.degrees.sum())

    def test_hub_subsets_are_uniform(self, star5):
        # Star hub with degree 4 pushing k=2: all 6 pairs should appear.
        engine = SparseGossipEngine(
            star5, push_counts=np.array([2, 1, 1, 1, 1]), rng=11
        )
        active = np.zeros(5, dtype=bool)
        active[0] = True
        seen = set()
        for _ in range(200):
            _, targets = engine._choose_targets(active)
            seen.add(tuple(sorted(targets.tolist())))
        assert len(seen) == 6


class TestCrossEngineAgreement:
    """Sparse and dense engines compute the same aggregate."""

    @pytest.mark.parametrize("n,steps", [(1000, 350), (10000, 450)])
    def test_matches_vector_engine_on_power_law(self, n, steps):
        graph = preferential_attachment_graph(n, m=2, rng=42)
        values = np.random.default_rng(0).random(n)
        weights = np.ones(n)
        dense = VectorGossipEngine(graph, rng=1).run(
            values, weights, xi=1e-12, max_steps=steps, run_to_max=True
        )
        sparse = SparseGossipEngine(graph, rng=2).run(
            values, weights, xi=1e-12, max_steps=steps, run_to_max=True
        )
        # Fully mixed state: both engines must sit on the same fixpoint.
        np.testing.assert_allclose(sparse.estimates, dense.estimates, rtol=1e-8)
        np.testing.assert_allclose(sparse.estimates, values.mean(), rtol=1e-8)

    def test_protocol_mode_parity(self):
        graph = preferential_attachment_graph(500, m=2, rng=7)
        values = np.random.default_rng(5).random(500)
        weights = np.ones(500)
        dense = VectorGossipEngine(graph, rng=1).run(values, weights, xi=1e-7)
        sparse = SparseGossipEngine(graph, rng=2).run(values, weights, xi=1e-7)
        assert np.allclose(sparse.estimates, values.mean(), atol=1e-4)
        assert np.allclose(dense.estimates, values.mean(), atol=1e-4)
        # Same stop protocol on the same topology: comparable step counts.
        assert 0.5 < sparse.steps / dense.steps < 2.0
        assert sparse.converged.all()

    def test_vector_state_matches(self):
        graph = preferential_attachment_graph(300, m=2, rng=8)
        d = 5
        values = np.random.default_rng(6).random((300, d))
        weights = np.ones((300, d))
        dense = VectorGossipEngine(graph, rng=1).run(
            values, weights, xi=1e-12, max_steps=250, run_to_max=True
        )
        sparse = SparseGossipEngine(graph, rng=2).run(
            values, weights, xi=1e-12, max_steps=250, run_to_max=True
        )
        np.testing.assert_allclose(sparse.estimates, dense.estimates, rtol=1e-8)


class TestDeterminismAndInvariants:
    def test_same_seed_bit_identical(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(3).random(n)
        runs = [
            SparseGossipEngine(pa_graph_medium, rng=77).run(values, np.ones(n), xi=1e-7)
            for _ in range(2)
        ]
        assert runs[0].steps == runs[1].steps
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].weights, runs[1].weights)

    def test_mass_conserved_under_loss(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(4).random(n)
        loss = PacketLossModel(0.3, rng=30)
        out = SparseGossipEngine(pa_graph_medium, loss_model=loss, rng=31).run(
            values, np.ones(n), xi=1e-7
        )
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(n, rel=1e-9)
        assert np.allclose(out.estimates, values.mean(), atol=5e-3)
        assert loss.lost_count > 0

    def test_extras_ride_along(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=12)
        out = engine.run(
            np.arange(10, dtype=float),
            np.ones(10),
            xi=1e-7,
            extras={"count": np.ones(10)},
        )
        # count starts equal to weight, so count/weight stays exactly 1.
        assert np.allclose(out.extra_estimates("count"), 1.0, atol=1e-9)
        assert float(out.extras["count"].sum()) == pytest.approx(10.0, rel=1e-9)

    def test_history_tracking(self, fig2_network):
        out = SparseGossipEngine(fig2_network, rng=13).run(
            np.arange(10, dtype=float), np.ones(10), xi=1e-5, track_history=True
        )
        assert out.ratio_history is not None
        assert len(out.ratio_history) == out.steps
        assert out.ratio_history[0].shape == (10, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=40),
        p=st.floats(min_value=0.15, max_value=0.6),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        value_seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_mass_conserved_every_round(self, n, p, graph_seed, value_seed, steps):
        """Property: value and weight mass are invariant round by round.

        The engine asserts conservation internally after *every* step
        (raising MassConservationError on drift), so running ``steps``
        rounds exercises the per-round check; the final-sum assertion
        here is the independent external witness.
        """
        graph = erdos_renyi_graph(n, p, rng=graph_seed)
        values = np.random.default_rng(value_seed).random(n)
        weights = np.ones(n)
        out = SparseGossipEngine(graph, rng=graph_seed ^ 0x5EED).run(
            values, weights, xi=1e-9, max_steps=steps, run_to_max=True
        )
        assert out.steps == steps
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9, abs=1e-9)
        assert float(out.weights.sum()) == pytest.approx(float(weights.sum()), rel=1e-9)
