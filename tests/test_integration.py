"""Cross-module integration tests.

These are the load-bearing checks of the reproduction: the two engines
implement one semantics, gossip reaches the closed-form fixpoints, and
the attack/defence stack composes end to end.
"""

import numpy as np
import pytest

from repro.attacks.collusion import apply_collusion, group_colluders, select_colluders
from repro.baselines.gossip_trust import unweighted_global_estimate
from repro.core.engine import MessageLevelGossip
from repro.core.single_gclr import aggregate_single_gclr
from repro.core.vector_engine import VectorGossipEngine
from repro.core.vector_gclr import aggregate_vector_gclr, true_vector_gclr
from repro.core.weights import WeightParams
from repro.analysis.metrics import average_rms_error
from repro.network.conditions import PacketLossModel
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.trust.matrix import complete_trust_matrix, random_trust_matrix


class TestEngineEquivalence:
    """The vector and message engines implement the same update rule."""

    def test_same_limit_on_example_network(self, fig2_network):
        values = np.asarray([0.6, 0.3, 0.4, 0.5, 0.3, 0.6, 0.1, 0.6, 0.4, 0.7])
        weights = np.ones(10)
        vector = VectorGossipEngine(fig2_network, rng=1).run(values, weights, xi=1e-9)
        message = MessageLevelGossip(fig2_network, rng=2).run(values, weights, xi=1e-9)
        assert np.allclose(vector.estimates, values.mean(), atol=1e-4)
        assert np.allclose(message.estimates, values.mean(), atol=1e-4)

    def test_comparable_step_counts(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(0).random(n)
        weights = np.ones(n)
        vector = VectorGossipEngine(pa_graph_small, rng=3).run(values, weights, xi=1e-5)
        message = MessageLevelGossip(pa_graph_small, rng=4).run(values, weights, xi=1e-5)
        # Same protocol, same topology: step counts agree within 2x.
        assert 0.5 < vector.steps / message.steps < 2.0

    def test_same_mass_accounting(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(1).random(n)
        for engine in (
            VectorGossipEngine(pa_graph_small, rng=5),
            MessageLevelGossip(pa_graph_small, rng=6),
        ):
            out = engine.run(values, np.ones(n), xi=1e-6)
            assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)
            assert float(out.weights.sum()) == pytest.approx(n, rel=1e-9)


class TestGossipReachesFixpoints:
    """Gossip estimates converge to the closed-form eq.-6 values."""

    def test_single_gclr_both_engines(self, pa_graph_small, small_trust):
        for engine_name in ("vector", "message"):
            result = aggregate_single_gclr(
                pa_graph_small, small_trust, target=9, xi=1e-8, rng=7, engine=engine_name
            )
            assert result.max_absolute_error < 0.01, engine_name

    def test_vector_gclr_matches_exact(self, pa_graph_small, small_trust):
        params = WeightParams()
        targets = [1, 5, 9]
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=targets, params=params, xi=1e-8, rng=8
        )
        exact = true_vector_gclr(pa_graph_small, small_trust, targets, params)
        assert np.allclose(result.reputations, exact, atol=0.01)


class TestCollusionPipeline:
    """Attack -> aggregation -> metric, end to end (Figures 5/6 path)."""

    def test_gossip_and_exact_rms_agree(self):
        graph = preferential_attachment_graph(80, m=2, rng=20)
        trust = complete_trust_matrix(80, rng=21)
        colluders = select_colluders(80, 0.3, rng=22)
        attack = group_colluders(colluders, 5)
        poisoned = apply_collusion(trust, attack)
        params = WeightParams()
        targets = list(range(30))

        clean_exact = true_vector_gclr(graph, trust, targets, params, "all")
        dirty_exact = true_vector_gclr(graph, poisoned, targets, params, "all")
        rms_exact = average_rms_error(dirty_exact, clean_exact)

        clean_gossip = aggregate_vector_gclr(
            graph, trust, targets=targets, params=params,
            denominator_convention="all", xi=1e-6, rng=23,
        ).reputations
        dirty_gossip = aggregate_vector_gclr(
            graph, poisoned, targets=targets, params=params,
            denominator_convention="all", xi=1e-6, rng=23,
        ).reputations
        rms_gossip = average_rms_error(dirty_gossip, clean_gossip)

        assert rms_gossip == pytest.approx(rms_exact, rel=0.15)

    def test_collusion_moves_colluder_reputation_up(self):
        trust = complete_trust_matrix(60, rng=25)
        # One clique: intra-group praise with no rival group badmouthing
        # the members (split groups badmouth each other too).
        attack = group_colluders(np.arange(10), 10)
        poisoned = apply_collusion(trust, attack)
        clean = unweighted_global_estimate(trust)
        dirty = unweighted_global_estimate(poisoned)
        colluders = list(attack.colluders)
        honest = [i for i in range(60) if i not in attack.colluders]
        # Colluders gain (praise), honest nodes lose (withheld opinions).
        assert float(np.mean(dirty[colluders] - clean[colluders])) > 0
        assert float(np.mean(dirty[honest] - clean[honest])) < 0


class TestChurnPipeline:
    def test_lossy_gossip_still_accurate(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(2).random(n)
        loss = PacketLossModel(0.25, rng=30)
        engine = VectorGossipEngine(pa_graph_medium, loss_model=loss, rng=31)
        out = engine.run(values, np.ones(n), xi=1e-7)
        assert np.allclose(out.estimates, values.mean(), atol=5e-3)

    def test_loss_costs_steps(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(3).random(n)
        clean = VectorGossipEngine(pa_graph_medium, rng=32).run(values, np.ones(n), xi=1e-6)
        lossy_model = PacketLossModel(0.4, rng=33)
        lossy = VectorGossipEngine(pa_graph_medium, loss_model=lossy_model, rng=32).run(
            values, np.ones(n), xi=1e-6
        )
        assert lossy.steps >= clean.steps


class TestSparseVsDenseTrust:
    def test_algorithms_handle_both(self, pa_graph_small):
        sparse = random_trust_matrix(pa_graph_small, rng=40)
        dense = complete_trust_matrix(60, rng=41)
        for trust in (sparse, dense):
            result = aggregate_single_gclr(pa_graph_small, trust, target=5, xi=1e-7, rng=42)
            assert result.max_absolute_error < 0.02
