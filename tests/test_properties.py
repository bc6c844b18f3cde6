"""Property-based tests (hypothesis) on the core invariants.

These randomise over topologies, initial states and parameters; each
property is something the paper's correctness rests on:

- push-sum mass conservation (Proposition A.1);
- ratio convergence to the global quotient;
- the differential rule's bounds (1 <= k_i <= deg_i);
- weighting-law guarantees (w >= 1, monotonicity);
- graphicality/realisation duality;
- metric identities (eq. 18 under scaling).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import average_rms_error
from repro.attacks.collusion import apply_collusion, group_colluders
from repro.core.differential import push_counts
from repro.core.state import UNDEFINED_RATIO, ratios
from repro.core.vector_engine import VectorGossipEngine
from repro.core.weights import WeightParams, collusion_damping_factor
from repro.network.conditions import PacketLossModel
from repro.network.degree_sequence import havel_hakimi_graph, is_graphical
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.trust.matrix import TrustMatrix

# Heavier hypothesis suite: one full run per CI matrix (see pyproject markers).
pytestmark = pytest.mark.property

# Modest example counts: each example can run a full gossip round.
FAST = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])

graph_params = st.tuples(
    st.integers(min_value=8, max_value=60),  # nodes
    st.integers(min_value=2, max_value=4),  # m
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


class TestMassConservation:
    @SLOW
    @given(params=graph_params, loss=st.floats(min_value=0.0, max_value=0.9))
    def test_push_sum_mass_invariant(self, params, loss):
        n, m, seed = params
        if n <= m:
            n = m + 2
        graph = preferential_attachment_graph(n, m=m, rng=seed)
        values = np.random.default_rng(seed).random(n)
        loss_model = PacketLossModel(loss, rng=seed + 1)
        engine = VectorGossipEngine(graph, loss_model=loss_model, rng=seed + 2)
        out = engine.run(values, np.ones(n), xi=1e-3, max_steps=2000)
        assert abs(float(out.values.sum()) - float(values.sum())) < 1e-8 * max(1, n)
        assert abs(float(out.weights.sum()) - n) < 1e-8 * n

    @SLOW
    @given(params=graph_params)
    def test_estimates_converge_to_global_quotient(self, params):
        n, m, seed = params
        if n <= m:
            n = m + 2
        graph = preferential_attachment_graph(n, m=m, rng=seed)
        values = np.random.default_rng(seed).random(n)
        engine = VectorGossipEngine(graph, rng=seed + 1)
        out = engine.run(values, np.ones(n), xi=1e-8, max_steps=5000)
        assert np.allclose(out.estimates, values.mean(), atol=1e-3)


class TestDifferentialRule:
    @FAST
    @given(params=graph_params)
    def test_push_counts_bounds(self, params):
        n, m, seed = params
        if n <= m:
            n = m + 2
        graph = preferential_attachment_graph(n, m=m, rng=seed)
        counts = push_counts(graph)
        assert np.all(counts >= 1)
        assert np.all(counts <= graph.degrees)

    @FAST
    @given(params=graph_params)
    def test_mean_k_stays_small(self, params):
        # The paper's message-overhead claim rests on mean k ~ 1.1-1.2.
        n, m, seed = params
        if n <= m:
            n = m + 2
        graph = preferential_attachment_graph(n, m=m, rng=seed)
        assert float(push_counts(graph).mean()) < 2.5


class TestWeightLaw:
    @FAST
    @given(
        a=st.floats(min_value=1.0, max_value=50.0),
        b=st.floats(min_value=0.0, max_value=5.0),
        t1=st.floats(min_value=0.0, max_value=1.0),
        t2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weight_at_least_one_and_monotone(self, a, b, t1, t2):
        params = WeightParams(a=a, b=b)
        w1, w2 = params.weight(t1), params.weight(t2)
        assert w1 >= 1.0 and w2 >= 1.0
        if t1 <= t2:
            assert w1 <= w2 * (1 + 1e-12)

    @FAST
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        excess=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_damping_factor_in_unit_interval(self, n, excess):
        factor = collusion_damping_factor(n, excess)
        assert 0.0 < factor <= 1.0


class TestGraphicality:
    @FAST
    @given(
        degrees=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=12)
    )
    def test_havel_hakimi_realises_iff_graphical(self, degrees):
        if is_graphical(degrees):
            graph = havel_hakimi_graph(degrees)
            assert sorted(map(int, graph.degrees)) == sorted(degrees)
        else:
            try:
                havel_hakimi_graph(degrees)
            except ValueError:
                pass
            else:  # pragma: no cover - would be a real bug
                raise AssertionError("non-graphical sequence was realised")

    @FAST
    @given(params=graph_params)
    def test_generated_degree_sequences_are_graphical(self, params):
        n, m, seed = params
        if n <= m:
            n = m + 2
        graph = preferential_attachment_graph(n, m=m, rng=seed)
        assert is_graphical(list(map(int, graph.degrees)))


class TestRatios:
    @FAST
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_ratio_sentinel_only_on_zero_weight(self, values):
        arr = np.asarray(values)
        weights = np.where(np.abs(arr) > 0.5, arr, 0.0)
        out = ratios(arr, weights)
        for value, weight, ratio in zip(arr, weights, out):
            if weight == 0.0:
                assert ratio == UNDEFINED_RATIO
            else:
                assert ratio == value / weight


class TestMetricIdentities:
    @FAST
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rms_scale_invariance(self, scale, seed):
        # eq. 18 uses relative errors: scaling both matrices changes nothing.
        rng = np.random.default_rng(seed)
        observed = rng.random((5, 6)) + 0.1
        reference = rng.random((5, 6))
        base = average_rms_error(observed, reference)
        scaled = average_rms_error(observed * scale, reference * scale)
        assert abs(base - scaled) < 1e-9

    @FAST
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_rms_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        observed = rng.random((4, 4)) + 0.1
        assert average_rms_error(observed, observed.copy()) == 0.0


class TestCollusionModel:
    @FAST
    @given(
        n=st.integers(min_value=6, max_value=30),
        group_size=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_poisoned_rows_follow_the_attack_spec(self, n, group_size, seed):
        rng = np.random.default_rng(seed)
        trust = TrustMatrix(n)
        for _ in range(n):
            observer, target = rng.integers(n, size=2)
            if observer != target:
                trust.set(int(observer), int(target), float(rng.random()))
        colluders = rng.choice(n, size=min(4, n // 2), replace=False)
        attack = group_colluders(np.sort(colluders), group_size)
        poisoned = apply_collusion(trust, attack)
        for colluder in attack.colluders:
            group = set(attack.group_of(colluder))
            for target in range(n):
                if target == colluder:
                    continue
                expected = 1.0 if target in group else 0.0
                assert poisoned.get(colluder, target) == expected
