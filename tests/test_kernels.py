"""Kernel registry and fused/unfused parity.

The fused kernels exist purely for speed: every observable quantity —
steps, state, message counts, convergence flags — must match the
historical unfused step byte-for-byte (the two paths draw
byte-identical targets from one shared :class:`PushPlan`).
"""

import numpy as np
import pytest

import repro.core.kernels as kernels_mod
from repro import GossipConfig, aggregate
from repro.core.kernels import (
    KernelSpec,
    KernelUnavailableError,
    available_kernels,
    registered_kernels,
    select_kernel,
)
from repro.core.kernels.numba_kernel import NUMBA_AVAILABLE
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.conditions import PacketLossModel
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)


class TestRegistry:
    def test_auto_selects_best_available(self):
        spec = select_kernel()
        assert spec.name == ("numba" if NUMBA_AVAILABLE else "fused")
        assert spec.available
        assert select_kernel("auto").name == spec.name

    def test_fused_and_unfused_always_available(self):
        names = available_kernels()
        assert "fused" in names
        assert "unfused" in names

    def test_unknown_kernel_raises_typed_error(self):
        with pytest.raises(KernelUnavailableError, match="unknown push kernel"):
            select_kernel("simd")

    def test_unavailable_kernel_raises_typed_error(self, monkeypatch):
        spec = kernels_mod._REGISTRY["numba"]
        monkeypatch.setitem(
            kernels_mod._REGISTRY,
            "numba",
            KernelSpec(
                name="numba",
                description=spec.description,
                factory=spec.factory,
                is_available=lambda: False,
            ),
        )
        with pytest.raises(KernelUnavailableError, match="not available"):
            select_kernel("numba")

    def test_unfused_is_never_auto_selected(self, monkeypatch):
        # With every auto-eligible kernel unavailable, selection fails
        # loudly rather than falling back to the reference step.
        for name in ("numba", "fused"):
            spec = kernels_mod._REGISTRY[name]
            monkeypatch.setitem(
                kernels_mod._REGISTRY,
                name,
                KernelSpec(
                    name=name,
                    description=spec.description,
                    factory=spec.factory,
                    is_available=lambda: False,
                ),
            )
        with pytest.raises(KernelUnavailableError, match="no push kernel"):
            select_kernel()

    def test_registered_specs_describe_themselves(self):
        by_name = {spec.name: spec for spec in registered_kernels()}
        assert set(by_name) >= {"numba", "fused", "unfused"}
        assert all(spec.description for spec in by_name.values())

    def test_engine_reports_resolved_kernel(self, pa_graph_small):
        engine = SparseGossipEngine(pa_graph_small, rng=0)
        assert engine.kernel_name == select_kernel().name
        assert SparseGossipEngine(pa_graph_small, rng=0, kernel="unfused").kernel_name == (
            "unfused"
        )

    def test_engine_rejects_unavailable_kernel_at_construction(self, pa_graph_small):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; no unavailable kernel to request")
        with pytest.raises(KernelUnavailableError):
            SparseGossipEngine(pa_graph_small, rng=0, kernel="numba")


class TestSamplingParity:
    """Fused and unfused paths draw byte-identical targets."""

    def test_full_active_matches_subset_sampling(self):
        graph = preferential_attachment_graph(400, m=3, rng=9)
        engine = SparseGossipEngine(graph, rng=0)
        plan = engine._plan
        all_active = np.ones(graph.num_nodes, dtype=bool)
        targets_out = np.empty(plan.max_pushes, dtype=np.int64)
        for seed in (0, 1, 2):
            s_fast, t_fast = plan.sample_full_active(
                np.random.default_rng(seed), targets_out
            )
            s_ref, t_ref = plan.sample_subset(np.random.default_rng(seed), all_active)
            np.testing.assert_array_equal(s_fast, s_ref)
            np.testing.assert_array_equal(t_fast, t_ref)


def _run(engine, values, weights, **kw):
    return engine.run(values, weights, **kw)


class TestKernelParity:
    """Fused float64 outcomes are byte-identical to the unfused reference."""

    KERNELS = ["fused"] + (["numba"] if NUMBA_AVAILABLE else [])

    def _graph(self):
        return preferential_attachment_graph_fast(3000, 4, rng=11)

    def _compare(self, kernel, make_kwargs, run_kwargs):
        graph = self._graph()
        n = graph.num_nodes
        values = np.random.default_rng(5).random(n)
        weights = np.ones(n)
        outs = []
        for name in ("unfused", kernel):
            engine = SparseGossipEngine(graph, rng=77, kernel=name, **make_kwargs())
            outs.append(engine.run(values, weights, **run_kwargs()))
        ref, out = outs
        assert out.steps == ref.steps
        assert out.push_messages == ref.push_messages
        assert out.active_node_steps == ref.active_node_steps
        np.testing.assert_array_equal(out.values, ref.values)
        np.testing.assert_array_equal(out.weights, ref.weights)
        np.testing.assert_array_equal(out.converged, ref.converged)
        for key in ref.extras:
            np.testing.assert_array_equal(out.extras[key], ref.extras[key])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_convergence_run_parity(self, kernel):
        self._compare(kernel, dict, lambda: {"xi": 1e-5})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_to_max_parity(self, kernel):
        self._compare(kernel, dict, lambda: {"max_steps": 25, "run_to_max": True})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_loss_model_parity(self, kernel):
        self._compare(
            kernel,
            lambda: {"loss_model": PacketLossModel(0.2, rng=100)},
            lambda: {"xi": 1e-5},
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_extras_and_vector_state_parity(self, kernel):
        graph = self._graph()
        n = graph.num_nodes
        rng = np.random.default_rng(6)
        values = rng.random((n, 2))
        weights = np.ones((n, 2))
        extras = {"count": rng.random((n, 2))}
        outs = []
        for name in ("unfused", kernel):
            engine = SparseGossipEngine(graph, rng=31, kernel=name)
            outs.append(engine.run(values, weights, xi=1e-5, extras=extras))
        ref, out = outs
        assert out.steps == ref.steps
        np.testing.assert_array_equal(out.values, ref.values)
        np.testing.assert_array_equal(out.extras["count"], ref.extras["count"])


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="optional 'kernels' extra not installed")
class TestNumbaKernel:
    def test_auto_selection_prefers_numba(self):
        assert select_kernel().name == "numba"

    def test_config_kernel_numba_runs(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        out = aggregate(
            pa_graph_medium,
            np.linspace(0.0, 1.0, n),
            GossipConfig(rng=3, kernel="numba", xi=1e-6),
            backend="sparse",
        )
        assert bool(np.allclose(out.estimates, 0.5, atol=1e-3))
