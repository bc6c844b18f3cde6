"""Unit tests for the mass-conserving packet-loss model."""

import numpy as np
import pytest

from repro.network.conditions import PacketLossModel, no_loss


class TestPacketLossModel:
    def test_zero_loss_passthrough(self):
        model = PacketLossModel(0.0, rng=0)
        senders = np.array([0, 1, 2])
        targets = np.array([3, 4, 5])
        out = model.apply(senders, targets)
        assert np.array_equal(out, targets)
        assert model.delivered_count == 3
        assert model.lost_count == 0

    def test_total_loss_redirects_all(self):
        model = PacketLossModel(1.0, rng=0)
        senders = np.array([0, 1, 2])
        targets = np.array([3, 4, 5])
        out = model.apply(senders, targets)
        assert np.array_equal(out, senders)
        assert model.lost_count == 3

    def test_partial_loss_rate(self):
        model = PacketLossModel(0.3, rng=7)
        n = 200_000
        senders = np.zeros(n, dtype=np.int64)
        targets = np.ones(n, dtype=np.int64)
        model.apply(senders, targets)
        rate = model.lost_count / n
        assert rate == pytest.approx(0.3, abs=0.01)

    def test_does_not_mutate_inputs(self):
        model = PacketLossModel(1.0, rng=0)
        targets = np.array([3, 4])
        original = targets.copy()
        model.apply(np.array([0, 1]), targets)
        assert np.array_equal(targets, original)

    def test_shape_mismatch_rejected(self):
        model = PacketLossModel(0.5, rng=0)
        with pytest.raises(ValueError, match="shape"):
            model.apply(np.array([0]), np.array([1, 2]))

    def test_empty_arrays(self):
        model = PacketLossModel(0.5, rng=0)
        out = model.apply(np.array([], dtype=int), np.array([], dtype=int))
        assert out.size == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            PacketLossModel(1.5)
        with pytest.raises(ValueError):
            PacketLossModel(-0.1)

    def test_reset_counters(self):
        model = PacketLossModel(1.0, rng=0)
        model.apply(np.array([0]), np.array([1]))
        assert model.lost_count == 1
        model.reset_counters()
        assert model.lost_count == 0
        assert model.delivered_count == 0
        assert model.loss_probability == 1.0

    def test_no_loss_helper(self):
        model = no_loss()
        assert model.loss_probability == 0.0

    def test_deterministic_from_seed(self):
        senders = np.arange(100)
        targets = np.arange(100) + 100
        a = PacketLossModel(0.5, rng=3).apply(senders, targets % 100)
        b = PacketLossModel(0.5, rng=3).apply(senders, targets % 100)
        assert np.array_equal(a, b)
