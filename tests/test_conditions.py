"""Unit tests for repro.network.conditions (link models)."""

import numpy as np
import pytest

from repro.network.conditions import (
    INSTANT,
    EpochPartition,
    HomogeneousLink,
    InstantLink,
    LatencySpec,
    PacketLossModel,
    PartitionWindow,
    RegionalLinkModel,
    block_regions,
    no_loss,
)


class TestLatencySpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            LatencySpec("gamma", mean=1.0)
        with pytest.raises(ValueError, match="mean"):
            LatencySpec("constant", mean=-1.0)
        with pytest.raises(ValueError, match="spread"):
            LatencySpec("lognormal", mean=1.0, spread=-0.5)
        with pytest.raises(ValueError, match="non-negative"):
            LatencySpec("uniform", mean=1.0, spread=2.0)

    def test_instant_detection(self):
        assert INSTANT.is_instant
        assert LatencySpec("exponential", mean=0.0).is_instant
        assert not LatencySpec("constant", mean=0.5).is_instant
        assert LatencySpec("uniform", mean=0.0, spread=0.0).is_instant
        assert LatencySpec("lognormal", mean=0.0, spread=1.0).is_instant

    def test_constant_draws_no_randomness(self):
        rng = np.random.default_rng(0)
        spec = LatencySpec("constant", mean=0.7)
        before = rng.bit_generator.state
        assert spec.sample(rng) == 0.7
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("kind,spread", [
        ("uniform", 0.5), ("exponential", 0.0), ("lognormal", 0.8),
    ])
    def test_samples_nonnegative_with_roughly_right_mean(self, kind, spread):
        spec = LatencySpec(kind, mean=2.0, spread=spread)
        rng = np.random.default_rng(1)
        samples = np.array([spec.sample(rng) for _ in range(4000)])
        assert (samples >= 0.0).all()
        assert samples.mean() == pytest.approx(2.0, rel=0.1)

    def test_seeded_sampling_is_deterministic(self):
        spec = LatencySpec("lognormal", mean=1.0, spread=0.5)
        a = [spec.sample(np.random.default_rng(9)) for _ in range(1)]
        b = [spec.sample(np.random.default_rng(9)) for _ in range(1)]
        assert a == b


class TestBlockRegions:
    def test_contiguous_blocks(self):
        assert block_regions(6, 2).tolist() == [0, 0, 0, 1, 1, 1]
        assert block_regions(5, 2).tolist() == [0, 0, 0, 1, 1]
        assert block_regions(4, 4).tolist() == [0, 1, 2, 3]

    def test_every_region_nonempty(self):
        for n, k in [(10, 3), (7, 7), (100, 9)]:
            counts = np.bincount(block_regions(n, k), minlength=k)
            assert (counts > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            block_regions(0, 1)
        with pytest.raises(ValueError):
            block_regions(4, 5)
        with pytest.raises(ValueError):
            block_regions(4, 0)


class TestInstantLink:
    def test_trivial_bound_consumes_no_randomness(self):
        rng = np.random.default_rng(3)
        bound = InstantLink(0.0).bind(None, rng)
        before = rng.bit_generator.state
        assert bound.is_trivial
        assert bound.transfer(0.0, 0, 1) == (False, 0.0)
        assert rng.bit_generator.state == before
        assert bound.quiet_horizon == 0.0

    def test_loss_rate_matches_probability(self):
        bound = InstantLink(0.25).bind(None, 11)
        drops = sum(bound.transfer(0.0, 0, 1)[0] for _ in range(4000))
        assert drops == bound.dropped_count
        assert drops / 4000 == pytest.approx(0.25, abs=0.03)
        assert bound.delivered_count == 4000 - drops

    def test_matches_packet_loss_model_stream(self):
        # The sync face (PacketLossModel) and the async face (bound
        # transfer) must consume the shared loss stream identically:
        # one uniform draw per push, compared against the same p.
        p = 0.3
        reference = np.random.default_rng(17).random(500) < p
        bound = InstantLink(p).bind(None, np.random.default_rng(17))
        fates = np.array([bound.transfer(0.0, 0, 1)[0] for _ in range(500)])
        assert np.array_equal(fates, reference)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstantLink(1.5)


class TestPacketLossModel:
    def test_counters_and_redirect(self):
        model = PacketLossModel(1.0, rng=0)
        senders = np.array([3, 4])
        out = model.apply(senders, np.array([5, 6]))
        assert out.tolist() == [3, 4]
        assert model.lost_count == 2 and model.delivered_count == 0
        model.reset_counters()
        assert model.lost_count == 0

    def test_no_loss_helper(self):
        model = no_loss()
        targets = np.array([1, 2, 3])
        assert np.array_equal(model.apply(np.array([0, 0, 0]), targets), targets)


class TestHomogeneousLink:
    def test_latency_flag(self):
        assert not HomogeneousLink(0.1).has_latency
        assert HomogeneousLink(latency=LatencySpec("constant", 0.5)).has_latency
        assert HomogeneousLink(bandwidth=10.0).has_latency

    def test_uniform_loss_face(self):
        assert HomogeneousLink(0.2).uniform_loss_probability == 0.2

    def test_bandwidth_fifo_queueing(self):
        # Cap of 2 msgs/time-unit => 0.5 service time. Three instant
        # pushes on the same directed edge at t=0 serialize: 0.5, 1.0,
        # 1.5. The reverse direction is full-duplex (independent queue).
        link = HomogeneousLink(0.0, bandwidth=2.0)
        bound = link.bind(None, 0)
        delays = [bound.transfer(0.0, 0, 1)[1] for _ in range(3)]
        assert delays == [0.5, 1.0, 1.5]
        assert bound.transfer(0.0, 1, 0)[1] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            HomogeneousLink(bandwidth=0.0)
        with pytest.raises(ValueError):
            HomogeneousLink(-0.1)


class TestRegionalLinkModel:
    def test_region_resolution_matches_block_regions(self):
        model = RegionalLinkModel(3)
        assert np.array_equal(model.resolve_regions(9), block_regions(9, 3))
        explicit = RegionalLinkModel(np.array([0, 1, 1, 0]))
        assert explicit.resolve_regions(4).tolist() == [0, 1, 1, 0]

    def test_intra_vs_inter_latency(self):
        model = RegionalLinkModel(
            2, inter_latency=LatencySpec("constant", mean=1.0)
        )
        bound = model.bind(4, rng=0)
        assert bound.transfer(0.0, 0, 1) == (False, 0.0)
        assert bound.transfer(0.0, 1, 2) == (False, 1.0)

    def test_flaky_region_raises_loss_floor(self):
        model = RegionalLinkModel(2, flaky_region=1, flaky_loss=1.0)
        bound = model.bind(4, rng=0)
        assert bound.transfer(0.0, 0, 1) == (False, 0.0)  # region 0 intact
        assert bound.transfer(0.0, 2, 3)[0] is True  # both ends flaky
        assert bound.transfer(0.0, 1, 2)[0] is True  # one end flaky

    def test_partition_window_drops_cross_only_and_heals(self):
        model = RegionalLinkModel(
            2, partitions=(PartitionWindow(start=1.0, duration=2.0),)
        )
        bound = model.bind(4, rng=0)
        assert bound.transfer(1.5, 0, 1) == (False, 0.0)  # intra unaffected
        assert bound.transfer(1.5, 1, 2) == (True, 0.0)  # cross dropped
        assert bound.partition_dropped_count == 1
        assert bound.transfer(3.0, 1, 2) == (False, 0.0)  # healed
        assert bound.quiet_horizon == 3.0

    def test_partition_drop_consumes_no_randomness(self):
        rng = np.random.default_rng(5)
        model = RegionalLinkModel(
            2, inter_loss=0.5, partitions=(PartitionWindow(start=0.0, duration=1.0),)
        )
        bound = model.bind(4, rng=rng)
        before = rng.bit_generator.state
        assert bound.transfer(0.5, 0, 3)[0] is True
        assert rng.bit_generator.state == before

    def test_capability_flags(self):
        assert not RegionalLinkModel(2, intra_loss=0.1, inter_loss=0.1).has_latency
        assert RegionalLinkModel(2, intra_loss=0.1, inter_loss=0.1).uniform_loss_probability == 0.1
        assert RegionalLinkModel(2, intra_loss=0.1, inter_loss=0.3).uniform_loss_probability is None
        assert RegionalLinkModel(
            2, partitions=(PartitionWindow(0.0, 1.0),)
        ).has_latency  # time-dependent => event-driven only

    def test_validation(self):
        with pytest.raises(ValueError, match="flaky_region"):
            RegionalLinkModel(2, flaky_region=5, flaky_loss=0.5)
        with pytest.raises(ValueError, match="no-op flake"):
            RegionalLinkModel(2, flaky_region=1)
        with pytest.raises(ValueError, match="non-empty"):
            RegionalLinkModel(np.array([[0, 1]]).reshape(1, 2))
        with pytest.raises(ValueError, match=">= 1"):
            RegionalLinkModel(0)


class TestPartitionSchedules:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(start=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            PartitionWindow(start=0.0, duration=0.0)

    def test_window_bounds(self):
        window = PartitionWindow(start=5.0, duration=10.0)
        assert window.end == 15.0
        assert not window.active(4.9)
        assert window.active(5.0)
        assert not window.active(15.0)

    def test_epoch_partition(self):
        schedule = EpochPartition(start_epoch=2, heal_epoch=4, num_groups=3)
        assert [schedule.active(e) for e in range(5)] == [False, False, True, True, False]
        assert schedule.group(7) == 1
        with pytest.raises(ValueError):
            EpochPartition(start_epoch=3, heal_epoch=3)
        with pytest.raises(ValueError):
            EpochPartition(start_epoch=0, heal_epoch=2, num_groups=1)
