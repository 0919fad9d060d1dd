"""Tests for repro.sim.clock, repro.sim.radio, repro.sim.config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.clock import ClockSet
from repro.sim.config import ScenarioConfig
from repro.sim.radio import ChannelStats, IdealChannel
from repro.util.errors import ConfigurationError


class TestClockSet:
    def test_zero_skew_is_identity(self, rng):
        clocks = ClockSet(5, 0.0, rng)
        assert clocks.local_time(2, 3.5) == 3.5
        assert clocks.physical_time(2, 3.5) == 3.5

    def test_offsets_bounded(self, rng):
        clocks = ClockSet(200, 0.05, rng)
        assert np.all(np.abs(clocks.offsets) <= 0.05)

    def test_local_physical_roundtrip(self, rng):
        clocks = ClockSet(10, 0.1, rng)
        for node in range(10):
            local = clocks.local_time(node, 7.0)
            assert clocks.physical_time(node, local) == pytest.approx(7.0)

    def test_epoch_progression(self, rng):
        clocks = ClockSet(3, 0.0, rng)
        assert clocks.epoch(0, 0.5, 1.0) == 0
        assert clocks.epoch(0, 1.5, 1.0) == 1
        assert clocks.epoch(0, 10.0, 1.0) == 10

    def test_epoch_start_inverts_epoch(self, rng):
        clocks = ClockSet(4, 0.02, rng)
        for node in range(4):
            t = clocks.epoch_start(node, 5, 1.0)
            assert clocks.epoch(node, t + 1e-9, 1.0) == 5

    def test_skew_shifts_epoch_boundaries(self, rng):
        clocks = ClockSet(50, 0.05, rng)
        starts = [clocks.epoch_start(i, 3, 1.0) for i in range(50)]
        assert max(starts) - min(starts) <= 0.1
        assert max(starts) != min(starts)

    def test_negative_skew_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ClockSet(3, -0.1, rng)


class TestIdealChannel:
    def test_receivers_within_range(self):
        ch = IdealChannel()
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [11.0, 0.0]])
        assert list(ch.receivers(0, pts, 10.0)) == [1]

    def test_sender_excluded(self):
        ch = IdealChannel()
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert 0 not in ch.receivers(0, pts, 10.0)

    def test_boundary_inclusive(self):
        ch = IdealChannel()
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert list(ch.receivers(0, pts, 10.0)) == [1]

    def test_zero_range_reaches_nobody(self):
        ch = IdealChannel()
        pts = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert ch.receivers(0, pts, 0.0).size == 0

    def test_arrival_time_adds_delay(self):
        ch = IdealChannel(propagation_delay=0.002)
        assert ch.arrival_time(1.0) == pytest.approx(1.002)

    def test_stats_dict_roundtrip(self):
        stats = ChannelStats(hello_messages=3, deliveries=7)
        d = stats.as_dict()
        assert d["hello_messages"] == 3 and d["deliveries"] == 7

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            IdealChannel(propagation_delay=-0.1)

    def test_loss_without_rng_points_at_fault_schedule(self):
        # The error must teach the deterministic alternative: a
        # FaultSchedule with HelloLossBurst events wired via NetworkWorld.
        with pytest.raises(ValueError) as excinfo:
            IdealChannel(hello_loss_rate=0.2)
        message = str(excinfo.value)
        assert "requires an rng" in message
        assert "repro.faults.FaultSchedule" in message
        assert "HelloLossBurst" in message
        assert "NetworkWorld(faults=...)" in message

    def test_loss_rate_validated_before_rng_check(self):
        with pytest.raises(ConfigurationError, match="hello_loss_rate"):
            IdealChannel(hello_loss_rate=1.5)

    def test_rng_and_loss_rng_together_rejected(self):
        # loss_rng= was removed in 2.0: it is an unknown keyword now.
        with pytest.raises(TypeError, match="loss_rng"):
            IdealChannel(
                rng=np.random.default_rng(0), loss_rng=np.random.default_rng(1)
            )


class TestScenarioConfig:
    def test_paper_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.n_nodes == 100
        assert cfg.normal_range == 250.0
        assert cfg.area.width == 900.0
        assert cfg.hello_interval == 1.0
        assert cfg.hello_jitter == 0.25

    def test_max_hello_interval(self):
        assert ScenarioConfig().max_hello_interval == 1.25

    def test_n_samples(self):
        cfg = ScenarioConfig(duration=12.0, warmup=2.0, sample_rate=10.0)
        assert cfg.n_samples == 100

    def test_rejects_single_node(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=1)

    def test_rejects_jitter_ge_interval(self):
        with pytest.raises(ValueError):
            ScenarioConfig(hello_interval=1.0, hello_jitter=1.0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(warmup=-1.0)

    def test_frozen(self):
        cfg = ScenarioConfig()
        with pytest.raises(AttributeError):
            cfg.n_nodes = 5  # type: ignore[misc]
