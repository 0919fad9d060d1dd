"""Tests for repro.metrics.partitions: partition-episode tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.geometry.csr import CSRGraph
from repro.metrics.partitions import PartitionTracker
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.sim.world import WorldSnapshot
from repro.util.errors import SimulationError


def snap_at(t, connected):
    """Two-node snapshot that is connected iff *connected*."""
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    logical = np.ones((2, 2), dtype=bool) & ~np.eye(2, dtype=bool)
    ranges = np.full(2, 20.0 if connected else 5.0)
    return WorldSnapshot(
        time=t, positions=positions, logical_csr=CSRGraph.from_dense(logical),
        actual_ranges=ranges, extended_ranges=ranges, normal_range=50.0,
    )


class TestTrackerMechanics:
    def test_always_connected(self):
        tracker = PartitionTracker()
        for t in range(5):
            tracker.observe(snap_at(float(t), True))
        summary = tracker.finish()
        assert summary.availability == 1.0
        assert summary.episodes == 0
        assert not summary.ongoing

    def test_single_partition_episode(self):
        tracker = PartitionTracker()
        pattern = [True, False, False, True, True]
        for t, up in enumerate(pattern):
            tracker.observe(snap_at(float(t), up))
        summary = tracker.finish()
        assert summary.episodes == 1
        assert summary.mean_duration == pytest.approx(2.0)
        assert summary.availability == pytest.approx(2 / 4)

    def test_ongoing_partition_flagged(self):
        tracker = PartitionTracker()
        for t, up in enumerate([True, False, False]):
            tracker.observe(snap_at(float(t), up))
        summary = tracker.finish()
        assert summary.ongoing
        assert summary.episodes == 0

    def test_multiple_episodes_max_duration(self):
        tracker = PartitionTracker()
        pattern = [True, False, True, False, False, False, True]
        for t, up in enumerate(pattern):
            tracker.observe(snap_at(float(t), up))
        summary = tracker.finish()
        assert summary.episodes == 2
        assert summary.max_duration == pytest.approx(3.0)

    def test_empty_observation(self):
        summary = PartitionTracker().finish()
        assert summary.availability == 1.0 and summary.episodes == 0

    def test_order_enforced(self):
        tracker = PartitionTracker()
        tracker.observe(snap_at(1.0, True))
        with pytest.raises(SimulationError):
            tracker.observe(snap_at(0.5, True))

    def test_observe_after_finish_rejected(self):
        tracker = PartitionTracker()
        tracker.finish()
        with pytest.raises(SimulationError):
            tracker.observe(snap_at(0.0, True))


class TestOnLiveWorlds:
    def _summary(self, buffer, pn=False, seed=4):
        cfg = ScenarioConfig(
            n_nodes=20, area=Area(403.0, 403.0), normal_range=250.0,
            duration=12.0, warmup=2.0, sample_rate=2.0,
        )
        spec = ExperimentSpec(
            protocol="rng", mechanism="view-sync", buffer_width=buffer,
            physical_neighbor_mode=pn, mean_speed=25.0, config=cfg,
        )
        world = build_world(spec, seed=seed)
        tracker = PartitionTracker(physical_neighbor_mode=pn)
        for t in np.arange(2.0, 12.0, 0.5):
            world.run_until(float(t))
            tracker.observe(world.snapshot())
        return tracker.finish()

    def test_buffer_raises_availability(self):
        thin = self._summary(buffer=0.0)
        wide = self._summary(buffer=100.0)
        assert wide.availability >= thin.availability

    def test_availability_in_unit_interval(self):
        summary = self._summary(buffer=30.0)
        assert 0.0 <= summary.availability <= 1.0
