"""Tests for repro.metrics.links: link-lifetime tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.geometry.csr import CSRGraph
from repro.metrics.links import LinkLifetimeTracker
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.sim.world import WorldSnapshot
from repro.util.errors import SimulationError


def snapshot_at(t, positions, logical, ranges, normal_range=100.0):
    positions = np.asarray(positions, dtype=np.float64)
    return WorldSnapshot(
        time=t, positions=positions,
        logical_csr=CSRGraph.from_dense(logical),
        actual_ranges=np.asarray(ranges, dtype=np.float64),
        extended_ranges=np.asarray(ranges, dtype=np.float64),
        normal_range=normal_range,
    )


def two_node_snaps(link_pattern, dt=1.0):
    """Sequence of snapshots where the 0-1 logical link follows a pattern."""
    snaps = []
    for i, up in enumerate(link_pattern):
        logical = np.zeros((2, 2), dtype=bool)
        if up:
            logical[0, 1] = logical[1, 0] = True
        snaps.append(
            snapshot_at(i * dt, [[0.0, 0.0], [10.0, 0.0]], logical, [20.0, 20.0])
        )
    return snaps


class TestTrackerMechanics:
    def test_completed_lifetime_measured(self):
        tracker = LinkLifetimeTracker(kind="logical")
        for snap in two_node_snaps([1, 1, 1, 0]):
            tracker.observe(snap)
        summary = tracker.finish()
        assert summary.completed == 1
        assert summary.mean == pytest.approx(3.0)

    def test_censored_link_counted_separately(self):
        tracker = LinkLifetimeTracker(kind="logical")
        for snap in two_node_snaps([1, 1, 1]):
            tracker.observe(snap)
        summary = tracker.finish()
        assert summary.completed == 0
        assert summary.censored == 1
        assert math.isnan(summary.mean)

    def test_flapping_link_two_lifetimes(self):
        tracker = LinkLifetimeTracker(kind="logical")
        for snap in two_node_snaps([1, 0, 1, 0]):
            tracker.observe(snap)
        summary = tracker.finish()
        assert summary.completed == 2
        assert summary.mean == pytest.approx(1.0)

    def test_break_rate(self):
        tracker = LinkLifetimeTracker(kind="logical")
        for snap in two_node_snaps([1, 0]):
            tracker.observe(snap)
        summary = tracker.finish()
        assert summary.break_rate == pytest.approx(1.0)  # 1 break / 1 s up

    def test_out_of_order_rejected(self):
        tracker = LinkLifetimeTracker(kind="logical")
        snaps = two_node_snaps([1, 1])
        tracker.observe(snaps[1])
        with pytest.raises(SimulationError):
            tracker.observe(snaps[0])

    def test_observe_after_finish_rejected(self):
        tracker = LinkLifetimeTracker(kind="logical")
        tracker.finish()
        with pytest.raises(SimulationError):
            tracker.observe(two_node_snaps([1])[0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            LinkLifetimeTracker(kind="imaginary")

    def test_empty_observation(self):
        summary = LinkLifetimeTracker().finish()
        assert summary.completed == 0 and summary.break_rate == 0.0


class TestOnLiveWorlds:
    def _summary(self, protocol, speed, kind="effective", seed=4):
        cfg = ScenarioConfig(
            n_nodes=20, area=Area(403.0, 403.0), normal_range=250.0,
            duration=12.0, warmup=2.0, sample_rate=2.0,
        )
        spec = ExperimentSpec(protocol=protocol, mean_speed=speed, config=cfg)
        world = build_world(spec, seed=seed)
        tracker = LinkLifetimeTracker(kind=kind)
        for t in np.arange(2.0, 12.0, 0.5):
            world.run_until(float(t))
            tracker.observe(world.snapshot())
        return tracker.finish()

    def test_faster_mobility_shorter_lifetimes(self):
        slow = self._summary("rng", speed=2.0)
        fast = self._summary("rng", speed=40.0)
        assert fast.break_rate >= slow.break_rate

    def test_original_links_outlive_effective(self):
        # Normal-range links break only by distance; effective links also
        # break by selection churn, so their hazard is at least as high.
        effective = self._summary("mst", speed=20.0, kind="effective")
        original = self._summary("mst", speed=20.0, kind="original")
        assert effective.break_rate >= original.break_rate
