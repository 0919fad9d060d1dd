"""Tests for repro.metrics: stats, connectivity, topology samples."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.csr import CSRGraph
from repro.metrics.connectivity import (
    largest_effective_component,
    logical_topology_connected,
    original_topology_connected,
    pairwise_connectivity_ratio,
    strictly_connected,
)
from repro.metrics.stats import Estimate, mean_ci
from repro.metrics.topology import sample_topology
from repro.sim.world import WorldSnapshot


def snapshot_from(positions, logical, ranges, normal_range=100.0):
    positions = np.asarray(positions, dtype=np.float64)
    ranges = np.asarray(ranges, dtype=np.float64)
    return WorldSnapshot(
        time=0.0,
        positions=positions,
        logical_csr=CSRGraph.from_dense(logical),
        actual_ranges=ranges,
        extended_ranges=ranges,
        normal_range=normal_range,
    )


@pytest.fixture
def line_snapshot():
    """3 nodes in a line, each selecting its nearest neighbor(s)."""
    logical = np.array(
        [[False, True, False], [True, False, True], [False, True, False]]
    )
    return snapshot_from(
        [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]], logical, [10.0, 10.0, 10.0]
    )


class TestMeanCi:
    def test_single_sample(self):
        est = mean_ci([3.0])
        assert est.mean == 3.0 and est.half_width == 0.0 and est.n == 1

    def test_empty_is_nan(self):
        est = mean_ci([])
        assert math.isnan(est.mean)

    def test_constant_samples_zero_width(self):
        est = mean_ci([2.0, 2.0, 2.0])
        assert est.half_width == 0.0

    def test_interval_contains_mean_generously(self, rng):
        samples = rng.normal(10.0, 1.0, size=50)
        est = mean_ci(samples)
        assert est.low < 10.0 < est.high

    def test_width_shrinks_with_n(self, rng):
        small = mean_ci(rng.normal(0, 1, 10))
        large = mean_ci(rng.normal(0, 1, 1000))
        assert large.half_width < small.half_width

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))

    def test_bounds_accessors(self):
        est = Estimate(mean=5.0, half_width=1.0, n=3)
        assert est.low == 4.0 and est.high == 6.0


class TestStrictConnectivity:
    def test_connected_line(self, line_snapshot):
        assert strictly_connected(line_snapshot)

    def test_asymmetric_selection_breaks_strict_link(self):
        # 1 selects 0 but 0 does not select 1 => no bidirectional link.
        logical = np.array([[False, False], [True, False]])
        snap = snapshot_from([[0.0, 0.0], [5.0, 0.0]], logical, [10.0, 10.0])
        assert not strictly_connected(snap)

    def test_pn_mode_ignores_selection(self):
        logical = np.array([[False, False], [True, False]])
        snap = snapshot_from([[0.0, 0.0], [5.0, 0.0]], logical, [10.0, 10.0])
        assert strictly_connected(snap, physical_neighbor_mode=True)

    def test_out_of_range_breaks_link_even_in_pn_mode(self):
        logical = np.ones((2, 2), dtype=bool) & ~np.eye(2, dtype=bool)
        snap = snapshot_from([[0.0, 0.0], [50.0, 0.0]], logical, [10.0, 10.0])
        assert not strictly_connected(snap, physical_neighbor_mode=True)


class TestLargestComponent:
    def test_full_component(self, line_snapshot):
        assert largest_effective_component(line_snapshot) == 1.0

    def test_partition_fraction(self):
        logical = np.zeros((4, 4), dtype=bool)
        logical[0, 1] = logical[1, 0] = True
        snap = snapshot_from(
            [[0, 0], [5, 0], [50, 0], [55, 0]], logical, [10.0] * 4
        )
        assert largest_effective_component(snap) == pytest.approx(0.5)


class TestPairwiseRatio:
    def test_fully_connected(self, line_snapshot):
        assert pairwise_connectivity_ratio(line_snapshot) == 1.0

    def test_directed_chain_ratio(self):
        # 0 -> 1 -> 2 only (each node selects the next, ranges reach it).
        logical = np.array(
            [[False, True, False], [False, False, True], [False, False, False]]
        )
        snap = snapshot_from(
            [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]], logical, [10.0, 10.0, 0.0]
        )
        # ordered reachable pairs: (0,1), (0,2), (1,2) of 6.
        assert pairwise_connectivity_ratio(snap) == pytest.approx(0.5)

    def test_isolated_nodes_zero(self):
        logical = np.zeros((3, 3), dtype=bool)
        snap = snapshot_from([[0, 0], [50, 0], [100, 0]], logical, [0.0] * 3)
        assert pairwise_connectivity_ratio(snap) == 0.0


class TestTopologyPredicates:
    def test_logical_topology_connected_union_semantics(self):
        # Only one direction selected still counts as a logical link.
        logical = np.array([[False, True], [False, False]])
        snap = snapshot_from([[0, 0], [5, 0]], logical, [5.0, 0.0])
        assert logical_topology_connected(snap)

    def test_original_topology_connected(self):
        snap = snapshot_from(
            [[0, 0], [50, 0]], np.zeros((2, 2), dtype=bool), [0.0, 0.0],
            normal_range=60.0,
        )
        assert original_topology_connected(snap)

    def test_original_topology_disconnected(self):
        snap = snapshot_from(
            [[0, 0], [500, 0]], np.zeros((2, 2), dtype=bool), [0.0, 0.0],
            normal_range=60.0,
        )
        assert not original_topology_connected(snap)


class TestSampleTopology:
    def test_means(self, line_snapshot):
        sample = sample_topology(line_snapshot)
        assert sample.mean_actual_range == pytest.approx(10.0)
        assert sample.mean_logical_degree == pytest.approx(4 / 3)
        assert sample.max_extended_range == 10.0

    def test_physical_degree_counts_in_range(self, line_snapshot):
        sample = sample_topology(line_snapshot)
        # node 0 hears 1; node 1 hears 0 and 2; node 2 hears 1.
        assert sample.mean_physical_degree == pytest.approx(4 / 3)

    def test_time_recorded(self, line_snapshot):
        assert sample_topology(line_snapshot).time == 0.0
