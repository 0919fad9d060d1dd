"""Tests for interference and spanner-stretch metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.csr import CSRGraph
from repro.geometry.graphs import unit_disk_graph
from repro.metrics.interference import (
    edge_interference,
    graph_interference,
    snapshot_interference,
)
from repro.metrics.spanner import StretchReport, stretch_factors
from repro.sim.world import WorldSnapshot


def snapshot_of(positions, logical, ranges, normal_range=100.0):
    positions = np.asarray(positions, dtype=np.float64)
    ranges = np.asarray(ranges, dtype=np.float64)
    return WorldSnapshot(
        time=0.0, positions=positions,
        logical_csr=CSRGraph.from_dense(logical),
        actual_ranges=ranges, extended_ranges=ranges,
        normal_range=normal_range,
    )


class TestEdgeInterference:
    def test_isolated_edge_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert edge_interference(pts, 0, 1) == 0

    def test_node_inside_coverage_counts(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 3.0]])
        assert edge_interference(pts, 0, 1) == 1

    def test_node_outside_coverage_ignored(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [50.0, 50.0]])
        assert edge_interference(pts, 0, 1) == 0

    def test_endpoints_not_counted(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert edge_interference(pts, 0, 1) == 0

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        # node 2 is exactly d(0,1)=10 from node 1 -> covered
        assert edge_interference(pts, 0, 1) == 1


class TestGraphInterference:
    def test_edgeless(self):
        pts = np.array([[0.0, 0.0], [50.0, 0.0]])
        assert graph_interference(np.zeros((2, 2), dtype=bool), pts) == (0, 0.0)

    def test_shorter_links_interfere_less(self, rng):
        pts = rng.random((20, 2)) * 100
        full = unit_disk_graph(pts, 200.0)  # long links everywhere
        from repro.geometry.graphs import euclidean_mst

        sparse = euclidean_mst(pts)  # short links only
        max_full, mean_full = graph_interference(full, pts)
        max_sparse, mean_sparse = graph_interference(sparse, pts)
        assert mean_sparse <= mean_full
        assert max_sparse <= max_full

    def test_snapshot_wrapper(self):
        logical = np.array([[False, True], [True, False]])
        snap = snapshot_of([[0.0, 0.0], [5.0, 0.0]], logical, [10.0, 10.0])
        max_i, mean_i = snapshot_interference(snap)
        assert max_i == 0 and mean_i == 0.0


class TestStretchFactors:
    def _line(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        full = unit_disk_graph(pts, 25.0)  # includes the 20 m chord
        chain = np.zeros((3, 3), dtype=bool)
        chain[0, 1] = chain[1, 0] = chain[1, 2] = chain[2, 1] = True
        return pts, full, chain

    def test_identity_stretch_one(self):
        pts, full, _ = self._line()
        report = stretch_factors(full, full, pts)
        assert report.max_stretch == pytest.approx(1.0)
        assert report.disconnected_pairs == 0

    def test_chain_distance_stretch_one(self):
        # Removing the chord does not lengthen any shortest path here
        # (10 + 10 = 20): distance stretch 1.
        pts, full, chain = self._line()
        report = stretch_factors(chain, full, pts)
        assert report.max_stretch == pytest.approx(1.0)

    def test_detour_increases_stretch(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0]])
        full = unit_disk_graph(pts, 20.0)
        detour = np.zeros((3, 3), dtype=bool)
        detour[0, 2] = detour[2, 0] = detour[2, 1] = detour[1, 2] = True
        report = stretch_factors(detour, full, pts)
        expected = 2 * math.hypot(5, 5) / 10.0
        assert report.max_stretch == pytest.approx(expected)

    def test_energy_stretch_le_one_for_spt(self, rng):
        # The SPT construction preserves minimum-energy paths: energy
        # stretch of its selection must be 1.
        from repro.geometry.graphs import is_connected
        from repro.protocols import Spt2Protocol
        from conftest import make_view

        pts = rng.random((15, 2)) * 150
        normal = 120.0
        full = unit_disk_graph(pts, normal)
        if not is_connected(full):
            pytest.skip("disconnected")
        adj = np.zeros((15, 15), dtype=bool)
        proto = Spt2Protocol()
        for owner in range(15):
            members = {owner: tuple(pts[owner])}
            for other in range(15):
                d = math.hypot(*(pts[other] - pts[owner]))
                if other != owner and d <= normal:
                    members[other] = tuple(pts[other])
            view = make_view(owner, members, normal_range=normal)
            for v in proto.select(view).logical_neighbors:
                adj[owner, v] = True
        report = stretch_factors(adj, full, pts, alpha=2.0)
        assert report.max_stretch == pytest.approx(1.0, abs=1e-9)
        assert report.disconnected_pairs == 0

    def test_partition_reported_not_folded(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        full = unit_disk_graph(pts, 20.0)
        empty = np.zeros((2, 2), dtype=bool)
        report = stretch_factors(empty, full, pts)
        assert report.disconnected_pairs == 1
        assert math.isinf(report.max_stretch)

    def test_report_is_dataclass(self):
        report = StretchReport(1.0, 1.0, 0)
        assert report.mean_stretch == 1.0
