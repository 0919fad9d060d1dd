"""Tests for the enclosure protocol, composite protocols, and the
fast-path (batched/rank) removal predicates' exact equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import interval_graph, make_multi_view, make_view
from repro.core.costs import DistanceCost, EnergyCost
from repro.core.framework import (
    LocalCostGraph,
    mst_removable,
    mst_removable_batch,
    rng_removable,
    spt_removable,
    spt_removable_batch,
)
from repro.geometry.graphs import is_connected, unit_disk_graph
from repro.protocols import (
    CompositeProtocol,
    EnclosureProtocol,
    GabrielProtocol,
    MstProtocol,
    RngProtocol,
    Spt2Protocol,
    Spt4Protocol,
    YaoProtocol,
)
from repro.util.errors import ProtocolError

NORMAL = 120.0


def consistent_views(points, normal_range=NORMAL):
    views = []
    for owner in range(len(points)):
        members = {owner: tuple(points[owner])}
        for other in range(len(points)):
            d = math.hypot(*(points[other] - points[owner]))
            if other != owner and d <= normal_range:
                members[other] = tuple(points[other])
        views.append(make_view(owner, members, normal_range=normal_range))
    return views


def union(protocol, views, n):
    adj = np.zeros((n, n), dtype=bool)
    for view in views:
        for v in protocol.select(view).logical_neighbors:
            adj[view.owner, v] = True
    return adj


@pytest.fixture
def cloud(rng):
    return rng.random((18, 2)) * 180


class TestEnclosureProtocol:
    def test_supergraph_of_spt4(self, cloud):
        views = consistent_views(cloud)
        enc = union(EnclosureProtocol(alpha=4.0), views, len(cloud))
        spt = union(Spt4Protocol(), views, len(cloud))
        assert not (spt & ~enc).any()

    def test_preserves_connectivity(self, cloud):
        if not is_connected(unit_disk_graph(cloud, NORMAL)):
            pytest.skip("disconnected")
        views = consistent_views(cloud)
        assert is_connected(union(EnclosureProtocol(), views, len(cloud)))

    def test_receiver_cost_keeps_more_links(self, cloud):
        views = consistent_views(cloud)
        cheap_relay = union(EnclosureProtocol(alpha=2.0), views, len(cloud)).sum()
        costly_relay = union(
            EnclosureProtocol(alpha=2.0, receiver_cost=500.0), views, len(cloud)
        ).sum()
        assert costly_relay >= cheap_relay

    def test_conservative_mode_supported(self):
        view = make_multi_view(0, {0: [(0, 0)], 1: [(10, 0), (4, 0)], 2: [(5, 0)]})
        result = EnclosureProtocol(alpha=2.0).select_conservative(view)
        assert result.owner == 0

    def test_three_collinear_removes_long_link(self):
        # Relay through the midpoint halves the energy (alpha = 2).
        view = make_view(0, {0: (0, 0), 1: (10, 0), 2: (5, 0)})
        result = EnclosureProtocol(alpha=2.0).select(view)
        assert result.logical_neighbors == frozenset({2})


class TestCompositeProtocol:
    def test_intersection_of_selections(self, cloud):
        views = consistent_views(cloud)
        combo = CompositeProtocol([RngProtocol(), Spt2Protocol()])
        for view in views:
            merged = combo.select(view).logical_neighbors
            a = RngProtocol().select(view).logical_neighbors
            b = Spt2Protocol().select(view).logical_neighbors
            assert merged == (a & b)

    def test_preserves_connectivity(self, cloud):
        if not is_connected(unit_disk_graph(cloud, NORMAL)):
            pytest.skip("disconnected")
        views = consistent_views(cloud)
        combo = CompositeProtocol([RngProtocol(), Spt2Protocol(), GabrielProtocol()])
        assert is_connected(union(combo, views, len(cloud)))

    def test_range_covers_farthest_survivor(self, cloud):
        combo = CompositeProtocol([RngProtocol(), Spt4Protocol()])
        for view in consistent_views(cloud)[:5]:
            result = combo.select(view)
            for v in result.logical_neighbors:
                assert (
                    view.own_hello.distance_to(view.hello_of(v))
                    <= result.actual_range + 1e-9
                )

    def test_name_concatenates(self):
        assert CompositeProtocol([MstProtocol(), RngProtocol()]).name == "mst&rng"

    def test_conservative_requires_all_constituents(self):
        combo = CompositeProtocol([RngProtocol(), YaoProtocol()])
        assert not combo.supports_conservative
        view = make_multi_view(0, {0: [(0, 0)], 1: [(5, 0)]})
        with pytest.raises(ProtocolError):
            combo.select_conservative(view)

    def test_conservative_with_condition_protocols(self):
        combo = CompositeProtocol([RngProtocol(), MstProtocol()])
        view = make_multi_view(0, {0: [(0, 0)], 1: [(10, 0), (4, 0)], 2: [(5, 1)]})
        result = combo.select_conservative(view)
        assert result.owner == 0

    def test_empty_constituents_rejected(self):
        with pytest.raises(ProtocolError):
            CompositeProtocol([])


class TestFastPathEquivalence:
    """The rank/batched predicates must match the reference tuple-key
    semantics exactly, including ID tie-breaks on degenerate inputs."""

    def _graphs(self, rng, n_trials=60):
        for trial in range(n_trials):
            n = int(rng.integers(2, 12))
            if trial % 3 == 0:
                # grid positions: many exact cost ties
                pts = {
                    i: (float(i % 3) * 10.0, float(i // 3) * 10.0) for i in range(n)
                }
            else:
                pts = {i: tuple(rng.random(2) * 70) for i in range(n)}
            for model in (DistanceCost(), EnergyCost(alpha=2)):
                yield LocalCostGraph.from_local_view(
                    make_view(0, pts, normal_range=60.0), model
                )

    def test_spt_batch_matches_per_edge(self, rng):
        for graph in self._graphs(rng):
            batch = spt_removable_batch(graph)
            for j, verdict in batch.items():
                assert verdict == spt_removable(graph, 0, j)

    def test_mst_batch_matches_per_edge(self, rng):
        for graph in self._graphs(rng):
            batch = mst_removable_batch(graph)
            for j, verdict in batch.items():
                assert verdict == mst_removable(graph, 0, j)

    def test_mst_batch_interval_fallback_matches(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            hist = {
                i: [tuple(rng.random(2) * 60), tuple(rng.random(2) * 60)]
                for i in range(n)
            }
            view = make_multi_view(0, hist, normal_range=70.0)
            graph = interval_graph(view)
            batch = mst_removable_batch(graph)
            for j, verdict in batch.items():
                assert verdict == mst_removable(graph, 0, j)

    def test_rank_order_matches_key_order(self, rng):
        for graph in self._graphs(rng, n_trials=20):
            m = graph.size
            for i in range(m):
                for j in range(i + 1, m):
                    for a in range(m):
                        for b in range(a + 1, m):
                            assert (
                                (graph.rank_high[i, j] < graph.rank_low[a, b])
                                == (graph.key_high(i, j) < graph.key_low(a, b))
                            )

    def test_rng_tie_break_on_grid(self):
        # Equidistant witnesses: removal must follow the ID tie-break
        # deterministically (no crash, stable output).
        pts = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (5.0, 5.0), 3: (5.0, -5.0)}
        view = make_view(0, pts, normal_range=50.0)
        a = RngProtocol().select(view).logical_neighbors
        b = RngProtocol().select(view).logical_neighbors
        assert a == b
