"""Tests for repro.core.framework: cost graphs and removal conditions."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import interval_graph, make_multi_view, make_view
from repro.core.costs import DistanceCost, EnergyCost
from repro.core.framework import (
    LocalCostGraph,
    SelectionResult,
    apply_removal_condition,
    mst_removable,
    rng_removable,
    rng_removable_batch,
    spt_removable,
)
from repro.util.errors import ProtocolError


def graph_of(positions, normal_range=100.0, cost_model=None, owner=0):
    view = make_view(owner, positions, normal_range=normal_range)
    return LocalCostGraph.from_local_view(view, cost_model or DistanceCost())


class TestLocalCostGraph:
    def test_owner_is_index_zero(self):
        g = graph_of({0: (0, 0), 3: (1, 0), 1: (2, 0)})
        assert g.ids[0] == 0

    def test_adjacency_within_normal_range(self):
        g = graph_of({0: (0, 0), 1: (50, 0), 2: (130, 0)}, normal_range=100.0)
        i, j, k = (g.index[n] for n in (0, 1, 2))
        assert g.adj[i, j] and g.adj[j, k]
        assert not g.adj[i, k]

    def test_costs_match_model(self):
        g = graph_of({0: (0, 0), 1: (3, 0)}, cost_model=EnergyCost(alpha=2))
        assert g.cost_low[0, g.index[1]] == pytest.approx(9.0)

    def test_single_version_bounds_coincide(self):
        g = graph_of({0: (0, 0), 1: (3, 0), 2: (1, 1)})
        assert np.allclose(g.cost_low, g.cost_high)

    def test_multi_version_bounds(self):
        view = make_multi_view(0, {0: [(0, 0)], 1: [(4, 0), (6, 0)]}, normal_range=50.0)
        g = interval_graph(view)
        j = g.index[1]
        assert g.cost_low[0, j] == 4.0
        assert g.cost_high[0, j] == 6.0

    def test_multi_version_conservative_adjacency(self):
        view = make_multi_view(
            0, {0: [(0, 0)], 1: [(90, 0), (150, 0)]}, normal_range=100.0
        )
        g = interval_graph(view)
        assert g.adj[0, g.index[1]]

    def test_key_tie_break_by_ids(self):
        g = graph_of({0: (0, 0), 1: (5, 0), 2: (0, 5)})
        # (0,1) and (0,2) have equal cost 5; keys must differ.
        assert g.key_low(0, g.index[1]) != g.key_low(0, g.index[2])


class TestRngRemovable:
    def test_removes_long_side_of_triangle(self):
        g = graph_of({0: (0, 0), 1: (10, 0), 2: (5, 1)}, normal_range=50.0)
        assert rng_removable(g, 0, g.index[1])
        assert not rng_removable(g, 0, g.index[2])

    def test_witness_must_be_adjacent_to_both(self):
        # Witness beyond normal range of v cannot remove the link.
        g = graph_of({0: (0, 0), 1: (90, 0), 2: (-30, 0)}, normal_range=100.0)
        assert not rng_removable(g, 0, g.index[1])

    def test_no_witness_keeps_edge(self):
        g = graph_of({0: (0, 0), 1: (10, 0)})
        assert not rng_removable(g, 0, g.index[1])


class TestSptRemovable:
    def test_two_hop_energy_path_removes(self):
        # d(u,v)=10 direct energy 100; relay at midpoint: 25+25=50 < 100.
        g = graph_of(
            {0: (0, 0), 1: (10, 0), 2: (5, 0)}, cost_model=EnergyCost(alpha=2)
        )
        assert spt_removable(g, 0, g.index[1])

    def test_linear_cost_never_removes(self):
        # With c = d, triangle inequality means no relay path is shorter.
        g = graph_of({0: (0, 0), 1: (10, 0), 2: (5, 1)})
        assert not spt_removable(g, 0, g.index[1])

    def test_multi_hop_chain_removes(self):
        g = graph_of(
            {0: (0, 0), 1: (30, 0), 2: (10, 0), 3: (20, 0)},
            cost_model=EnergyCost(alpha=2),
        )
        # 3 hops of 10: 300 < 900 direct.
        assert spt_removable(g, 0, g.index[1])

    def test_tie_keeps_link(self):
        # Collinear relay with alpha=1: path cost equals direct cost.
        g = graph_of({0: (0, 0), 1: (10, 0), 2: (5, 0)})
        assert not spt_removable(g, 0, g.index[1])


class TestMstRemovable:
    def test_bottleneck_path_removes(self):
        g = graph_of({0: (0, 0), 1: (10, 0), 2: (5, 1)})
        assert mst_removable(g, 0, g.index[1])

    def test_long_path_with_cheap_links_removes(self):
        g = graph_of({0: (0, 0), 1: (12, 0), 2: (4, 1), 3: (8, 1)}, normal_range=50.0)
        # every hop < 12, so (0,1) is removable under MST but the total
        # path length exceeds the direct distance (SPT keeps it).
        assert mst_removable(g, 0, g.index[1])
        assert not spt_removable(g, 0, g.index[1])

    def test_isolated_edge_kept(self):
        g = graph_of({0: (0, 0), 1: (10, 0)})
        assert not mst_removable(g, 0, g.index[1])

    def test_equilateral_tiebreak_removes_exactly_one_edge_per_node(self):
        # Equal costs: ID tie-break must still produce a connected result.
        import math
        pts = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (5.0, 5.0 * math.sqrt(3))}
        g = graph_of(pts, normal_range=50.0)
        removable = [v for v in (1, 2) if mst_removable(g, 0, g.index[v])]
        # Edge (0,1) has the smallest key, (0,2) loses to (0,1)+(1,2)? both
        # witnesses have equal cost; keys decide: (0,1) < (0,2) < (1,2).
        # (0,2) cannot be removed via (0,1),(1,2) because key(1,2)>key(0,2).
        assert removable == []


class TestConditionStrengthOrdering:
    """Condition 1 (RNG) ⊂ condition 3 (MST); both imply removability
    under condition 3 — i.e. MST removes a superset of RNG's removals."""

    def test_rng_removals_subset_of_mst(self, rng):
        for _ in range(20):
            pts = {i: tuple(rng.random(2) * 60) for i in range(8)}
            g = graph_of(pts, normal_range=100.0)
            for j in np.flatnonzero(g.adj[0]):
                if rng_removable(g, 0, int(j)):
                    assert mst_removable(g, 0, int(j))

    def test_spt_removals_subset_of_mst(self, rng):
        model = EnergyCost(alpha=2)
        for _ in range(20):
            pts = {i: tuple(rng.random(2) * 60) for i in range(8)}
            view = make_view(0, pts, normal_range=100.0)
            g = LocalCostGraph.from_local_view(view, model)
            for j in np.flatnonzero(g.adj[0]):
                if spt_removable(g, 0, int(j)):
                    assert mst_removable(g, 0, int(j))


class TestApplyRemovalCondition:
    def test_returns_survivors_and_range(self):
        g = graph_of({0: (0, 0), 1: (10, 0), 2: (5, 1)})
        result = apply_removal_condition(g, rng_removable)
        assert result.logical_neighbors == frozenset({2})
        assert result.actual_range == pytest.approx(np.hypot(5, 1))

    def test_empty_neighborhood(self):
        g = graph_of({0: (0, 0)})
        result = apply_removal_condition(g, rng_removable)
        assert result.logical_neighbors == frozenset()
        assert result.actual_range == 0.0

    def test_conservative_range_uses_upper_bound(self):
        view = make_multi_view(0, {0: [(0, 0)], 1: [(4, 0), (6, 0)]}, normal_range=50.0)
        g = interval_graph(view)
        result = apply_removal_condition(g, rng_removable)
        assert result.actual_range == pytest.approx(6.0)


class TestSelectionResult:
    def test_self_selection_rejected(self):
        with pytest.raises(ProtocolError):
            SelectionResult(owner=0, logical_neighbors=frozenset({0}), actual_range=1.0)

    def test_negative_range_rejected(self):
        with pytest.raises(ProtocolError):
            SelectionResult(owner=0, logical_neighbors=frozenset(), actual_range=-1.0)

    def test_nan_range_rejected(self):
        with pytest.raises(ProtocolError):
            SelectionResult(owner=0, logical_neighbors=frozenset(), actual_range=float("nan"))


class TestRngBatchKernel:
    """``rng_removable_batch`` must match the per-edge predicate exactly —
    same verdicts, same covered links — on every layout class, including
    the interval graphs where the conservative low/high asymmetry bites."""

    def _oracle(self, g):
        return {
            int(j): rng_removable(g, 0, int(j)) for j in np.flatnonzero(g.adj[0])
        }

    def test_random_layouts(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 14))
            pts = {i: tuple(rng.random(2) * 70) for i in range(n)}
            for model in (DistanceCost(), EnergyCost(alpha=2)):
                view = make_view(0, pts, normal_range=60.0)
                g = LocalCostGraph.from_local_view(view, model)
                assert rng_removable_batch(g) == self._oracle(g)

    def test_collinear_layouts(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            xs = rng.random(n) * 80
            pts = {i: (float(xs[i]), 0.0) for i in range(n)}
            g = graph_of(pts, normal_range=60.0)
            assert rng_removable_batch(g) == self._oracle(g)

    def test_duplicate_positions(self):
        # coincident nodes: zero-cost links, verdicts decided by ID keys
        pts = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 0.0), 3: (0.0, 0.0)}
        g = graph_of(pts, normal_range=60.0)
        assert rng_removable_batch(g) == self._oracle(g)

    def test_grid_tie_layouts(self, rng):
        for n in range(2, 12):
            pts = {i: (float(i % 3) * 10.0, float(i // 3) * 10.0) for i in range(n)}
            g = graph_of(pts, normal_range=60.0)
            assert rng_removable_batch(g) == self._oracle(g)

    def test_interval_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            hist = {
                i: [tuple(rng.random(2) * 60), tuple(rng.random(2) * 60)]
                for i in range(n)
            }
            view = make_multi_view(0, hist, normal_range=70.0)
            g = interval_graph(view)
            assert rng_removable_batch(g) == self._oracle(g)

    def test_empty_neighborhood(self):
        g = graph_of({0: (0.0, 0.0)})
        assert rng_removable_batch(g) == {}

    def test_selection_result_identical_to_per_edge(self, rng):
        # end to end: the batch path of apply_removal_condition yields the
        # same SelectionResult (survivors, range) as the per-edge path
        for _ in range(20):
            n = int(rng.integers(2, 12))
            pts = {i: tuple(rng.random(2) * 70) for i in range(n)}
            g = graph_of(pts, normal_range=60.0)
            batch = apply_removal_condition(g, rng_removable_batch)
            scalar = apply_removal_condition(g, rng_removable)
            assert batch == scalar
