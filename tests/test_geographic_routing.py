"""Tests for repro.routing.geographic: GFG/GPSR over effective topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.graphs import is_connected, unit_disk_graph
from repro.routing.geographic import GeographicRouter, gabriel_planarise


def grid_positions(rows, cols, spacing=10.0):
    pts = [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    return np.asarray(pts, dtype=np.float64)


class TestGabrielPlanarise:
    def test_removes_crossing_diagonals(self):
        # Square + center, complete graph: the center sits strictly inside
        # each diagonal's diametral disk, so both crossing diagonals go;
        # the sides stay (the center is exactly ON their diametral circle).
        pts = np.array(
            [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [5.0, 5.0]]
        )
        adj = np.ones((5, 5), dtype=bool) & ~np.eye(5, dtype=bool)
        planar = gabriel_planarise(adj, pts)
        assert not planar[0, 2] and not planar[1, 3]
        assert planar[0, 1] and planar[1, 2] and planar[2, 3] and planar[3, 0]

    def test_subset_of_input(self, rng):
        pts = rng.random((20, 2)) * 100
        adj = unit_disk_graph(pts, 40.0)
        planar = gabriel_planarise(adj, pts)
        assert not (planar & ~adj).any()

    def test_preserves_connectivity(self, rng):
        pts = rng.random((25, 2)) * 100
        adj = unit_disk_graph(pts, 45.0)
        if not is_connected(adj):
            pytest.skip("disconnected input")
        assert is_connected(gabriel_planarise(adj, pts))

    def test_witness_must_be_common_neighbor(self):
        # A node inside the diametral disk but adjacent to neither
        # endpoint cannot remove the edge (local planarisation rule).
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 1.0]])
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        planar = gabriel_planarise(adj, pts)
        assert planar[0, 1]


class TestGreedyRouting:
    def test_direct_neighbor(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        adj = np.array([[False, True], [True, False]])
        result = GeographicRouter(adj, pts).route(0, 1)
        assert result.delivered and result.path == (0, 1)
        assert result.greedy_hops == 1 and result.perimeter_hops == 0

    def test_straight_chain(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        adj = unit_disk_graph(pts, 12.0)
        result = GeographicRouter(adj, pts).route(0, 3)
        assert result.delivered
        assert result.path == (0, 1, 2, 3)

    def test_source_is_destination(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        adj = unit_disk_graph(pts, 10.0)
        result = GeographicRouter(adj, pts).route(1, 1)
        assert result.delivered and result.hops == 0

    def test_grid_routing_full_pairwise(self):
        pts = grid_positions(4, 4)
        adj = unit_disk_graph(pts, 15.0)  # 4-neighborhood + diagonals
        router = GeographicRouter(adj, pts)
        for s in range(16):
            for d in range(16):
                assert router.route(s, d).delivered

    def test_invalid_nodes(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        adj = unit_disk_graph(pts, 10.0)
        with pytest.raises(ValueError):
            GeographicRouter(adj, pts).route(0, 7)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            GeographicRouter(np.zeros((2, 2), dtype=bool), np.zeros((3, 2)))


class TestPerimeterRecovery:
    def _void_topology(self):
        """A C-shaped wall: greedy from the left tip dead-ends; only face
        routing gets around the void."""
        pts = np.array([
            [0.0, 0.0],    # 0 source
            [10.0, 10.0],  # 1 upper wall
            [10.0, -10.0], # 2 lower wall
            [20.0, 14.0],  # 3
            [20.0, -14.0], # 4
            [30.0, 10.0],  # 5
            [30.0, -10.0], # 6
            [40.0, 0.0],   # 7 destination (behind the void)
        ])
        adj = np.zeros((8, 8), dtype=bool)
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)]
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        return pts, adj

    def test_routes_around_void(self):
        pts, adj = self._void_topology()
        result = GeographicRouter(adj, pts).route(0, 7)
        assert result.delivered
        assert result.hops >= 4

    def test_perimeter_mode_engaged_when_greedy_stuck(self):
        # Source's only neighbors are both FARTHER from the destination.
        pts = np.array([
            [20.0, 0.0],   # 0 source (local minimum towards dest at x=40)
            [10.0, 15.0],  # 1
            [10.0, -15.0], # 2
            [25.0, 25.0],  # 3
            [25.0, -25.0], # 4
            [40.0, 0.1],   # 5 destination
        ])
        adj = np.zeros((6, 6), dtype=bool)
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]:
            adj[u, v] = adj[v, u] = True
        result = GeographicRouter(adj, pts).route(0, 5)
        assert result.delivered
        assert result.perimeter_hops >= 1

    def test_unreachable_component_not_delivered(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        result = GeographicRouter(adj, pts).route(0, 2)
        assert not result.delivered

    def test_ttl_terminates(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        result = GeographicRouter(adj, pts, max_hops=3).route(0, 2)
        assert result.hops <= 3


class TestOnEffectiveTopology:
    """GFG over the simulator's snapshots — the integration the paper's
    mobility-tolerant story promises."""

    def _snapshot(self, mechanism="view-sync", buffer=30.0, seed=0):
        from repro.analysis.experiment import ExperimentSpec, build_world
        from repro.mobility.base import Area
        from repro.sim.config import ScenarioConfig

        cfg = ScenarioConfig(
            n_nodes=30, area=Area(493.0, 493.0), normal_range=250.0,
            duration=8.0, warmup=2.0, sample_rate=1.0,
        )
        spec = ExperimentSpec(
            protocol="gabriel", mechanism=mechanism, buffer_width=buffer,
            mean_speed=10.0, config=cfg,
        )
        world = build_world(spec, seed=seed)
        world.run_until(6.0)
        return world.snapshot()

    def test_unicast_works_on_maintained_topology(self):
        snap = self._snapshot()
        adj = snap.effective_bidirectional_csr().to_dense()
        if not is_connected(adj):
            pytest.skip("snapshot disconnected for this seed")
        router = GeographicRouter(adj, snap.positions)
        results = router.route_many([(0, 29), (5, 20), (12, 3)])
        assert all(r.delivered for r in results)

    def test_gabriel_topology_is_its_own_planarisation(self):
        # Gabriel-protocol logical topologies satisfy the Gabriel
        # condition by construction — face routing needs no extra pruning.
        snap = self._snapshot()
        logical = snap.logical_csr.to_dense()
        adj = logical & logical.T
        planar = gabriel_planarise(adj, snap.positions)
        # planarisation removes (almost) nothing: allow asymmetric
        # decisions at the mobility boundary.
        removed = (adj & ~planar).sum()
        assert removed <= 0.1 * max(adj.sum(), 1)
