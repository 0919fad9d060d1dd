"""Tests for repro.sim.flood: BFS probes and Theorem 5 integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer_zone import BufferZonePolicy, buffer_width
from repro.core.consistency import ProactiveConsistency, ViewSynchronization
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.geometry.points import pairwise_distances
from repro.metrics.connectivity import pairwise_connectivity_ratio
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.protocols import MstProtocol, RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import FloodResult, directed_bfs, flood
from repro.sim.world import NetworkWorld
from repro.util.randomness import SeedSequenceFactory


def build_world(protocol=None, mechanism=None, buffer=0.0, speed=5.0, seed=5, n=14):
    cfg = ScenarioConfig(
        n_nodes=n,
        area=Area(300.0, 300.0),
        normal_range=150.0,
        duration=10.0,
        warmup=2.0,
        sample_rate=2.0,
    )
    seeds = SeedSequenceFactory(seed)
    if speed == 0:
        mobility = StaticPlacement(cfg.area, n, cfg.duration, rng=seeds.rng("m"))
    else:
        mobility = RandomWaypoint(cfg.area, n, cfg.duration, speed, rng=seeds.rng("m"))
    manager = MobilitySensitiveTopologyControl(
        protocol or RngProtocol(),
        mechanism=mechanism,
        buffer_policy=BufferZonePolicy(width=buffer, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed)


class TestDirectedBfs:
    def test_reaches_along_directed_edges_only(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True  # 0 -> 1 only
        adj[2, 1] = True
        reached = directed_bfs(adj, 0)
        assert reached.tolist() == [True, True, False]

    def test_source_always_reached(self):
        assert directed_bfs(np.zeros((4, 4), dtype=bool), 2)[2]

    def test_chain(self):
        adj = np.zeros((5, 5), dtype=bool)
        for i in range(4):
            adj[i, i + 1] = True
        assert directed_bfs(adj, 0).all()
        assert directed_bfs(adj, 4).sum() == 1

    def test_cycle(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True
        assert directed_bfs(adj, 1).all()


class TestFloodResult:
    def test_delivery_ratio_excludes_source(self):
        reached = np.array([True, True, False, False])
        result = FloodResult(source=0, reached=reached, transmissions=2)
        assert result.delivery_ratio == pytest.approx(1 / 3)

    def test_full_coverage_is_one(self):
        reached = np.ones(5, dtype=bool)
        assert FloodResult(0, reached, 5).delivery_ratio == 1.0

    def test_single_node_network(self):
        assert FloodResult(0, np.array([True]), 1).delivery_ratio == 1.0


class TestFloodInWorld:
    def test_static_dense_network_full_delivery(self):
        # seed 0 gives a connected original topology; on a static network a
        # connectivity-preserving protocol must then deliver to everyone.
        world = build_world(speed=0.0, seed=0)
        world.run_until(4.0)
        from repro.metrics.connectivity import original_topology_connected

        assert original_topology_connected(world.snapshot())
        result = flood(world, source=0)
        assert result.delivery_ratio == 1.0

    def test_flood_counts_transmissions(self):
        world = build_world(speed=0.0)
        world.run_until(4.0)
        before = world.channel.stats.data_transmissions
        result = flood(world, source=0)
        assert world.channel.stats.data_transmissions - before == result.transmissions

    def test_delivery_matches_pairwise_reachability_from_source(self):
        world = build_world(speed=10.0)
        world.run_until(6.0)
        result = flood(world, source=3)
        snap = world.snapshot()
        reached = directed_bfs(snap.effective_directed_csr(False).to_dense(), 3)
        assert np.array_equal(result.reached, reached)

    def test_physical_neighbor_mode_reaches_at_least_as_many(self):
        world = build_world(speed=20.0)
        world.run_until(6.0)
        strict = flood(world, source=0, physical_neighbor_mode=False)
        pn = flood(world, source=0, physical_neighbor_mode=True)
        assert pn.reached.sum() >= strict.reached.sum()

    def test_view_sync_triggers_redecisions(self):
        world = build_world(mechanism=ViewSynchronization(), speed=10.0)
        world.run_until(4.0)
        flood(world, source=0)
        assert all(node.packet_decisions >= 1 for node in world.nodes)

    def test_proactive_flood_uses_common_version(self):
        world = build_world(mechanism=ProactiveConsistency(), speed=10.0)
        world.run_until(5.0)
        flood(world, source=0)
        # After the packet, all deciding nodes hold decisions from the
        # packet's version epoch — bounded by one interval of each other.
        times = [n.decision.decided_at for n in world.nodes if n.decision]
        assert max(times) - min(times) <= 1e-9


class TestTheorem5Integration:
    """Buffer width l = 2 * Delta'' * v keeps every logical link effective."""

    @pytest.mark.parametrize("speed", [5.0, 20.0])
    def test_worst_case_buffer_covers_all_logical_links(self, speed):
        cfg_expiry = 2.5
        max_interval = 1.25
        # Delta'': oldest usable Hello (expiry) + decision staleness (one
        # full interval until the next refresh).
        delay = cfg_expiry + max_interval
        width = buffer_width(max_speed=2.0 * speed, max_delay=delay)
        world = build_world(protocol=MstProtocol(), buffer=width, speed=speed, seed=7)
        # remove the cap for the theorem check
        world.manager.buffer_policy = BufferZonePolicy(width=width, cap=None)
        violations = 0
        checks = 0
        for t in np.arange(2.0, 10.0, 0.5):
            world.run_until(float(t))
            snap = world.snapshot()
            logical = snap.logical_csr.to_dense()
            dist = pairwise_distances(snap.positions)
            for u in range(snap.n_nodes):
                for v in np.flatnonzero(logical[u]):
                    checks += 1
                    if dist[u, v] > snap.extended_ranges[u] + 1e-9:
                        violations += 1
        assert checks > 0
        assert violations == 0

    def test_without_buffer_links_do_fail(self):
        world = build_world(protocol=MstProtocol(), buffer=0.0, speed=40.0, seed=7)
        failures = 0
        for t in np.arange(2.0, 10.0, 0.5):
            world.run_until(float(t))
            snap = world.snapshot()
            logical = snap.logical_csr.to_dense()
            dist = pairwise_distances(snap.positions)
            for u in range(snap.n_nodes):
                for v in np.flatnonzero(logical[u]):
                    if dist[u, v] > snap.extended_ranges[u] + 1e-9:
                        failures += 1
        assert failures > 0  # mobility really does break uncovered links


class TestConnectivityEstimator:
    def test_mean_flood_delivery_estimates_pairwise_ratio(self):
        # On a frozen snapshot, averaging delivery over all sources equals
        # the exact pairwise connectivity ratio.
        world = build_world(speed=15.0, seed=9)
        world.run_until(6.0)
        snap = world.snapshot()
        adj = snap.effective_directed_csr(False).to_dense()
        n = snap.n_nodes
        ratios = [
            (directed_bfs(adj, s).sum() - 1) / (n - 1) for s in range(n)
        ]
        exact = pairwise_connectivity_ratio(snap)
        assert np.mean(ratios) == pytest.approx(exact, abs=1e-12)
