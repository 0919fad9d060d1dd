"""Tests for repro.sim.world: Hello protocol wiring and snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import (
    BaselineConsistency,
    ProactiveConsistency,
    ReactiveConsistency,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.geometry.points import pairwise_distances
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.world import NetworkWorld
from repro.util.errors import ConfigurationError
from repro.util.randomness import SeedSequenceFactory


def small_config(**overrides):
    base = dict(
        n_nodes=12,
        area=Area(300.0, 300.0),
        normal_range=150.0,
        duration=8.0,
        sample_rate=2.0,
        warmup=2.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def make_world(mechanism=None, speed=5.0, seed=3, buffer=0.0, **cfg_overrides):
    cfg = small_config(**cfg_overrides)
    seeds = SeedSequenceFactory(seed)
    if speed == 0.0:
        mobility = StaticPlacement(cfg.area, cfg.n_nodes, cfg.duration, rng=seeds.rng("m"))
    else:
        mobility = RandomWaypoint(
            cfg.area, cfg.n_nodes, cfg.duration, mean_speed=speed, rng=seeds.rng("m")
        )
    manager = MobilitySensitiveTopologyControl(
        RngProtocol(),
        mechanism=mechanism or BaselineConsistency(),
        buffer_policy=BufferZonePolicy(width=buffer, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed)


class TestConstruction:
    def test_rejects_node_count_mismatch(self):
        cfg = small_config()
        mobility = StaticPlacement(cfg.area, 5, cfg.duration, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            NetworkWorld(cfg, mobility, MobilitySensitiveTopologyControl(RngProtocol()))

    def test_rejects_short_horizon(self):
        cfg = small_config()
        mobility = StaticPlacement(cfg.area, cfg.n_nodes, 1.0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            NetworkWorld(cfg, mobility, MobilitySensitiveTopologyControl(RngProtocol()))


class TestHelloProtocol:
    def test_all_nodes_send_hellos(self):
        world = make_world()
        world.run_until(4.0)
        assert all(node.hellos_sent >= 2 for node in world.nodes)

    def test_hello_rate_matches_interval(self):
        world = make_world()
        world.run_until(8.0)
        for node in world.nodes:
            # interval in [0.75, 1.25] => 6..11 hellos in 8 s.
            assert 5 <= node.hellos_sent <= 12

    def test_tables_fill_with_neighbor_records(self):
        world = make_world(speed=0.0)
        world.run_until(3.0)
        snap = world.snapshot()
        original = snap.original_csr().to_dense()
        for node in world.nodes:
            expected = set(np.flatnonzero(original[node.node_id]))
            assert set(node.table.known_neighbors(world.engine.now)) == expected

    def test_decisions_made_after_first_hello(self):
        world = make_world()
        world.run_until(2.0)
        assert all(node.decision is not None for node in world.nodes)

    def test_versions_increment(self):
        world = make_world()
        world.run_until(5.0)
        node = world.nodes[0]
        assert node.next_version == node.hellos_sent + 1

    def test_channel_counts_hellos(self):
        world = make_world()
        world.run_until(4.0)
        total = sum(node.hellos_sent for node in world.nodes)
        assert world.channel.stats.hello_messages == total


class TestProactiveSchedule:
    def test_versions_are_epoch_aligned(self):
        world = make_world(mechanism=ProactiveConsistency())
        world.run_until(5.0)
        # All nodes must be within one version of each other.
        versions = [node.next_version for node in world.nodes]
        assert max(versions) - min(versions) <= 1

    def test_hellos_cluster_at_epoch_boundaries(self):
        world = make_world(mechanism=ProactiveConsistency())
        world.run_until(3.5)
        # Each node has sent one hello per epoch boundary crossed; clock
        # skew can add the epoch-0 boundary for nodes with negative offset.
        for node in world.nodes:
            assert 3 <= node.hellos_sent <= 4


class TestReactiveSchedule:
    def test_rounds_produce_synchronized_versions(self):
        world = make_world(mechanism=ReactiveConsistency())
        world.run_until(4.0)
        versions = [node.next_version for node in world.nodes]
        assert len(set(versions)) == 1

    def test_sync_overhead_counted(self):
        world = make_world(mechanism=ReactiveConsistency())
        world.run_until(4.0)
        # one flood of n forwards per round
        assert world.channel.stats.sync_messages >= 4 * 12

    def test_decisions_use_round_version(self):
        world = make_world(mechanism=ReactiveConsistency(), speed=0.0)
        world.run_until(4.0)
        assert all(node.decision is not None for node in world.nodes)


class TestSnapshot:
    def test_snapshot_shapes(self):
        world = make_world()
        world.run_until(3.0)
        snap = world.snapshot()
        n = 12
        assert snap.positions.shape == (n, 2)
        assert pairwise_distances(snap.positions).shape == (n, n)
        assert snap.logical_csr.to_dense().shape == (n, n)
        assert snap.extended_ranges.shape == (n,)

    def test_snapshot_future_rejected(self):
        world = make_world()
        world.run_until(2.0)
        with pytest.raises(ConfigurationError):
            world.snapshot(5.0)

    def test_snapshot_past_rejected(self):
        # Only the decisions in force now are kept: a past instant would
        # pair its positions with decisions made after it.
        world = make_world()
        world.run_until(3.0)
        with pytest.raises(ConfigurationError):
            world.snapshot(2.0)
        assert world.snapshot(3.0).time == world.snapshot().time == 3.0

    def test_extended_ranges_include_buffer(self):
        world = make_world(buffer=10.0)
        world.run_until(3.0)
        snap = world.snapshot()
        active = snap.actual_ranges > 0
        assert np.allclose(
            snap.extended_ranges[active],
            np.minimum(snap.actual_ranges[active] + 10.0, 150.0),
        )

    def test_in_range_is_directed(self):
        world = make_world()
        world.run_until(3.0)
        snap = world.snapshot()
        mask = snap.in_range_csr().to_dense()
        assert mask.shape == (12, 12)
        assert not mask.diagonal().any()

    def test_effective_directed_respects_logical_filter(self):
        world = make_world()
        world.run_until(3.0)
        snap = world.snapshot()
        filtered = snap.effective_directed_csr(physical_neighbor_mode=False).to_dense()
        pn = snap.effective_directed_csr(physical_neighbor_mode=True).to_dense()
        assert not (filtered & ~pn).any()  # PN mode accepts a superset

    def test_static_consistent_world_logical_matches_protocol(self):
        # On a static network the snapshot's logical degrees are stable
        # between consecutive samples once tables are warm.
        world = make_world(speed=0.0)
        world.run_until(4.0)
        a = world.snapshot().logical_csr.to_dense()
        world.run_until(6.0)
        b = world.snapshot().logical_csr.to_dense()
        assert np.array_equal(a, b)

    def test_original_topology_symmetric(self):
        world = make_world()
        world.run_until(2.0)
        orig = world.snapshot().original_csr().to_dense()
        assert np.array_equal(orig, orig.T)


class TestRedecideAll:
    def test_updates_packet_decision_counters(self):
        world = make_world()
        world.run_until(3.0)
        world.redecide_all()
        assert all(node.packet_decisions >= 1 for node in world.nodes)

    def test_decisions_timestamped_now(self):
        world = make_world()
        world.run_until(3.0)
        world.redecide_all()
        assert all(node.decision.decided_at == world.engine.now for node in world.nodes)


class TestDeterminism:
    def test_same_seed_same_world_evolution(self):
        a = make_world(seed=11)
        b = make_world(seed=11)
        a.run_until(5.0)
        b.run_until(5.0)
        sa, sb = a.snapshot(), b.snapshot()
        assert np.allclose(sa.positions, sb.positions)
        assert np.array_equal(sa.logical_csr.to_dense(), sb.logical_csr.to_dense())
        assert np.allclose(sa.extended_ranges, sb.extended_ranges)

    def test_different_seed_differs(self):
        a = make_world(seed=11)
        b = make_world(seed=12)
        a.run_until(5.0)
        b.run_until(5.0)
        assert not np.allclose(a.snapshot().positions, b.snapshot().positions)
