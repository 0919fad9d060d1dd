"""Deep behavioral tests of the Hello protocol under each mechanism.

These pin down the *semantics* the paper's correctness arguments rely on:
what information a node actually has when it decides, how stale it can be,
and how the mechanisms change that.
"""

from __future__ import annotations

import numpy as np
import pytest

from neighbor_oracles import available_versions, history_of, multi_view, versioned_view
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import (
    BaselineConsistency,
    ProactiveConsistency,
    ViewSynchronization,
    WeakConsistency,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood
from repro.sim.world import NetworkWorld
from repro.util.randomness import SeedSequenceFactory


def build(mechanism=None, speed=10.0, seed=3, n=15, history_depth=3, **cfg_extra):
    cfg = ScenarioConfig(
        n_nodes=n,
        area=Area(350.0, 350.0),
        normal_range=200.0,
        duration=10.0,
        warmup=2.0,
        sample_rate=1.0,
        history_depth=history_depth,
        **cfg_extra,
    )
    seeds = SeedSequenceFactory(seed)
    mobility = (
        StaticPlacement(cfg.area, n, cfg.duration, rng=seeds.rng("m"))
        if speed == 0
        else RandomWaypoint(cfg.area, n, cfg.duration, speed, rng=seeds.rng("m"))
    )
    manager = MobilitySensitiveTopologyControl(
        RngProtocol(),
        mechanism=mechanism or BaselineConsistency(),
        buffer_policy=BufferZonePolicy(width=10.0, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed)


class TestInformationStaleness:
    def test_received_hello_positions_are_send_time_positions(self):
        world = build(speed=40.0)
        world.run_until(5.0)
        for node in world.nodes:
            for nbr in node.table.known_neighbors(world.engine.now):
                for hello in history_of(node.table, nbr):
                    true_then = world.mobility.position(nbr, hello.sent_at)
                    assert np.allclose(hello.position, true_then, atol=1e-9)

    def test_hello_age_bounded_by_expiry(self):
        world = build(speed=5.0)
        world.run_until(8.0)
        now = world.engine.now
        for node in world.nodes:
            for nbr in node.table.known_neighbors(now):
                latest = history_of(node.table, nbr)[-1]
                assert now - latest.sent_at <= world.config.hello_expiry + 1e-9

    def test_history_depth_respected(self):
        world = build(history_depth=2)
        world.run_until(9.0)
        for node in world.nodes:
            for nbr in node.table.known_neighbors():
                assert len(history_of(node.table, nbr)) <= 2

    def test_versions_strictly_increase_per_sender(self):
        world = build()
        world.run_until(8.0)
        for node in world.nodes:
            for nbr in node.table.known_neighbors():
                versions = [h.version for h in history_of(node.table, nbr)]
                assert versions == sorted(versions)
                assert len(set(versions)) == len(versions)


class TestDecisionTiming:
    def test_baseline_decides_at_own_hello_times_only(self):
        world = build()
        world.run_until(6.0)
        for node in world.nodes:
            if node.decision is None:
                continue
            # The standing decision was made when the node last sent a
            # Hello — never in between (no packet recomputation).
            assert node.packet_decisions == 0

    def test_view_sync_decides_at_flood_times(self):
        world = build(mechanism=ViewSynchronization())
        world.run_until(6.0)
        flood(world, source=0)
        t = world.engine.now
        for node in world.nodes:
            assert node.decision is not None and node.decision.decided_at == t

    def test_decisions_never_use_future_information(self):
        world = build(speed=20.0)
        world.run_until(7.0)
        for node in world.nodes:
            if node.decision is None:
                continue
            for nbr in node.table.known_neighbors():
                for hello in history_of(node.table, nbr):
                    assert hello.sent_at <= world.engine.now + 1e-9


class TestProactiveSemantics:
    def test_versioned_views_hold_single_version(self):
        world = build(mechanism=ProactiveConsistency(), speed=5.0)
        world.run_until(6.0)
        node = world.nodes[0]
        versions = sorted(available_versions(node.table))
        v = versions[-2] if len(versions) > 1 else versions[-1]
        view = versioned_view(node.table, world.engine.now, v)
        for nid in view.members:
            assert view.hello_of(nid).version == v

    def test_complete_version_contains_all_current_neighbors(self):
        world = build(mechanism=ProactiveConsistency(), speed=0.0)
        world.run_until(6.0)
        node = world.nodes[0]
        versions = sorted(available_versions(node.table))
        complete = versions[-2]
        view = versioned_view(node.table, world.engine.now, complete)
        # On a static network the version-complete view matches the live set.
        live = set(node.table.known_neighbors(world.engine.now))
        assert set(view.neighbor_hellos) == live


class TestWeakSemantics:
    def test_weak_decisions_monotone_in_history(self):
        """More retained versions can only make selection more conservative
        on the same world trajectory."""
        conn = {}
        degree = {}
        for k in (1, 3):
            world = build(mechanism=WeakConsistency(), speed=20.0, history_depth=k)
            world.run_until(8.0)
            snap = world.snapshot()
            degree[k] = float(snap.logical_degrees().mean())
            conn[k] = flood(world, source=0).delivery_ratio
        assert degree[3] >= degree[1] - 1e-9

    def test_weak_range_covers_every_position_known_at_decision_time(self):
        world = build(mechanism=WeakConsistency(), speed=20.0)
        world.run_until(8.0)
        prop = world.config.propagation_delay
        for node in world.nodes:
            decision = node.decision
            if decision is None:
                continue
            own = multi_view(node.table, world.engine.now)
            known = lambda h: h.sent_at + prop <= decision.decided_at + 1e-12
            for nbr in decision.logical_neighbors:
                if nbr not in own:
                    continue
                for own_h in filter(known, own.hellos_of(node.node_id)):
                    for nbr_h in filter(known, own.hellos_of(nbr)):
                        assert (
                            own_h.distance_to(nbr_h)
                            <= decision.actual_range + 1e-6
                        )


class TestChannelAccounting:
    def test_every_delivery_is_counted(self):
        world = build(speed=0.0)
        world.run_until(6.0)
        recorded = sum(node.table.hellos_received for node in world.nodes)
        assert world.channel.stats.deliveries == recorded

    def test_loss_reduces_deliveries(self):
        lossless = build(speed=0.0, seed=9)
        lossless.run_until(8.0)
        lossy = build(speed=0.0, seed=9, hello_loss_rate=0.4)
        lossy.run_until(8.0)
        assert (
            lossy.channel.stats.deliveries < lossless.channel.stats.deliveries
        )
        assert lossy.channel.stats.hello_losses > 0
