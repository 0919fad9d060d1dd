"""Tests for event-driven unicast traffic and RPGM group mobility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.mobility import Area, ReferencePointGroupMobility
from repro.mobility.base import MobilityModel
from repro.sim.config import ScenarioConfig
from repro.sim.packets import UnicastTraffic
from repro.util.errors import ConfigurationError


def world_for(speed=5.0, mechanism="baseline", buffer=30.0, n=20, seed=3):
    cfg = ScenarioConfig(
        n_nodes=n,
        area=Area(403.0, 403.0),
        normal_range=250.0,
        duration=12.0,
        warmup=2.0,
        sample_rate=1.0,
    )
    spec = ExperimentSpec(
        protocol="gabriel", mechanism=mechanism, buffer_width=buffer,
        mean_speed=speed, config=cfg,
    )
    return build_world(spec, seed=seed)


class TestUnicastTraffic:
    def test_packet_delivered_on_warm_network(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world)
        record = traffic.send(0, 10)
        world.run_until(6.0)
        assert record.delivered
        assert record.path[0] == 0 and record.path[-1] == 10
        assert record.delay < 1.0

    def test_self_addressed_packet(self):
        world = world_for()
        world.run_until(4.0)
        record = UnicastTraffic(world).send(5, 5)
        assert record.delivered and record.delay == 0.0

    def test_hops_match_path(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world)
        record = traffic.send(0, 15)
        world.run_until(6.0)
        if record.delivered:
            assert record.hops == len(record.path) - 1

    def test_ttl_drop(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world, max_hops=1)
        record = traffic.send(0, 15)
        world.run_until(6.0)
        if not record.delivered:
            assert record.drop_reason in ("ttl", "no-progress", "links-stale", "no-neighbors")

    def test_cbr_flow_counts(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world)
        traffic.start_cbr(0, 10, interval=0.5, count=5)
        world.run_until(9.0)
        assert len(traffic.records) == 5
        stats = traffic.stats()
        assert stats.sent == 5
        assert stats.delivered + stats.dropped == 5

    def test_forwarder_configuration_error_propagates(self, monkeypatch):
        # Only a forwarder's ViewError (it has not advertised the version;
        # the proactive packet pin crosses such forwarders) is swallowed.
        world = world_for(speed=2.0, mechanism="view-sync")
        world.run_until(4.0)

        def misconfigured(node_id, version=None, position=None, phase="hello"):
            raise ConfigurationError(f"node {node_id} is misconfigured")

        monkeypatch.setattr(world, "decide_node", misconfigured)
        with pytest.raises(ConfigurationError, match="node 0 is misconfigured"):
            UnicastTraffic(world).send(0, 10)

    def test_stats_on_empty_traffic(self):
        world = world_for()
        world.run_until(3.0)
        stats = UnicastTraffic(world).stats()
        assert stats.sent == 0 and stats.delivery_ratio == 1.0

    def test_invalid_destination(self):
        world = world_for()
        world.run_until(3.0)
        with pytest.raises(ValueError):
            UnicastTraffic(world).send(0, 999)

    def test_forwarding_uses_logical_neighbors_only(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world)
        record = traffic.send(0, 12)
        world.run_until(6.0)
        if record.delivered:
            # every consecutive hop was a logical link of the forwarder at
            # forward time; weaker check: each hop node exists
            assert all(0 <= v < 20 for v in record.path)

    def test_mobile_network_delivery_with_buffer(self):
        world = world_for(speed=20.0, mechanism="view-sync", buffer=50.0)
        world.run_until(4.0)
        traffic = UnicastTraffic(world)
        for i in range(6):
            traffic.send(i, 19 - i)
        world.run_until(7.0)
        stats = traffic.stats()
        assert stats.delivery_ratio >= 0.5

    def test_transmissions_counted_on_channel(self):
        world = world_for(speed=2.0)
        world.run_until(4.0)
        before = world.channel.stats.data_transmissions
        traffic = UnicastTraffic(world)
        record = traffic.send(0, 10)
        world.run_until(6.0)
        gained = world.channel.stats.data_transmissions - before
        # retries are failed candidate probes, not counted transmissions
        assert gained == record.hops


class TestRpgm:
    @pytest.fixture
    def model(self, area, rng):
        return ReferencePointGroupMobility(
            area, 20, horizon=20.0, rng=rng, n_groups=4,
            group_speed=10.0, jitter_radius=40.0, jitter_speed=2.0,
        )

    def test_is_mobility_model(self, model):
        assert isinstance(model, MobilityModel)

    def test_positions_inside_area(self, model, area):
        for t in np.linspace(0, 20, 25):
            assert area.contains(model.positions(float(t))).all()

    def test_group_members_stay_near_each_other(self, model):
        # members of one group (round-robin: 0, 4, 8, 12, 16) stay within
        # 2 * jitter_radius of their group-mates
        members = [0, 4, 8, 12, 16]
        for t in (5.0, 10.0, 15.0):
            pts = model.positions(float(t))[members]
            centroid = pts.mean(axis=0)
            spread = np.linalg.norm(pts - centroid, axis=1).max()
            assert spread <= 2 * 40.0 + 1e-6

    def test_groups_do_move(self, model):
        a = model.positions(0.0)
        b = model.positions(15.0)
        assert np.linalg.norm(b - a, axis=1).mean() > 10.0

    def test_relative_mobility_below_global(self, model):
        """Within-group relative speeds are far below the group speed —
        the property that makes platoons easy for buffer zones."""
        members = [0, 4]
        rel = []
        glob = []
        for t in np.arange(1.0, 15.0, 1.0):
            p1 = model.positions(float(t))
            p2 = model.positions(float(t) + 1.0)
            rel.append(
                abs(
                    np.linalg.norm(p2[members[0]] - p2[members[1]])
                    - np.linalg.norm(p1[members[0]] - p1[members[1]])
                )
            )
            glob.append(np.linalg.norm(p2[members[0]] - p1[members[0]]))
        assert np.mean(rel) < np.mean(glob)

    def test_more_groups_than_nodes_rejected(self, area, rng):
        with pytest.raises(ConfigurationError):
            ReferencePointGroupMobility(area, 3, 10.0, rng, n_groups=5)

    def test_zero_jitter_collapses_to_reference_points(self, area, rng):
        model = ReferencePointGroupMobility(
            area, 8, horizon=10.0, rng=rng, n_groups=2,
            jitter_radius=0.0, jitter_speed=0.0,
        )
        pts = model.positions(5.0)
        # members of the same group coincide
        assert np.allclose(pts[0], pts[2], atol=1e-6)
        assert np.allclose(pts[1], pts[3], atol=1e-6)

    def test_usable_in_world(self, area, rng):
        from repro.core.manager import MobilitySensitiveTopologyControl
        from repro.protocols import RngProtocol
        from repro.sim.world import NetworkWorld

        cfg = ScenarioConfig(
            n_nodes=12, area=area, normal_range=250.0, duration=8.0,
            warmup=2.0, sample_rate=1.0,
        )
        model = ReferencePointGroupMobility(
            area, 12, horizon=8.0, rng=rng, n_groups=3
        )
        world = NetworkWorld(
            cfg, model, MobilitySensitiveTopologyControl(RngProtocol()), seed=1
        )
        world.run_until(5.0)
        assert world.snapshot().positions.shape == (12, 2)
