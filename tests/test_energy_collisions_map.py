"""Tests for the energy metric, the collision MAC option, and topology maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.analysis.plotting import topology_map
from repro.geometry.csr import CSRGraph
from repro.metrics.energy import EnergyModel, flood_energy, mean_transmit_power_proxy
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.sim.flood import FloodResult, flood
from repro.sim.world import WorldSnapshot
from repro.util.errors import ConfigurationError


def snapshot_of(positions, logical, ranges):
    positions = np.asarray(positions, dtype=np.float64)
    return WorldSnapshot(
        time=1.0, positions=positions,
        logical_csr=CSRGraph.from_dense(logical),
        actual_ranges=np.asarray(ranges, dtype=np.float64),
        extended_ranges=np.asarray(ranges, dtype=np.float64),
        normal_range=100.0,
    )


class TestEnergyModel:
    def test_per_message_scalar(self):
        assert EnergyModel(alpha=2).per_message(3.0) == 9.0

    def test_per_message_with_overhead(self):
        assert EnergyModel(alpha=2, overhead=5.0).per_message(3.0) == 14.0

    def test_vectorised(self):
        out = EnergyModel(alpha=2).per_message(np.array([1.0, 2.0]))
        assert np.allclose(out, [1.0, 4.0])

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(alpha=0.0)

    def test_flood_energy_counts_forwarders(self):
        snap = snapshot_of(
            [[0, 0], [10, 0], [20, 0]],
            np.zeros((3, 3), dtype=bool),
            [10.0, 10.0, 10.0],
        )
        result = FloodResult(
            source=0, reached=np.array([True, True, False]), transmissions=2
        )
        assert flood_energy(snap, result, EnergyModel(alpha=2)) == 200.0

    def test_mean_power_proxy_ignores_silent_nodes(self):
        snap = snapshot_of(
            [[0, 0], [10, 0]], np.zeros((2, 2), dtype=bool), [10.0, 0.0]
        )
        assert mean_transmit_power_proxy(snap, EnergyModel(alpha=2)) == 50.0

    def test_mean_power_all_silent(self):
        snap = snapshot_of([[0, 0], [10, 0]], np.zeros((2, 2), dtype=bool), [0.0, 0.0])
        assert mean_transmit_power_proxy(snap) == 0.0

    def test_energy4_penalises_long_links_more(self):
        snap = snapshot_of(
            [[0, 0], [50, 0]], np.zeros((2, 2), dtype=bool), [50.0, 50.0]
        )
        e2 = mean_transmit_power_proxy(snap, EnergyModel(alpha=2))
        e4 = mean_transmit_power_proxy(snap, EnergyModel(alpha=4))
        assert e4 > e2


class TestCollisionMac:
    def _cfg(self, tx_duration):
        return ScenarioConfig(
            n_nodes=25, area=Area(450.0, 450.0), normal_range=250.0,
            duration=8.0, warmup=2.0, sample_rate=1.0,
            hello_tx_duration=tx_duration,
        )

    def test_no_collisions_when_disabled(self):
        spec = ExperimentSpec(protocol="rng", mean_speed=5.0, config=self._cfg(0.0))
        result = run_once(spec, seed=4)
        assert result.stats.collisions == 0

    def test_collisions_recorded_with_wide_window(self):
        # An exaggerated 50 ms airtime forces overlaps among 25 nodes at
        # ~1 Hz each.
        spec = ExperimentSpec(protocol="rng", mean_speed=5.0, config=self._cfg(0.05))
        result = run_once(spec, seed=4)
        assert result.stats.collisions > 0

    def test_collisions_degrade_or_preserve_connectivity(self):
        base = run_once(
            ExperimentSpec(protocol="rng", mechanism="view-sync", buffer_width=20.0,
                           mean_speed=10.0, config=self._cfg(0.0)), seed=4)
        lossy = run_once(
            ExperimentSpec(protocol="rng", mechanism="view-sync", buffer_width=20.0,
                           mean_speed=10.0, config=self._cfg(0.05)), seed=4)
        assert lossy.connectivity_ratio <= base.connectivity_ratio + 0.1

    def test_rejects_airtime_near_interval(self):
        with pytest.raises(ValueError):
            self._cfg(1.0)

    def test_world_prunes_recent_hellos(self):
        spec = ExperimentSpec(protocol="rng", mean_speed=5.0, config=self._cfg(0.01))
        world = build_world(spec, seed=1)
        world.run_until(6.0)
        # the retention list stays bounded by the collision window
        assert len(world._recent_hellos) <= 25


class TestTopologyMap:
    def test_renders_nodes_and_links(self):
        logical = np.zeros((3, 3), dtype=bool)
        logical[0, 1] = logical[1, 0] = True
        snap = snapshot_of(
            [[0.0, 0.0], [100.0, 0.0], [50.0, 80.0]], logical, [100.0] * 3
        )
        art = topology_map(snap, width=40, height=12)
        assert "0" in art and "1" in art and "2" in art
        assert "." in art  # the 0-1 link

    def test_one_sided_selection_draws_the_link(self):
        # A link is drawn when either end selected the other.
        positions = [[0.0, 0.0], [100.0, 0.0], [50.0, 80.0]]
        both = np.zeros((3, 3), dtype=bool)
        both[0, 2] = both[2, 0] = True
        expected = topology_map(snapshot_of(positions, both, [100.0] * 3))
        for u, v in ((0, 2), (2, 0)):
            one = np.zeros((3, 3), dtype=bool)
            one[u, v] = True
            assert topology_map(snapshot_of(positions, one, [100.0] * 3)) == expected
        bare = topology_map(snapshot_of(positions, np.zeros((3, 3), dtype=bool), [100.0] * 3))
        assert bare != expected

    def test_empty_snapshot(self):
        snap = snapshot_of(np.zeros((0, 2)), np.zeros((0, 0), dtype=bool), np.zeros(0))
        assert topology_map(snap) == "(empty network)"

    def test_live_snapshot_renders(self):
        cfg = ScenarioConfig(
            n_nodes=12, area=Area(312.0, 312.0), normal_range=250.0,
            duration=6.0, warmup=2.0, sample_rate=1.0,
        )
        spec = ExperimentSpec(protocol="mst", mean_speed=5.0, config=cfg)
        world = build_world(spec, seed=2)
        world.run_until(4.0)
        art = topology_map(world.snapshot())
        assert "12 nodes" in art
