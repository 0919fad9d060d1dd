"""Tests for the world auditor and the overhead accounting."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.core.audit import Violation, audit_world
from repro.core.manager import NodeDecision
from repro.metrics.overhead import measure_overhead
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig


def world_for(mechanism="baseline", speed=10.0, seed=3, buffer=10.0):
    cfg = ScenarioConfig(
        n_nodes=15, area=Area(349.0, 349.0), normal_range=250.0,
        duration=10.0, warmup=2.0, sample_rate=1.0,
    )
    spec = ExperimentSpec(
        protocol="rng", mechanism=mechanism, buffer_width=buffer,
        mean_speed=speed, config=cfg,
    )
    return build_world(spec, seed=seed)


class TestAuditWorld:
    @pytest.mark.parametrize(
        "mechanism", ["baseline", "view-sync", "proactive", "reactive", "weak"]
    )
    def test_clean_runs_have_no_violations(self, mechanism):
        world = world_for(mechanism=mechanism)
        world.run_until(8.0)
        violations = audit_world(world)
        assert violations == [], [str(v) for v in violations]

    def test_detects_tampered_buffer_arithmetic(self):
        world = world_for()
        world.run_until(5.0)
        node = world.nodes[0]
        node.decision = NodeDecision(
            owner=0,
            logical_neighbors=node.decision.logical_neighbors,
            actual_range=node.decision.actual_range,
            extended_range=node.decision.actual_range + 999.0,
            decided_at=node.decision.decided_at,
        )
        kinds = {v.invariant for v in audit_world(world)}
        assert "buffer-arithmetic" in kinds

    def test_detects_ghost_neighbor(self):
        world = world_for()
        world.run_until(5.0)
        node = world.nodes[0]
        node.decision = NodeDecision(
            owner=0,
            logical_neighbors=frozenset({9999}) | node.decision.logical_neighbors,
            actual_range=node.decision.actual_range,
            extended_range=node.decision.extended_range,
            decided_at=node.decision.decided_at,
        )
        kinds = {v.invariant for v in audit_world(world)}
        assert "ghost-neighbor" in kinds

    def test_detects_range_without_neighbors(self):
        world = world_for()
        world.run_until(5.0)
        node = world.nodes[0]
        node.decision = NodeDecision(
            owner=0, logical_neighbors=frozenset(),
            actual_range=50.0, extended_range=60.0,
            decided_at=node.decision.decided_at,
        )
        kinds = {v.invariant for v in audit_world(world)}
        assert "range-without-neighbors" in kinds

    def test_versioned_decision_is_measured_at_its_version(self):
        world = world_for(mechanism="proactive")
        world.run_until(5.0)
        node = next(n for n in world.nodes if n.decision and n.decision.logical_neighbors)
        decision = node.decision
        assert decision.version is not None
        assert audit_world(world) == []
        short = 0.9 * decision.actual_range
        node.decision = replace(
            decision, actual_range=short,
            extended_range=world.manager.buffer_policy.extended_range(short),
        )
        found = [v for v in audit_world(world) if v.invariant == "range-coverage"]
        assert [v.node for v in found] == [node.node_id]
        assert f"version-{decision.version}" in found[0].detail

    def test_violation_str(self):
        v = Violation(node=3, invariant="x", detail="y")
        assert "node 3" in str(v)


class TestMeasureOverhead:
    def test_hello_rate_matches_interval(self):
        world = world_for()
        world.run_until(10.0)
        report = measure_overhead(world)
        # interval ~ 1 s/node => ~1 Hello per node-second
        assert 0.7 <= report.hello_rate <= 1.4

    def test_reactive_pays_sync_cost(self):
        quiet = world_for(mechanism="baseline")
        quiet.run_until(8.0)
        noisy = world_for(mechanism="reactive")
        noisy.run_until(8.0)
        assert measure_overhead(quiet).sync_rate == 0.0
        assert measure_overhead(noisy).sync_rate > 0.5

    def test_view_sync_pays_packet_decisions(self):
        from repro.sim.flood import flood

        world = world_for(mechanism="view-sync")
        world.run_until(8.0)
        flood(world, source=0)
        report = measure_overhead(world)
        assert report.packet_decision_rate > 0.0

    def test_stored_hellos_scale_with_history_depth(self):
        cfg_kwargs = dict(
            n_nodes=15, area=Area(349.0, 349.0), normal_range=250.0,
            duration=10.0, warmup=2.0, sample_rate=1.0,
        )
        reports = {}
        for k in (1, 3):
            cfg = ScenarioConfig(history_depth=k, **cfg_kwargs)
            spec = ExperimentSpec(protocol="rng", mean_speed=5.0, config=cfg)
            world = build_world(spec, seed=4)
            world.run_until(9.0)
            reports[k] = measure_overhead(world).stored_hellos_per_node
        assert reports[3] > reports[1]

    def test_row_structure(self):
        world = world_for()
        world.run_until(5.0)
        row = measure_overhead(world).row()
        assert {"hello_per_node_s", "sync_per_node_s", "stored_hellos"} <= set(row)
