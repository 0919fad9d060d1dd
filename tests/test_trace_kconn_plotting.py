"""Tests for trace recording, k-connectivity metrics, and ASCII plotting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.plotting import ascii_chart, figure_chart
from repro.geometry.csr import CSRGraph
from repro.geometry.points import pairwise_distances
from repro.metrics.connectivity import strictly_connected
from repro.metrics.kconn import (
    edge_connectivity,
    min_link_failures_to_partition,
    snapshot_edge_connectivity,
    vertex_connectivity,
)
from repro.metrics.topology import sample_topology
from repro.sim.trace import SimulationTrace, TraceRecorder
from repro.sim.world import WorldSnapshot
from repro.util.errors import SimulationError


# --------------------------------------------------------------------- #
# k-connectivity


def ring(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return adj


class TestKConnectivity:
    def test_tree_is_1_edge_connected(self):
        adj = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (1, 2), (1, 3)]:
            adj[u, v] = adj[v, u] = True
        assert edge_connectivity(adj) == 1
        assert vertex_connectivity(adj) == 1

    def test_ring_is_2_connected(self):
        adj = ring(6)
        assert edge_connectivity(adj) == 2
        assert vertex_connectivity(adj) == 2

    def test_complete_graph(self):
        n = 5
        adj = np.ones((n, n), dtype=bool) & ~np.eye(n, dtype=bool)
        assert edge_connectivity(adj) == n - 1

    def test_disconnected_is_zero(self):
        assert edge_connectivity(np.zeros((3, 3), dtype=bool)) == 0
        assert vertex_connectivity(np.zeros((3, 3), dtype=bool)) == 0

    def test_trivial_sizes(self):
        assert edge_connectivity(np.zeros((1, 1), dtype=bool)) == 0

    def test_snapshot_wrapper(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.0]])
        logical = np.ones((3, 3), dtype=bool) & ~np.eye(3, dtype=bool)
        snap = WorldSnapshot(
            time=0.0, positions=positions, logical_csr=CSRGraph.from_dense(logical),
            actual_ranges=np.full(3, 10.0), extended_ranges=np.full(3, 10.0),
            normal_range=20.0,
        )
        assert snapshot_edge_connectivity(snap) == 2
        assert min_link_failures_to_partition(snap) == 2


# --------------------------------------------------------------------- #
# trace recording


@pytest.fixture
def small_world():
    from repro.analysis.experiment import ExperimentSpec, build_world
    from repro.mobility.base import Area
    from repro.sim.config import ScenarioConfig

    cfg = ScenarioConfig(
        n_nodes=10, area=Area(300.0, 300.0), normal_range=150.0,
        duration=6.0, warmup=2.0, sample_rate=1.0,
    )
    spec = ExperimentSpec(protocol="rng", mean_speed=10.0, config=cfg)
    return build_world(spec, seed=2)


class TestTraceRecorder:
    def test_records_samples(self, small_world):
        rec = TraceRecorder(small_world)
        for t in (2.0, 3.0, 4.0):
            small_world.run_until(t)
            rec.record(delivery_ratio=0.5)
        trace = rec.finish()
        assert trace.n_samples == 3
        assert trace.n_nodes == 10
        assert np.allclose(trace.times, [2.0, 3.0, 4.0])
        assert np.allclose(trace.delivery_ratios, 0.5)

    def test_record_after_finish_rejected(self, small_world):
        rec = TraceRecorder(small_world)
        rec.finish()
        with pytest.raises(SimulationError):
            rec.record()

    def test_snapshot_roundtrip(self, small_world):
        rec = TraceRecorder(small_world)
        small_world.run_until(3.0)
        rec.record()
        live = small_world.snapshot()
        trace = rec.finish()
        restored = trace.snapshot(0)
        assert np.allclose(restored.positions, live.positions)
        assert np.array_equal(
            restored.logical_csr.to_dense(), live.logical_csr.to_dense()
        )
        assert np.allclose(
            pairwise_distances(restored.positions), pairwise_distances(live.positions)
        )
        assert restored.normal_range == live.normal_range
        # the restored snapshot measures what the live one did
        assert sample_topology(restored) == sample_topology(live)
        assert strictly_connected(restored) == strictly_connected(live)

    def test_save_load_roundtrip(self, small_world, tmp_path):
        rec = TraceRecorder(small_world, label="unit-test")
        small_world.run_until(3.0)
        rec.record(delivery_ratio=0.75)
        trace = rec.finish()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = SimulationTrace.load(path)
        assert loaded.n_samples == 1
        assert loaded.meta["label"] == "unit-test"
        assert loaded.meta["n_nodes"] == 10
        assert np.allclose(loaded.positions, trace.positions)
        assert np.array_equal(loaded.logical_indptr, trace.logical_indptr)
        assert np.array_equal(loaded.logical_indices, trace.logical_indices)

    def test_empty_trace(self, small_world):
        trace = TraceRecorder(small_world).finish()
        assert trace.n_samples == 0 and trace.n_nodes == 0

    def test_plain_world_meta_has_no_observability_keys(self, small_world):
        trace = TraceRecorder(small_world).finish()
        assert "telemetry" not in trace.meta
        assert "fault_schedule" not in trace.meta

    def test_telemetry_and_faults_meta_roundtrip(self, tmp_path):
        from repro.analysis.experiment import ExperimentSpec, build_world
        from repro.faults.schedule import FaultSchedule, NodeOutage
        from repro.mobility.base import Area
        from repro.sim.config import ScenarioConfig
        from repro.telemetry import Telemetry

        cfg = ScenarioConfig(
            n_nodes=10, area=Area(300.0, 300.0), normal_range=150.0,
            duration=6.0, warmup=2.0, sample_rate=1.0,
        )
        spec = ExperimentSpec(protocol="rng", mean_speed=10.0, config=cfg)
        schedule = FaultSchedule(
            events=(NodeOutage(node=3, start=2.5, end=4.0),), note="unit"
        )
        telemetry = Telemetry()
        world = build_world(spec, seed=2, faults=schedule, telemetry=telemetry)
        rec = TraceRecorder(world)
        world.run_until(3.0)
        rec.record()
        trace = rec.finish()
        path = tmp_path / "traced.npz"
        trace.save(path)
        loaded = SimulationTrace.load(path)
        # The telemetry summary survives the repr/literal_eval meta trip
        # exactly as frozen at finish() time (recording happens before).
        assert loaded.meta["telemetry"] == trace.meta["telemetry"]
        assert loaded.meta["telemetry"]["counters"]["hello_sent"] > 0
        assert "spans" in loaded.meta["telemetry"]
        # The embedded schedule rebuilds into an equal FaultSchedule.
        rebuilt = FaultSchedule.from_dict(loaded.meta["fault_schedule"])
        assert rebuilt == schedule

    def test_records_worlds_above_the_dense_limit(self, monkeypatch, tmp_path):
        # No frame is densified: with the limit below the world size,
        # recording, saving, loading and measuring still work.
        from repro.analysis.experiment import ExperimentSpec, build_world
        from repro.geometry import csr as csr_mod
        from repro.mobility.base import Area
        from repro.sim.config import ScenarioConfig

        monkeypatch.setattr(csr_mod, "DENSE_NODE_LIMIT", 8)
        cfg = ScenarioConfig(
            n_nodes=24, area=Area(440.0, 440.0), duration=5.0, warmup=2.0,
            sample_rate=1.0,
        )
        world = build_world(
            ExperimentSpec(protocol="rng", mean_speed=10.0, config=cfg), seed=3
        )
        rec = TraceRecorder(world)
        live = []
        for t in (2.0, 3.5, 5.0):
            world.run_until(t)
            rec.record()
            snap = world.snapshot()
            live.append((sample_topology(snap), strictly_connected(snap)))
        path = tmp_path / "large.npz"
        rec.finish().save(path)
        loaded = SimulationTrace.load(path)
        assert loaded.logical_indices.size > 0
        for i, (topology, connected) in enumerate(live):
            restored = loaded.snapshot(i)
            assert sample_topology(restored) == topology
            assert strictly_connected(restored) == connected

    def test_loads_traces_saved_with_dense_adjacency(self, small_world, tmp_path):
        rec = TraceRecorder(small_world)
        for t in (2.0, 3.0):
            small_world.run_until(t)
            rec.record()
        trace = rec.finish()
        path = tmp_path / "dense.npz"
        np.savez_compressed(
            path,
            times=trace.times,
            positions=trace.positions,
            logical=np.stack(
                [trace.logical_csr(i).to_dense() for i in range(trace.n_samples)]
            ),
            actual_ranges=trace.actual_ranges,
            extended_ranges=trace.extended_ranges,
            delivery_ratios=trace.delivery_ratios,
            meta_keys=np.array(["n_nodes"], dtype=object),
            meta_vals=np.array(["10"], dtype=object),
        )
        loaded = SimulationTrace.load(path)
        assert np.array_equal(loaded.logical_indptr, trace.logical_indptr)
        assert np.array_equal(loaded.logical_indices, trace.logical_indices)
        assert loaded.meta == {"n_nodes": 10}


# --------------------------------------------------------------------- #
# ASCII plotting


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = ascii_chart(
            {"a": ([0, 1, 2], [0.0, 0.5, 1.0]), "b": ([0, 1, 2], [1.0, 0.5, 0.0])},
            width=30, height=8,
        )
        assert "o a" in chart and "x b" in chart
        assert "o" in chart.splitlines()[1] or "x" in chart.splitlines()[1]

    def test_empty_series(self):
        assert ascii_chart({}) == "(no data)"

    def test_fixed_y_range_labels(self):
        chart = ascii_chart({"a": ([0, 1], [0.2, 0.8])}, y_range=(0.0, 1.0))
        assert "1.00" in chart and "0.00" in chart

    def test_title_rendered(self):
        chart = ascii_chart({"a": ([0, 1], [0, 1])}, title="MY TITLE")
        assert chart.splitlines()[0] == "MY TITLE"

    def test_constant_series_handled(self):
        chart = ascii_chart({"a": ([0, 1], [0.5, 0.5])})
        assert "(no data)" not in chart

    def test_single_point_series(self):
        chart = ascii_chart({"a": ([1.0], [0.5])})
        assert "o a" in chart

    def test_figure_chart_of_real_result(self):
        from repro.analysis.experiment import AggregateResult, ExperimentSpec
        from repro.analysis.figures import FigurePoint, FigureResult, FigureSeries
        from repro.analysis.scales import SMOKE
        from repro.metrics.stats import Estimate

        est = Estimate(mean=0.7, half_width=0.0, n=1)
        agg = AggregateResult(
            spec=ExperimentSpec(), n_repetitions=1, connectivity=est,
            transmission_range=est, logical_degree=est, physical_degree=est,
            strict_connectivity=est,
        )
        fig = FigureResult(
            figure_id="figT", title="t", scale=SMOKE,
            series=(FigureSeries("s", "speed", (FigurePoint(1.0, agg), FigurePoint(2.0, agg))),),
        )
        chart = figure_chart(fig)
        assert "figT" in chart and "speed" in chart
