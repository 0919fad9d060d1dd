"""Micro-benchmarks of the hot paths (regression tracking).

These are conventional pytest-benchmark timings — the engine's event
throughput, one protocol selection, one snapshot + flood — so performance
regressions in the simulator core show up without running full sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.core.views import Hello, LocalView, distance_bounds
from repro.mobility.base import Area
from repro.protocols import MstProtocol, RngProtocol, Spt2Protocol
from repro.sim.config import ScenarioConfig
from repro.sim.engine import Engine
from repro.sim.flood import flood


def _view(n_neighbors: int = 18, seed: int = 0) -> LocalView:
    rng = np.random.default_rng(seed)
    own = Hello(0, 1, (125.0, 125.0), 0.0, 0.0)
    neighbors = {
        i: Hello(i, 1, tuple(rng.random(2) * 250.0), 0.0, 0.0)
        for i in range(1, n_neighbors + 1)
    }
    return LocalView(0, own, neighbors, normal_range=250.0, sampled_at=0.0)


def test_engine_event_throughput(benchmark):
    def run_10k_events():
        eng = Engine()
        count = [0]
        def tick():
            count[0] += 1
            if count[0] < 10_000:
                eng.schedule_after(0.001, tick)
        eng.schedule_at(0.0, tick)
        eng.run(until=100.0)
        return count[0]

    assert benchmark(run_10k_events) == 10_000


def test_rng_selection_speed(benchmark):
    view = _view()
    proto = RngProtocol()
    result = benchmark(proto.select, view)
    assert result.owner == 0


def test_mst_selection_speed(benchmark):
    view = _view()
    proto = MstProtocol()
    result = benchmark(proto.select, view)
    assert result.owner == 0


def test_spt_selection_speed(benchmark):
    view = _view()
    proto = Spt2Protocol()
    result = benchmark(proto.select, view)
    assert result.owner == 0


def test_cost_graph_construction_speed(benchmark):
    # The interval cost graph of weak consistency: distance bounds over
    # three retained positions per member, a block of one view.
    _, pts = _view().positions()
    rng = np.random.default_rng(1)
    history = pts[np.newaxis, :, np.newaxis] + rng.normal(scale=5.0, size=(1, len(pts), 3, 2))
    dist_low, dist_high = benchmark(distance_bounds, history)
    assert dist_low.shape == dist_high.shape == (1, 19, 19)


def test_removal_condition_speed(benchmark):
    # One view's MST kernel, the cost bounds passed as one array twice.
    ids, pts = _view().positions()
    dist = np.hypot(*(pts[:, np.newaxis, :] - pts[np.newaxis, :, :]).transpose(2, 0, 1))
    adj = dist <= 250.0
    np.fill_diagonal(adj, False)
    block = (np.asarray([ids], dtype=np.int64), adj[np.newaxis], dist[np.newaxis])
    removable = benchmark(MstProtocol()._batch_removable, *block, block[2])
    assert removable.shape == (1, 19)


def test_snapshot_and_flood_speed(benchmark):
    cfg = ScenarioConfig(
        n_nodes=100,
        area=Area(900.0, 900.0),
        normal_range=250.0,
        duration=6.0,
        warmup=2.0,
        sample_rate=1.0,
    )
    spec = ExperimentSpec(protocol="rng", mean_speed=20.0, config=cfg)
    world = build_world(spec, seed=1)
    world.run_until(4.0)

    def probe():
        return flood(world, source=0).delivery_ratio

    ratio = benchmark(probe)
    assert 0.0 <= ratio <= 1.0


def test_disarmed_telemetry_world_speed(benchmark):
    """Hello-protocol throughput with the default (Null) telemetry.

    Tracks the disarmed-seam overhead: this run must stay within noise of
    the same scenario before the telemetry subsystem existed, because
    every seam calls :data:`~repro.telemetry.NULL_TELEMETRY`, whose
    methods do nothing, when no collector is armed.
    """
    cfg = ScenarioConfig(
        n_nodes=100,
        area=Area(900.0, 900.0),
        normal_range=250.0,
        duration=6.0,
        warmup=2.0,
        sample_rate=1.0,
    )
    spec = ExperimentSpec(protocol="rng", mean_speed=20.0, config=cfg)

    def run_world():
        world = build_world(spec, seed=1)
        world.run_until(6.0)
        return world.engine.events_processed

    events = benchmark(run_world)
    assert events > 0
