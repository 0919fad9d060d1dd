"""Broadcast-overhead bench: flooding vs CDS forward sets.

Section 4.1 argues the reactive scheme is expensive because its initiation
is "a 'flooding' process instead of a broadcast process", where an
efficient broadcast "can be efficiently implemented by selecting a small
forward node set [34]".  This bench quantifies that gap on the paper's
snapshots: transmissions per broadcast for flooding (= n) versus the
Wu-Li/Dai-Wu CDS forward set, at full coverage.
"""

from __future__ import annotations

import numpy as np

from conftest import save_and_print
from repro.analysis.experiment import ExperimentSpec, build_world
from repro.analysis.report import format_table
from repro.geometry.graphs import is_connected
from repro.sim.broadcast import cds_broadcast


def test_broadcast_overhead(benchmark, bench_scale, results_dir):
    cfg = bench_scale.config()
    spec = ExperimentSpec(protocol="none", mean_speed=10.0, config=cfg)

    def measure():
        rows = []
        for seed in range(bench_scale.repetitions):
            world = build_world(spec, seed=6000 + seed)
            world.run_until(cfg.warmup + 2.0)
            snap = world.snapshot()
            adj = snap.original_csr().to_dense()
            if not is_connected(adj):
                continue
            n = adj.shape[0]
            outcome = cds_broadcast(adj, source=0)
            rows.append(
                {
                    "seed": 6000 + seed,
                    "nodes": n,
                    "flooding_tx": n,
                    "cds_tx": outcome.transmissions,
                    "cds_coverage": outcome.coverage,
                    "savings": 1.0 - outcome.transmissions / n,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_and_print(
        results_dir,
        "broadcast_overhead",
        format_table(rows, title="Broadcast overhead — flooding vs CDS forward set"),
    )
    assert rows, "no connected snapshot found"
    for row in rows:
        assert row["cds_coverage"] == 1.0  # CDS broadcast must still cover
        assert row["cds_tx"] < row["flooding_tx"]  # and cost less
    assert float(np.mean([r["savings"] for r in rows])) > 0.15
