"""No per-sample path densifies a snapshot.

:meth:`~repro.geometry.csr.CSRGraph.to_dense` is the package's only
``(n, n)`` densification, and its size guard fires only above
``DENSE_NODE_LIMIT`` nodes.  Here it is patched to raise at any size,
and whole small runs — Hello traffic, packet-time redecision, floods,
snapshots and every per-sample metric — must still complete under each
mechanism family and both non-unit-disk propagation models.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment import run_once
from repro.geometry.csr import CSRGraph

from test_golden_digests import LOG_DISTANCE, SEED, SINR, cell_spec

CELLS = {
    "rng-baseline": cell_spec("rng", "baseline"),
    "rng-view-sync-pn": cell_spec(
        "rng", "view-sync", spec={"physical_neighbor_mode": True}
    ),
    "spt4-proactive": cell_spec("spt4", "proactive"),
    "mst-weak": cell_spec("mst", "weak"),
    "rng-gossip": cell_spec("rng", "gossip"),
    "rng-view-sync-logdist": cell_spec("rng", "view-sync", **LOG_DISTANCE),
    "rng-reactive-sinr": cell_spec("rng", "reactive", **SINR),
}


def _refuse(self):
    raise AssertionError(f"a run densified a {self.n}-node CSRGraph")


@pytest.mark.parametrize("name", list(CELLS))
def test_run_completes_without_densifying(name, monkeypatch):
    monkeypatch.setattr(CSRGraph, "to_dense", _refuse)
    with pytest.raises(AssertionError):
        CSRGraph.empty(2).to_dense()
    spec = CELLS[name]
    result = run_once(spec, seed=SEED)
    # 2 s warmup to 4 s at 10 samples/s, both ends included
    assert result.delivery_ratios.shape == (21,)
    assert result.delivery_ratios.max() > 0.0
