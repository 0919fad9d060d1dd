"""Interference metrics (Burkhart, von Rickenbach, Wattenhofer &
Zollinger 2004 — the paper's reference [3]).

"Does topology control reduce interference?"  Their coverage-based
measure: the interference of an edge (u, v) is the number of *other*
nodes inside the union of the two disks of radius ``d(u, v)`` centred at
u and v — everyone whose reception the link's transmissions can disturb.
Graph interference is the maximum (or mean) over edges.  The paper lists
"minimal interference" among the desirable properties its framework must
not break, so the harness measures it.

The dense entry points accept an optional precomputed ``dist`` matrix.
:func:`snapshot_interference` runs on the snapshot's CSR neighborhoods:
the coverage disks of an effective link never extend past the
snapshot's own neighborhood radius, so the kernel needs no quadratic
structure at all.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.csr import CSRGraph
from repro.geometry.points import pairwise_distances
from repro.sim.world import WorldSnapshot

__all__ = [
    "edge_interference",
    "graph_interference",
    "csr_graph_interference",
    "snapshot_interference",
]

#: Edges per coverage block (~2 MB of bool per temporary at n=1000).
_COVER_BLOCK_CELLS = 2_000_000


def edge_interference(
    positions: np.ndarray, u: int, v: int, dist: np.ndarray | None = None
) -> int:
    """Coverage of edge (u, v): nodes (excluding u, v) within d(u, v) of
    either endpoint."""
    d = pairwise_distances(positions) if dist is None else dist
    radius = d[u, v]
    covered = (d[u] <= radius) | (d[v] <= radius)
    covered[u] = covered[v] = False
    return int(covered.sum())


def graph_interference(
    adjacency: np.ndarray,
    positions: np.ndarray,
    dist: np.ndarray | None = None,
) -> tuple[int, float]:
    """(max, mean) edge interference of an undirected graph.

    Returns (0, 0.0) for edgeless graphs.  Coverage is computed for all
    edges at once in blocked ``(edges, nodes)`` broadcasts; both endpoints
    always cover themselves (``d = 0``), so the per-edge count is the row
    sum minus two — identical to masking them out one edge at a time.
    """
    if dist is None:
        dist = pairwise_distances(positions)
    iu, iv = np.nonzero(np.triu(adjacency | adjacency.T, k=1))
    if iu.size == 0:
        return (0, 0.0)
    n = dist.shape[0]
    radius = dist[iu, iv]
    counts = np.empty(iu.size, dtype=np.int64)
    block = max(1, _COVER_BLOCK_CELLS // max(n, 1))
    for s in range(0, iu.size, block):
        bu, bv = iu[s : s + block], iv[s : s + block]
        br = radius[s : s + block, np.newaxis]
        covered = (dist[bu] <= br) | (dist[bv] <= br)
        counts[s : s + block] = covered.sum(axis=1) - 2
    return (int(counts.max()), float(counts.mean()))


def csr_graph_interference(graph: CSRGraph, reach: CSRGraph) -> tuple[int, float]:
    """(max, mean) edge interference from CSR structures only.

    *graph* is the (undirected, edge-weighted) topology under test;
    *reach* holds each node's neighborhood out to at least the longest
    edge of *graph*, with distances.  The coverage disk of edge (u, v) has
    radius ``d(u, v)``, so every covered node already sits in u's or v's
    *reach* row — counting is a per-edge merge of two short sorted rows,
    O(edges * degree) total, never ``(n, n)``.

    Bit-identical to :func:`graph_interference` on the densified inputs:
    the same distance values face the same ``<=`` predicate.
    """
    rows, cols, data = graph.rows_array(), graph.indices, graph.data
    upper = rows < cols
    iu, iv, radius = rows[upper], cols[upper], data[upper]
    if iu.size == 0:
        return (0, 0.0)
    counts = np.empty(iu.size, dtype=np.int64)
    indptr, indices, dist = reach.indptr, reach.indices, reach.data
    for k in range(iu.size):
        u, v, r = iu[k], iv[k], radius[k]
        su, eu = indptr[u], indptr[u + 1]
        sv, ev = indptr[v], indptr[v + 1]
        cu = indices[su:eu][dist[su:eu] <= r]
        cv = indices[sv:ev][dist[sv:ev] <= r]
        # both endpoints appear in each other's coverage (d(u, v) = r),
        # so the union minus the two endpoints matches the dense row-sum
        # minus 2.
        counts[k] = np.union1d(cu, cv).size - 2
    return (int(counts.max()), float(counts.mean()))


def snapshot_interference(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> tuple[int, float]:
    """(max, mean) interference of a snapshot's effective topology, from
    the snapshot's CSR neighborhoods."""
    if snap.n_nodes == 0:
        return (0, 0.0)
    return csr_graph_interference(
        snap.effective_bidirectional_csr(physical_neighbor_mode),
        snap.neighbor_csr(float(snap.extended_ranges.max())),
    )
