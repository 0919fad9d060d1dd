"""Fault-tolerance metrics: k-connectivity of effective topologies.

The paper's related work (Bahramgiri et al.; Li & Hou FLSS; Li, Wan, Wang
& Yi) builds K-connected topologies so that "a few link failures" do not
partition the network, and notes such redundancy "can only reduce but not
eliminate network partitioning" under mobility.  These metrics quantify
that redundancy on snapshots so the trade-off can be measured rather than
asserted.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.sim.world import WorldSnapshot

__all__ = [
    "edge_connectivity",
    "vertex_connectivity",
    "snapshot_edge_connectivity",
    "min_link_failures_to_partition",
]


def _to_graph(n: int, rows: np.ndarray, cols: np.ndarray) -> nx.Graph:
    """Undirected graph over *n* nodes from its ``rows < cols`` edges."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return g


def _dense_graph(adj: np.ndarray) -> nx.Graph:
    return _to_graph(adj.shape[0], *np.nonzero(np.triu(adj, k=1)))


def _edge_connectivity(g: nx.Graph) -> int:
    if g.number_of_nodes() <= 1 or not nx.is_connected(g):
        return 0
    return int(nx.edge_connectivity(g))


def edge_connectivity(adj: np.ndarray) -> int:
    """Global edge connectivity of an undirected boolean adjacency.

    0 for disconnected (or single-node) graphs.
    """
    return _edge_connectivity(_dense_graph(adj))


def vertex_connectivity(adj: np.ndarray) -> int:
    """Global vertex connectivity of an undirected boolean adjacency."""
    if adj.shape[0] <= 1:
        return 0
    g = _dense_graph(adj)
    if not nx.is_connected(g):
        return 0
    return int(nx.node_connectivity(g))


def snapshot_edge_connectivity(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> int:
    """Edge connectivity of a snapshot's undirected effective topology."""
    graph = snap.effective_bidirectional_csr(physical_neighbor_mode)
    rows, cols = graph.rows_array(), graph.indices
    upper = rows < cols
    return _edge_connectivity(_to_graph(graph.n, rows[upper], cols[upper]))


def min_link_failures_to_partition(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> int:
    """How many simultaneous link failures a snapshot can absorb.

    Edge connectivity minus nothing — named for readability at call sites:
    an MST-like topology returns 1 ("a single link failure is enough to
    disconnect the entire network", Section 5.2), K-connected designs
    return K, disconnected snapshots return 0.
    """
    return snapshot_edge_connectivity(snap, physical_neighbor_mode)
