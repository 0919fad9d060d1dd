"""Connectivity metrics over world snapshots.

Two notions from Section 5.1:

- **weak connectivity** — task-based: the delivery ratio of a flood from a
  random source (computed by :mod:`repro.sim.flood`; aggregated here);
- **strict connectivity** — the undirected effective topology of a
  snapshot is connected (checked here with the omniscient global view the
  paper calls "an omniscient god").

Also provided: pairwise connectivity ratio (fraction of ordered node pairs
connected in the directed effective topology), the quantity the delivery
ratio estimates.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components as _cc

from repro.geometry.csr import (
    csr_is_connected,
    csr_largest_component_fraction,
)
from repro.sim.world import WorldSnapshot

__all__ = [
    "strictly_connected",
    "largest_effective_component",
    "pairwise_connectivity_ratio",
    "logical_topology_connected",
    "original_topology_connected",
]


def strictly_connected(snap: WorldSnapshot, physical_neighbor_mode: bool = False) -> bool:
    """True iff the snapshot's undirected effective topology is connected."""
    return csr_is_connected(snap.effective_bidirectional_csr(physical_neighbor_mode))


def largest_effective_component(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> float:
    """Fraction of nodes in the largest effective component."""
    return csr_largest_component_fraction(
        snap.effective_bidirectional_csr(physical_neighbor_mode)
    )


def pairwise_connectivity_ratio(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> float:
    """Fraction of ordered node pairs (u, v), u != v, with a directed
    effective path u -> v.

    This is the quantity the paper's flood-based delivery ratio samples;
    computing it exactly over strongly-connected components lets tests
    check the estimator against ground truth.
    """
    n = snap.n_nodes
    if n <= 1:
        return 1.0
    graph = snap.effective_directed_csr(physical_neighbor_mode)
    src, dst = graph.rows_array(), graph.indices
    n_comp, labels = _cc(graph.to_scipy(), directed=True, connection="strong")
    # Build the component DAG's reachability by propagating over a
    # topological order (components are numbered in topological order by
    # scipy for directed graphs).
    comp_sizes = np.bincount(labels, minlength=n_comp)
    comp_adj = np.zeros((n_comp, n_comp), dtype=bool)
    comp_adj[labels[src], labels[dst]] = True
    np.fill_diagonal(comp_adj, False)
    reach = np.eye(n_comp, dtype=bool)
    # scipy labels strongly connected components in reverse topological
    # order is not guaranteed; do a simple fixpoint instead (n_comp is
    # small for the graphs we measure).
    changed = True
    while changed:
        new = reach | (comp_adj @ reach)
        changed = bool((new != reach).any())
        reach = new
    pair_count = 0
    for a in range(n_comp):
        reachable_nodes = comp_sizes[reach[a]].sum()
        # ordered pairs from nodes of component a to all reachable nodes,
        # minus self-pairs within a.
        pair_count += comp_sizes[a] * (reachable_nodes - 1)
    return float(pair_count / (n * (n - 1)))


def logical_topology_connected(snap: WorldSnapshot) -> bool:
    """True iff the *undirected* logical topology is connected.

    A logical link exists when at least one end selected the other (the
    union of logical neighbor sets forms the logical topology, Section 1).
    """
    # directed=False makes scipy treat each CSR edge as undirected — the
    # same union-of-selections semantics as logical | logical.T.
    return csr_is_connected(snap.logical_csr)


def original_topology_connected(snap: WorldSnapshot) -> bool:
    """True iff the unit-disk graph at the normal range is connected."""
    return csr_is_connected(snap.original_csr())
