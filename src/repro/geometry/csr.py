"""Compressed-sparse-row adjacency: the one representation of graphs.

Local topology-control schemes only ever consume *neighborhoods*, so
every snapshot adjacency in this package is CSR — ``indptr``/``indices``
arrays plus optional per-edge ``data`` (edge lengths) — with memory
linear in the edge count.  The same structures serve the paper's
~100-node worlds and 10k-node deployments, where an ``(n, n)`` float64
distance matrix would cost ~800 MB.

:class:`CSRGraph` is deliberately minimal and immutable-by-convention:
rows are node ids, ``indices`` within a row are ascending, and every
operation that combines graphs (transpose, row-wise intersection, mutual
edges) is a vectorized pass over flat edge arrays.  BFS and connected
components run on the CSR arrays through ``scipy.sparse.csgraph`` — no
densification, ever.

Everything here is bit-identical to the dense constructions it replaces;
``tests/test_property_sparse.py`` checks each against a dense reference
built inside the test, the same discipline as
:mod:`repro.geometry._reference`.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DenseMaterializationError

__all__ = [
    "CSRGraph",
    "csr_bfs",
    "csr_connected_components",
    "csr_is_connected",
    "csr_largest_component_fraction",
]

#: Largest graph :meth:`CSRGraph.to_dense` will expand into an ``(n, n)``
#: matrix.  Above it the call raises
#: :class:`~repro.util.errors.DenseMaterializationError` instead of
#: silently allocating (n = 10k is 100 MB of booleans, 800 MB as floats).
DENSE_NODE_LIMIT = 4096


class CSRGraph:
    """Directed boolean adjacency in CSR form, optionally edge-weighted.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` int64 row pointers.
    indices:
        ``(nnz,)`` intp column ids; ascending within each row.
    data:
        Optional ``(nnz,)`` float64 per-edge values (edge lengths in this
        package), aligned with ``indices``; None for purely structural
        graphs.
    n:
        Number of nodes (rows == columns; all graphs here are square).
    """

    __slots__ = ("indptr", "indices", "data", "n")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None = None,
        n: int | None = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = None if data is None else np.asarray(data, dtype=np.float64)
        self.n = int(self.indptr.shape[0] - 1) if n is None else int(n)
        if self.indptr.shape[0] != self.n + 1:
            raise ValueError(
                f"indptr has {self.indptr.shape[0]} entries, expected {self.n + 1}"
            )
        if self.data is not None and self.data.shape != self.indices.shape:
            raise ValueError("data must align with indices")

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def empty(cls, n: int) -> "CSRGraph":
        """Edgeless graph over *n* nodes."""
        return cls(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            n=n,
        )

    @classmethod
    def from_edges(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        n: int,
        data: np.ndarray | None = None,
        presorted: bool = False,
    ) -> "CSRGraph":
        """Build from COO edge arrays.

        Pass ``presorted=True`` only when the edges already arrive in
        row-major order with ascending columns per row (e.g. the output of
        ``np.nonzero`` on a dense matrix); otherwise a stable sort
        establishes it.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if not presorted and rows.size:
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            if data is not None:
                data = np.asarray(data)[order]
        counts = np.bincount(rows, minlength=n) if rows.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, cols, data, n=n)

    @classmethod
    def from_dense(cls, adj: np.ndarray, dist: np.ndarray | None = None) -> "CSRGraph":
        """CSR form of a dense boolean adjacency (the oracle direction)."""
        adj = np.asarray(adj, dtype=bool)
        rows, cols = np.nonzero(adj)
        data = None if dist is None else np.asarray(dist, dtype=np.float64)[rows, cols]
        return cls.from_edges(rows, cols, adj.shape[0], data=data, presorted=True)

    # ------------------------------------------------------------------ #
    # basics

    @property
    def nnz(self) -> int:
        """Number of (directed) edges."""
        return int(self.indices.shape[0])

    def degrees(self) -> np.ndarray:
        """Out-degree per node (``(n,)`` int64)."""
        return np.diff(self.indptr)

    def row(self, u: int) -> np.ndarray:
        """Out-neighbors of *u*, ascending (a view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def row_data(self, u: int) -> np.ndarray:
        """Edge values of *u*'s out-edges (aligned with :meth:`row`)."""
        if self.data is None:
            raise ValueError("graph carries no edge data")
        return self.data[self.indptr[u] : self.indptr[u + 1]]

    def rows_array(self) -> np.ndarray:
        """Source node of every edge (``(nnz,)``, the COO row array)."""
        return np.repeat(np.arange(self.n, dtype=np.intp), self.degrees())

    def edge_keys(self) -> np.ndarray:
        """``row * n + col`` per edge — strictly ascending by construction."""
        return self.rows_array().astype(np.int64) * np.int64(self.n) + self.indices

    def to_dense(self) -> np.ndarray:
        """Dense boolean adjacency (small-n interop / oracle comparisons).

        The package's only ``(n, n)`` densification; it raises
        :class:`~repro.util.errors.DenseMaterializationError` above
        :data:`DENSE_NODE_LIMIT` nodes.
        """
        if self.n > DENSE_NODE_LIMIT:
            raise DenseMaterializationError(
                f"densifying a {self.n}-node CSRGraph would allocate an "
                f"({self.n}, {self.n}) matrix (limit {DENSE_NODE_LIMIT} nodes); "
                f"read its CSR arrays instead"
            )
        out = np.zeros((self.n, self.n), dtype=bool)
        if self.nnz:
            out[self.rows_array(), self.indices] = True
        return out

    def to_scipy(self, weights: np.ndarray | None = None):
        """A ``scipy.sparse.csr_matrix`` over these arrays.

        Every edge weighs 1 unless *weights* are given.  Edge lengths are
        not used as weights: a zero-length edge between co-located nodes
        must stay an edge for scipy's graph routines.
        """
        from scipy.sparse import csr_matrix

        values = np.ones(self.nnz) if weights is None else weights
        return csr_matrix((values, self.indices, self.indptr), shape=(self.n, self.n))

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.n}, nnz={self.nnz}, "
            f"weighted={self.data is not None})"
        )

    # ------------------------------------------------------------------ #
    # edge algebra (all vectorized over flat edge arrays)

    def select(self, keep: np.ndarray) -> "CSRGraph":
        """Subgraph keeping the edges where *keep* (an ``(nnz,)`` bool mask)
        is True; row-major order is preserved, so no re-sort is needed."""
        keep = np.asarray(keep, dtype=bool)
        # kept[k]: edges kept before flat position k, so the kept edges of
        # row i start at kept[indptr[i]].
        kept = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return CSRGraph(
            kept[self.indptr],
            self.indices[keep],
            None if self.data is None else self.data[keep],
            n=self.n,
        )

    def filter_row_radius(self, radii: np.ndarray) -> "CSRGraph":
        """Edges with ``data <= radii[row]`` (per-source range filter)."""
        if self.data is None:
            raise ValueError("filter_row_radius needs edge data")
        radii = np.asarray(radii, dtype=np.float64)
        return self.select(self.data <= radii[self.rows_array()])

    def transpose(self) -> "CSRGraph":
        """Reverse every edge (data rides along)."""
        rows = self.rows_array()
        return CSRGraph.from_edges(self.indices, rows, self.n, data=self.data)

    def contains_edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean mask: is each (row, col) pair an edge of this graph?

        Binary search over the globally ascending edge keys.
        """
        keys = self.edge_keys()
        probe = (
            np.asarray(rows, dtype=np.int64) * np.int64(self.n)
            + np.asarray(cols, dtype=np.int64)
        )
        if keys.size == 0:
            return np.zeros(probe.shape, dtype=bool)
        pos = np.searchsorted(keys, probe)
        pos_clipped = np.minimum(pos, keys.size - 1)
        return (pos < keys.size) & (keys[pos_clipped] == probe)

    def intersect(self, other: "CSRGraph") -> "CSRGraph":
        """Edges of *self* that are also edges of *other* (data kept)."""
        if other.n != self.n:
            raise ValueError("graphs must be over the same node set")
        return self.select(other.contains_edges(self.rows_array(), self.indices))

    def mutual(self) -> "CSRGraph":
        """Edges whose reverse is also present (``A & A.T``, data kept)."""
        return self.select(self.contains_edges(self.indices, self.rows_array()))

    def gather_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Concatenated out-neighbors of *nodes* (duplicates preserved).

        The vectorized multi-slice gather: one ``repeat``/``cumsum`` index
        build instead of a Python loop over rows.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        starts = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.intp)
        # flat[k] walks each row's slice: start_i + (k - offset_i)
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - offsets)
        return self.indices[flat]


# ---------------------------------------------------------------------- #
# graph algorithms on CSR


def csr_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Reachable-set mask by BFS over a directed CSR adjacency.

    One ``scipy.sparse.csgraph.breadth_first_order`` pass: O(edges
    touched), no ``(n, n)`` allocation.
    """
    from scipy.sparse.csgraph import breadth_first_order

    reached = np.zeros(graph.n, dtype=bool)
    reached[
        breadth_first_order(
            graph.to_scipy(), source, directed=True, return_predecessors=False
        )
    ] = True
    return reached


def csr_bfs_parents(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS parent array (−1 = unreached, ``parent[source] = source``).

    Queue order: nodes are expanded in discovery order and each row in
    ascending column order, so a node's parent is its first discoverer.
    """
    from scipy.sparse.csgraph import breadth_first_order

    _, pred = breadth_first_order(
        graph.to_scipy(), source, directed=True, return_predecessors=True
    )
    parent = np.where(pred < 0, -1, pred).astype(np.intp)
    parent[source] = source
    return parent


def csr_connected_components(graph: CSRGraph, directed: bool = False) -> np.ndarray:
    """Component label per node (scipy ``csgraph`` over the CSR arrays)."""
    from scipy.sparse.csgraph import connected_components as _cc

    if graph.n == 0:
        return np.zeros(0, dtype=np.intp)
    _, labels = _cc(graph.to_scipy(), directed=directed)
    return labels


def csr_is_connected(graph: CSRGraph) -> bool:
    """True iff the undirected view of *graph* is connected (n <= 1: True)."""
    if graph.n <= 1:
        return True
    return bool(csr_connected_components(graph).max() == 0)


def csr_largest_component_fraction(graph: CSRGraph) -> float:
    """Fraction of nodes in the largest (undirected) component."""
    if graph.n == 0:
        return 1.0
    labels = csr_connected_components(graph)
    return float(np.bincount(labels).max() / graph.n)
