"""Sparse neighborhood builders and dirty-region incremental rebuilds.

:func:`neighborhood_csr` is the one entry point for "give me the unit-disk
graph as CSR": it reuses the :class:`~repro.geometry.grid.GraphBackend`
dense/grid dispatch, so small point sets take the dense oracle path (one
``(n, n)`` distance matrix, ``np.nonzero``) while large deployments build
edges per 3x3 cell block and never allocate anything quadratic.  Both
paths produce bit-identical edge sets, columns ascending per row, with
edge lengths computed by the exact IEEE operation sequence of
:func:`repro.geometry.points.pairwise_distances`.

:class:`IncrementalNeighborhoods` adds the between-Hello-generations
optimization: under mobility, most nodes do not change hash cell between
consecutive topology-control rounds, so their adjacency rows — candidate
sets *and* distances — are provably unchanged and can be spliced from the
previous generation.  A node's row must be recomputed only if the node
moved or any cell of its 3x3 neighborhood gained or lost a moved node
("dirty" cells).  This is exact, not approximate: the result is always
bit-identical to a fresh build (property-tested in
``tests/test_property_sparse.py``), in the same oracle discipline as the
decision cache's reuse of standing decisions.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.csr import CSRGraph
from repro.geometry.grid import GraphBackend, GridIndex
from repro.geometry.points import as_points

__all__ = ["neighborhood_csr", "IncrementalNeighborhoods"]

#: Hash-cell coordinates must fit 32 bits for the packed int64 dirty-cell
#: keys; coordinates beyond this (absurd deployments or degenerate radii)
#: fall back to a full rebuild rather than risking key collisions.
_CELL_KEY_BOUND = 2**31

#: When more than this fraction of nodes is dirty, a fresh build is
#: cheaper than splice bookkeeping.
_DIRTY_REBUILD_FRACTION = 0.5


def neighborhood_csr(
    points: np.ndarray,
    radius: float,
    *,
    mode: str = "auto",
    backend: GraphBackend | None = None,
) -> CSRGraph:
    """Unit-disk adjacency (``0 < d <= radius``) as an edge-weighted CSR graph.

    Dispatch mirrors :func:`repro.geometry.graphs.unit_disk_graph`: pass a
    *backend* to reuse its cached state across queries, or *mode* to force
    ``"dense"`` / ``"grid"``.  The dense path is the oracle; the grid path
    is bit-identical to it (including boundary-inclusive radii).
    """
    pts = as_points(points)
    n = pts.shape[0]
    if backend is None:
        backend = GraphBackend(pts, mode=mode)
    if n == 0:
        return CSRGraph.empty(0)
    if radius > 0 and np.isfinite(radius) and backend.use_grid(radius):
        return backend._index_for(radius).neighbor_pairs(radius)
    d = backend.distances()
    mask = d <= radius
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return CSRGraph.from_edges(rows, cols, n, data=d[rows, cols], presorted=True)


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """Pack ``(cx, cy)`` int64 cell coordinates into one int64 key each."""
    return (cells[:, 0] << np.int64(32)) + (cells[:, 1] & np.int64(0xFFFFFFFF))


class IncrementalNeighborhoods:
    """Stateful CSR builder that reuses clean rows across generations.

    Call :meth:`csr` once per topology-control generation with the full
    position array; the builder diffs against the previous generation and
    recomputes only the rows whose 3x3 cell neighborhood changed.  Static
    or paused nodes therefore cost nothing after the first build, which is
    what makes large-n simulation of mostly-quiescent networks tractable.

    Counters (``full_rebuilds``, ``incremental_updates``,
    ``reused_rows``, ``recomputed_rows``) expose the hit rate for
    benchmarks and telemetry.
    """

    __slots__ = (
        "full_rebuilds",
        "incremental_updates",
        "reused_rows",
        "recomputed_rows",
        "_points",
        "_radius",
        "_cells",
        "_csr",
    )

    def __init__(self) -> None:
        self.full_rebuilds = 0
        self.incremental_updates = 0
        self.reused_rows = 0
        self.recomputed_rows = 0
        self._points: np.ndarray | None = None
        self._radius: float | None = None
        self._cells: np.ndarray | None = None
        self._csr: CSRGraph | None = None

    def _full_build(
        self, pts: np.ndarray, radius: float, backend: GraphBackend | None
    ) -> CSRGraph:
        self.full_rebuilds += 1
        csr = neighborhood_csr(pts, radius, backend=backend)
        self._points = pts.copy()
        self._radius = float(radius)
        self._cells = (
            np.floor(pts / radius).astype(np.int64)
            if radius > 0 and np.isfinite(radius)
            else None
        )
        self._csr = csr
        return csr

    def csr(
        self,
        points: np.ndarray,
        radius: float,
        backend: GraphBackend | None = None,
    ) -> CSRGraph:
        """CSR unit-disk adjacency at *radius*, incrementally when possible.

        Always bit-identical to ``neighborhood_csr(points, radius)``; the
        incremental path only activates in the grid regime with stable
        *radius* and node count.
        """
        pts = as_points(points)
        n = pts.shape[0]
        if backend is None:
            backend = GraphBackend(pts)
        grid_regime = n > 0 and radius > 0 and np.isfinite(radius) and backend.use_grid(radius)
        if (
            not grid_regime
            or self._csr is None
            or self._cells is None
            or self._radius != radius
            or self._points is None
            or self._points.shape[0] != n
        ):
            return self._full_build(pts, radius, backend)

        prev_pts, prev_cells, prev = self._points, self._cells, self._csr
        moved = (pts != prev_pts).any(axis=1)
        if not moved.any():
            self.incremental_updates += 1
            self.reused_rows += n
            return prev

        cells = np.floor(pts / radius).astype(np.int64)
        if max(
            np.abs(cells).max(initial=0), np.abs(prev_cells).max(initial=0)
        ) >= _CELL_KEY_BOUND:
            return self._full_build(pts, radius, backend)

        # Dirty cells: every cell a moved node left or entered.  A row is
        # reusable iff its node is unmoved AND none of its 3x3 cells is
        # dirty — then its candidate set and every candidate's position
        # are unchanged, so the row's edges and distances are identical.
        dirty_keys = np.unique(
            np.concatenate(
                (_cell_keys(prev_cells[moved]), _cell_keys(cells[moved]))
            )
        )
        near_dirty = np.zeros(n, dtype=bool)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                shifted = ((cells[:, 0] + dx) << np.int64(32)) + (
                    (cells[:, 1] + dy) & np.int64(0xFFFFFFFF)
                )
                pos = np.searchsorted(dirty_keys, shifted)
                pos_c = np.minimum(pos, dirty_keys.size - 1)
                near_dirty |= (pos < dirty_keys.size) & (dirty_keys[pos_c] == shifted)
        dirty_nodes = moved | near_dirty
        n_dirty = int(dirty_nodes.sum())
        if n_dirty > n * _DIRTY_REBUILD_FRACTION:
            return self._full_build(pts, radius, backend)

        self.incremental_updates += 1
        self.recomputed_rows += n_dirty
        self.reused_rows += n - n_dirty
        fresh = backend._index_for(radius).neighbor_pairs(radius, only=dirty_nodes)
        old_rows = prev.rows_array()
        keep = ~dirty_nodes[old_rows]
        csr = CSRGraph.from_edges(
            np.concatenate((old_rows[keep], fresh.rows_array())),
            np.concatenate((prev.indices[keep], fresh.indices)),
            n,
            data=np.concatenate((prev.data[keep], fresh.data)),
        )
        self._points = pts.copy()
        self._cells = cells
        self._csr = csr
        return csr
