"""Spatial cell-hash index and the dense/grid graph-backend seam.

For the paper's ~100-node scenarios a dense ``(n, n)`` distance matrix is
unbeatable, but the ROADMAP's production-scale regimes (n in the
thousands, as in hierarchical-routing studies over dynamic networks) need
sub-quadratic neighbor discovery.  :class:`GridIndex` hashes points into
square cells of side ``cell_size`` (chosen equal to the query radius, so
every neighbor of a point lies in its 3x3 cell neighborhood) and answers
range queries by scanning only nearby cells.  The Hello receiver oracle
(:mod:`repro.sim.hello_batch`) keeps one index over stale positions, with
cells the query radius plus a movement slack wide, and reads whole 3x3
blocks (:meth:`GridIndex.candidates_near_cell`) as its candidates.

:class:`GraphBackend` is the dispatch seam: callers ask it for unit-disk
adjacency or radius queries and it picks the dense matrix or the grid
index by point count, so call sites never branch themselves.  Thresholds
and block sizes are documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import as_points, distances_from, pairwise_distances

__all__ = ["GridIndex", "GraphBackend", "DENSE_THRESHOLD"]

#: Below this point count the dense distance matrix wins (cache-friendly
#: BLAS-style broadcasting beats per-cell gathering by a wide margin).
DENSE_THRESHOLD = 512

#: In auto mode the grid is used only when the point bounding box spans at
#: least this many cell areas (``bbox_area > factor * radius**2``): with
#: fewer cells the 3x3 candidate blocks cover most of the point set and
#: the dense matrix is faster despite being O(n^2).
GRID_AREA_FACTOR = 20.0


class GridIndex:
    """Uniform-cell spatial hash over a fixed set of 2-D points.

    Parameters
    ----------
    points:
        ``(n, 2)`` point set (coerced via :func:`as_points`).
    cell_size:
        Side of the square hash cells; must be positive.  For unit-disk
        queries at radius *r*, ``cell_size = r`` confines every candidate
        neighbor to the 3x3 cell block around a point's own cell.
    """

    __slots__ = ("points", "cell_size", "_cells", "_buckets")

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0 or not np.isfinite(cell_size):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size!r}")
        self.points = as_points(points)
        self.cell_size = float(cell_size)
        self._cells = np.floor(self.points / self.cell_size).astype(np.int64)
        self._buckets: dict[tuple[int, int], np.ndarray] = {}
        if self.points.shape[0] == 0:
            return
        order = np.lexsort((self._cells[:, 1], self._cells[:, 0]))
        sorted_cells = self._cells[order]
        boundary = np.flatnonzero(
            (sorted_cells[1:, 0] != sorted_cells[:-1, 0])
            | (sorted_cells[1:, 1] != sorted_cells[:-1, 1])
        )
        starts = np.concatenate(([0], boundary + 1))
        ends = np.concatenate((boundary + 1, [order.shape[0]]))
        for s, e in zip(starts, ends):
            key = (int(sorted_cells[s, 0]), int(sorted_cells[s, 1]))
            self._buckets[key] = np.sort(order[s:e])

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self.points.shape[0]

    @property
    def n_occupied_cells(self) -> int:
        """Number of non-empty hash cells (diagnostics)."""
        return len(self._buckets)

    def candidates_near_cell(self, cx: int, cy: int, span: int = 1) -> np.ndarray:
        """Indices of points in the ``(2*span+1)^2`` cell block around (cx, cy)."""
        found = [
            self._buckets[key]
            for dx in range(-span, span + 1)
            for dy in range(-span, span + 1)
            if (key := (cx + dx, cy + dy)) in self._buckets
        ]
        if not found:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(found)

    def neighbors_within(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of indexed points with ``d(point, .) <= radius``, ascending.

        Matches the boundary-inclusive unit-disk convention of
        :func:`repro.geometry.points.neighbors_within` exactly.
        """
        if self.n_points == 0 or radius < 0:
            return np.empty(0, dtype=np.intp)
        p = np.asarray(point, dtype=np.float64).reshape(2)
        span = max(1, int(np.ceil(radius / self.cell_size)))
        cx, cy = (int(c) for c in np.floor(p / self.cell_size))
        cand = self.candidates_near_cell(cx, cy, span)
        if cand.size == 0:
            return cand
        d = distances_from(p, self.points[cand])
        hits = cand[d <= radius]
        return np.sort(hits)

    def unit_disk(self, radius: float) -> np.ndarray:
        """Boolean unit-disk adjacency (``0 < index distance``, ``d <= radius``).

        Bit-identical to the dense construction; only near cells are
        scanned, so work is O(n * average 3x3-block occupancy) instead of
        O(n^2).
        """
        n = self.n_points
        out = np.zeros((n, n), dtype=bool)
        if n == 0 or radius < 0:
            return out
        span = max(1, int(np.ceil(radius / self.cell_size)))
        for (cx, cy), members in self._buckets.items():
            cand = self.candidates_near_cell(cx, cy, span)
            diff = self.points[members][:, np.newaxis, :] - self.points[cand][np.newaxis, :, :]
            close = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
            rows = np.repeat(members, cand.size)[close.ravel()]
            cols = np.tile(cand, members.size)[close.ravel()]
            out[rows, cols] = True
        np.fill_diagonal(out, False)
        return out

    def neighbor_pairs(self, radius: float, only: np.ndarray | None = None):
        """Unit-disk adjacency at *radius* as a :class:`CSRGraph` with edge
        lengths — the never-densified counterpart of :meth:`unit_disk`.

        Distances use the same split-axis ``sqrt(dx*dx + dy*dy)`` IEEE
        sequence and the same boundary-inclusive ``d <= radius`` predicate
        as :func:`repro.geometry.points.pairwise_distances`, so the result
        is bit-identical to ``CSRGraph.from_dense(dense_adj, dense_dist)``.

        *only* optionally restricts the *rows* (edge sources) to a boolean
        node mask — the primitive behind dirty-region incremental rebuilds,
        where unaffected rows are spliced from the previous generation.
        """
        from repro.geometry.csr import CSRGraph

        n = self.n_points
        if n == 0 or radius < 0:
            return CSRGraph.empty(n)
        span = max(1, int(np.ceil(radius / self.cell_size)))
        x, y = self.points[:, 0], self.points[:, 1]
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        for (cx, cy), members in self._buckets.items():
            if only is not None:
                members = members[only[members]]
                if members.size == 0:
                    continue
            cand = np.sort(self.candidates_near_cell(cx, cy, span))
            dx = x[members][:, np.newaxis] - x[cand][np.newaxis, :]
            dy = y[members][:, np.newaxis] - y[cand][np.newaxis, :]
            dx *= dx
            dy *= dy
            dx += dy
            d = np.sqrt(dx, out=dx)
            close = (d <= radius) & (members[:, np.newaxis] != cand[np.newaxis, :])
            keep = close.ravel()
            rows_parts.append(np.repeat(members, cand.size)[keep])
            cols_parts.append(np.tile(cand, members.size)[keep])
            data_parts.append(d.ravel()[keep])
        if not rows_parts:
            return CSRGraph.empty(n)
        # cand is ascending within each bucket block, and every row lives in
        # exactly one bucket, so a stable sort by row yields ascending
        # columns per row.
        return CSRGraph.from_edges(
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            n,
            data=np.concatenate(data_parts),
        )

    def cell_of(self, node: int) -> tuple[int, int]:
        """Hash-cell coordinates of an indexed point (diagnostics)."""
        return (int(self._cells[node, 0]), int(self._cells[node, 1]))


class GraphBackend:
    """Dense/grid dispatch facade for neighbor discovery on one point set.

    Build once per point set; every query then runs on whichever
    representation fits:

    - ``mode="dense"``, or auto with ``n < dense_threshold``, a distance
      matrix already computed, or a bounding box spanning fewer than
      :data:`GRID_AREA_FACTOR` cell areas: one cached dense distance
      matrix serves all queries;
    - otherwise (``mode="grid"``, or auto at scale with a radius small
      relative to the deployment area): a :class:`GridIndex` with
      ``cell_size = radius`` answers each query sub-quadratically.

    Callers never branch on the representation — that is the seam that
    lets ``unit_disk_graph`` / ``neighbors_within`` scale without call-site
    changes.
    """

    __slots__ = ("points", "mode", "dense_threshold", "_dist", "_indices", "_bbox_area")

    def __init__(
        self,
        points: np.ndarray,
        *,
        mode: str = "auto",
        dense_threshold: int = DENSE_THRESHOLD,
    ) -> None:
        if mode not in ("auto", "dense", "grid"):
            raise ValueError(f"mode must be 'auto', 'dense' or 'grid', got {mode!r}")
        self.points = as_points(points)
        self.dense_threshold = int(dense_threshold)
        self.mode = mode
        self._dist: np.ndarray | None = None
        self._indices: dict[float, GridIndex] = {}
        self._bbox_area: float | None = None

    def _use_grid(self, radius: float) -> bool:
        """Pick the representation for one query (auto mode is per-radius)."""
        if self.mode != "auto":
            return self.mode == "grid"
        n = self.points.shape[0]
        if n < self.dense_threshold or self._dist is not None or radius <= 0:
            return False
        if not np.isfinite(radius):
            return False
        if self._bbox_area is None:
            span = self.points.max(axis=0) - self.points.min(axis=0)
            self._bbox_area = float(span[0] * span[1])
        return self._bbox_area > GRID_AREA_FACTOR * radius * radius

    def use_grid(self, radius: float) -> bool:
        """Public form of the per-query representation choice."""
        return self._use_grid(radius)

    @property
    def n_points(self) -> int:
        """Number of points served by this backend."""
        return self.points.shape[0]

    def distances(self) -> np.ndarray:
        """The dense distance matrix (computed lazily, cached)."""
        if self._dist is None:
            self._dist = pairwise_distances(self.points)
        return self._dist

    def _index_for(self, radius: float) -> GridIndex:
        index = self._indices.get(radius)
        if index is None:
            index = GridIndex(self.points, cell_size=radius)
            self._indices[radius] = index
        return index

    def unit_disk(self, radius: float) -> np.ndarray:
        """Unit-disk adjacency at *radius* via the selected representation."""
        if self.n_points == 0 or radius <= 0 or not self._use_grid(radius):
            adj = self.distances() <= radius
            np.fill_diagonal(adj, False)
            return adj
        return self._index_for(radius).unit_disk(radius)

    def neighbors_within(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of points with ``d(point, .) <= radius``, ascending."""
        if self.n_points == 0 or radius <= 0 or not self._use_grid(radius):
            return np.flatnonzero(distances_from(point, self.points) <= radius)
        return self._index_for(radius).neighbors_within(point, radius)

    def neighbor_csr(self, radius: float):
        """Unit-disk adjacency at *radius* as an edge-weighted CSR graph.

        The sparse counterpart of :meth:`unit_disk`: same dense/grid
        dispatch, but the grid path never materializes an ``(n, n)``
        matrix.  See :func:`repro.geometry.sparse.neighborhood_csr`.
        """
        from repro.geometry.sparse import neighborhood_csr

        return neighborhood_csr(self.points, radius, backend=self)
