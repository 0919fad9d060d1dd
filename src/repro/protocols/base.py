"""Protocol interface: pure functions from local views to logical neighbors.

A protocol never touches simulator state; it maps a padded block of
single-version views, as arrays (:meth:`~TopologyControlProtocol
.select_batch`; a :class:`LocalView` is a block of one), or, in
conservative mode, one multi-version view as its members' position
histories (:meth:`~TopologyControlProtocol.select_histories`; a
:class:`MultiVersionView` flattens to them), to
:class:`SelectionResult` s.  This is what lets the same implementations
run unchanged under baseline, view-synchronized, strongly consistent, and
weakly consistent regimes — the paper's whole point is that the base
protocols need no modification (or only this *conservative* evaluation
mode, for weak consistency).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import compress

import numpy as np

from repro.core.costs import CostModel, DistanceCost
from repro.core.framework import (
    LocalCostGraph,
    SelectionResult,
    apply_removal_condition,
    removal_verdicts,
)
from repro.core.views import LocalView, MultiVersionView, distance_bounds
from repro.util.errors import ProtocolError

__all__ = ["TopologyControlProtocol", "ConditionProtocol", "owner_path_costs", "owner_distances", "view_rows", "register_protocol", "make_protocol", "available_protocols"]

_REGISTRY: dict[str, type["TopologyControlProtocol"]] = {}


def register_protocol(cls: type["TopologyControlProtocol"]) -> type["TopologyControlProtocol"]:
    """Class decorator: register a protocol under its ``name`` attribute."""
    key = cls.name  # type: ignore[attr-defined]
    if key in _REGISTRY:
        raise ProtocolError(f"protocol name {key!r} registered twice")
    _REGISTRY[key] = cls
    return cls


def available_protocols() -> list[str]:
    """Names of all registered protocols."""
    return sorted(_REGISTRY)


def make_protocol(name: str, **kwargs) -> "TopologyControlProtocol":
    """Instantiate a registered protocol by name (CLI / config entry point).

    Composite names join registered names with ``&`` (e.g. ``"rng&spt2"``)
    and build the intersection protocol; keyword arguments are not
    supported for composites (configure constituents by registering them
    or constructing :class:`~repro.protocols.composite.CompositeProtocol`
    directly).
    """
    if "&" in name:
        if kwargs:
            raise ProtocolError("composite protocol names take no kwargs")
        from repro.protocols.composite import CompositeProtocol

        return CompositeProtocol([make_protocol(part) for part in name.split("&")])
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None
    return cls(**kwargs)


def owner_path_costs(adj: np.ndarray, cost: np.ndarray, combine) -> np.ndarray:
    """Best path cost from the owner (column 0) to every member, per row.

    Vectorised Bellman-Ford over the padded ``(B, M, M)`` cost matrices:
    ``d = min(d, min_k combine(d[:, k], w[:, k, :]))`` until no row
    changes (at most ``M`` rounds), where ``w`` is ``cost`` on adjacent
    pairs and ``inf`` elsewhere.  ``combine`` is ``np.add`` for summed
    path costs (condition 2) and ``np.maximum`` for bottlenecks
    (condition 3).  Both are monotone and costs are non-negative, so the
    least fixpoint is the exact minimum over paths of the float path cost
    -- the value Dijkstra computes.
    """
    w = np.where(adj, cost, np.inf)
    d = w[:, 0, :].copy()
    d[:, 0] = 0.0
    while True:
        relaxed = np.minimum(d, combine(d[:, :, np.newaxis], w).min(axis=1))
        if np.array_equal(relaxed, d):
            return d
        d = relaxed


def view_rows(ids: np.ndarray, pts: np.ndarray, normal_range: np.ndarray):
    """Yield ``(ids, pts, normal_range)`` of each view of a padded block,
    unpadded: the member ID list (owner first), their ``(m, 2)``
    positions and the link threshold as a float."""
    for row_ids, row_pts, reach in zip(ids, pts, normal_range.tolist()):
        m = int(np.count_nonzero(row_ids >= 0))
        yield row_ids[:m].tolist(), row_pts[:m], reach


def owner_distances(pts: np.ndarray) -> list[float]:
    """Distance from the owner (row 0) to every member of an unpadded
    view, with :meth:`Hello.distance_to <repro.core.views.Hello.distance_to>`'s
    ``math.hypot`` arithmetic."""
    xy = pts.tolist()
    x0, y0 = xy[0]
    return [math.hypot(x0 - x, y0 - y) for x, y in xy]


class TopologyControlProtocol(ABC):
    """Base class for localized topology control protocols.

    Subclasses set :attr:`name` and implement :meth:`select_batch`.
    Protocols whose decisions are pure cost comparisons (RNG / SPT / MST
    / Gabriel / enclosure) also implement :meth:`select_histories` for
    weak view consistency; geometric protocols (Yao, CBTC) have no
    conservative mode and say so via :attr:`supports_conservative`.
    """

    #: registry key and report label, e.g. ``"rng"``
    name: str = ""
    #: True if select_histories implements the enhanced conditions
    supports_conservative: bool = False

    @abstractmethod
    def select_batch(
        self, ids: np.ndarray, pts: np.ndarray, normal_range: np.ndarray
    ) -> list[SelectionResult]:
        """Choose for a padded batch of single-version views at once.

        Row ``b`` is one owner's view: ``ids[b]`` (shape ``(B, M)``) holds
        the member IDs with the owner in column 0, ``pts[b]`` (shape
        ``(B, M, 2)``) their advertised positions, and ``normal_range[b]``
        the view's link threshold.  Rows shorter than ``M`` are padded
        with ID ``-1`` at NaN positions.  Result ``b`` depends on row
        ``b`` alone, whatever the padding and member order.
        """

    def select(self, view: LocalView) -> SelectionResult:
        """Choose logical neighbors and actual range from a one-version
        view: :meth:`select_batch` on a batch of one."""
        ids, pts = view.positions()
        return self.select_batch(
            np.array([ids], dtype=np.int64),
            pts[np.newaxis],
            np.array([view.normal_range]),
        )[0]

    def select_histories(
        self, ids: np.ndarray, counts: np.ndarray, pts: np.ndarray, normal_range: float
    ) -> SelectionResult:
        """Choose conservatively from one k-version view (enhanced conditions).

        ``ids`` (shape ``(m,)``) holds the member IDs with the owner
        first; member ``i`` retains ``counts[i]`` positions, which follow
        those of member ``i - 1`` in ``pts`` (shape ``(sum(counts), 2)``),
        oldest first.  The result does not depend on the member order.

        The default raises, because a protocol without cost-comparison
        structure has no sound conservative mode; cost-based subclasses
        override this.
        """
        raise ProtocolError(
            f"protocol {self.name!r} does not support conservative (weak-consistency) mode"
        )

    def select_conservative(self, view: MultiVersionView) -> SelectionResult:
        """Choose conservatively from a k-version view:
        :meth:`select_histories` on its flattened histories."""
        return self.select_histories(*view.positions(), view.normal_range)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ConditionProtocol(TopologyControlProtocol):
    """Shared machinery for the link-removal-condition protocols.

    Subclasses provide a cost model and a removal predicate
    ``f(LocalCostGraph, owner_index, neighbor_index) -> bool`` (or a
    batch predicate, see :func:`~repro.core.framework
    .apply_removal_condition`).  :meth:`select_batch` holds the padded
    distance, adjacency and cost prelude and the survivors ->
    :class:`SelectionResult` tail; in between, :meth:`_batch_removable`
    runs the predicate on each row's :class:`LocalCostGraph`.  RNG, SPT
    and MST override it with array kernels over the whole block.  The
    predicate is also the conservative route (:meth:`select_histories`,
    on the interval graph of the members' distance bounds), and the
    reference those kernels are tested against (the predicate reads
    lower bounds for the candidate link and upper bounds for witnesses,
    which coincide on single-version views).
    """

    supports_conservative = True

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or DistanceCost()

    @property
    @abstractmethod
    def _removable(self):
        """The removal predicate for this protocol."""

    def _batch_removable(
        self, ids: np.ndarray, dist: np.ndarray, adj: np.ndarray, cost: np.ndarray
    ) -> np.ndarray:
        """``(B, M)`` mask: owner link ``(0, v)`` of row ``b`` is removable.

        Inputs are the padded ``(B, M)`` IDs and ``(B, M, M)`` distances,
        adjacency and costs of :meth:`select_batch`; entries off the
        owner's adjacency are ignored.
        """
        return self._predicate_rows(
            range(ids.shape[0]), ids, dist, adj, cost, np.zeros(ids.shape, dtype=bool)
        )

    def _predicate_rows(self, rows, ids, dist, adj, cost, removable) -> np.ndarray:
        """Overwrite *rows* of *removable* with the predicate's verdicts on
        each row's unpadded :class:`LocalCostGraph`."""
        for b in rows:
            m = int(np.count_nonzero(ids[b] >= 0))
            c = cost[b, :m, :m]
            d = dist[b, :m, :m]
            graph = LocalCostGraph(ids[b, :m].tolist(), adj[b, :m, :m], c, c, d, d)
            for v, dropped in removal_verdicts(graph, self._removable).items():
                removable[b, v] = dropped
        return removable

    def select_batch(
        self, ids: np.ndarray, pts: np.ndarray, normal_range: np.ndarray
    ) -> list[SelectionResult]:
        m = ids.shape[1]
        x, y = pts[..., 0], pts[..., 1]
        # sqrt(dx*dx + dy*dy), the IEEE sequence of from_local_view's
        # einsum, in place: the batch holds two (B, M, M) floats at most.
        dist = x[:, :, np.newaxis] - x[:, np.newaxis, :]
        dy = y[:, :, np.newaxis] - y[:, np.newaxis, :]
        dist *= dist
        dy *= dy
        dist += dy
        del dy
        np.sqrt(dist, out=dist)
        # NaN padding compares False, so padded members are never adjacent.
        adj = dist <= normal_range[:, np.newaxis, np.newaxis]
        diag = np.arange(m)
        adj[:, diag, diag] = False
        cost = np.asarray(self.cost_model.from_distance(dist), dtype=np.float64)
        survivors = adj[:, 0, :] & ~self._batch_removable(ids, dist, adj, cost)
        ranges = np.where(survivors, dist[:, 0, :], 0.0).max(axis=1)
        return [
            SelectionResult(
                owner=row[0],
                logical_neighbors=frozenset(compress(row, keep)),
                actual_range=reach,
            )
            for row, keep, reach in zip(
                ids.tolist(), survivors.tolist(), ranges.tolist()
            )
        ]

    def select_histories(self, ids, counts, pts, normal_range):
        graph = LocalCostGraph.from_distance_bounds(
            ids.tolist(), *distance_bounds(counts, pts), normal_range, self.cost_model
        )
        return apply_removal_condition(graph, self._removable)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cost_model={self.cost_model!r})"
