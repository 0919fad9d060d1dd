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
from repro.core.framework import SelectionResult
from repro.core.views import LocalView, MultiVersionView, distance_bounds
from repro.util.errors import ProtocolError

__all__ = ["TopologyControlProtocol", "ConditionProtocol", "owner_path_costs", "two_hop_witnessed", "owner_distances", "view_rows", "register_protocol", "make_protocol", "available_protocols"]

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


def _pair_below(a1, b1, a2, b2) -> np.ndarray:
    """Elementwise ``(min, max)`` ID-pair order: link (a1, b1) before (a2, b2)."""
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)
    return (lo1 < lo2) | ((lo1 == lo2) & (hi1 < hi2))


def two_hop_witnessed(
    ids: np.ndarray,
    adj: np.ndarray,
    cost_low: np.ndarray,
    cost_high: np.ndarray,
    summed: bool = False,
) -> np.ndarray:
    """``(B, M)`` mask: owner link ``(0, v)`` has a 2-hop witness.

    A member ``w`` adjacent to both ends witnesses against ``(0, v)`` when
    its legs order below the direct link in the total order of link keys
    ``(cost, min id, max id)``, legs read at ``cost_high`` and the direct
    link at ``cost_low``: both legs ``(0, w)`` and ``(v, w)`` for
    condition 1 (RNG), or, with *summed*, their sum keyed by ``(0, w)``
    (relay regions; Gabriel on squared distances).  Costs decide alone
    where they differ, so the ID pairs are compared only for links that
    survive the strict cost test and have a leg costing exactly the
    direct link.
    """
    owner_adj = adj[:, 0, :]
    # Axis 1 is the owner's neighbor v, axis 2 the witness w.
    candidate = adj & owner_adj[:, np.newaxis, :] & owner_adj[:, :, np.newaxis]
    owner_leg = cost_high[:, np.newaxis, 0, :]
    direct = cost_low[:, 0, :, np.newaxis]
    if summed:
        strict = owner_leg + cost_high < direct
    else:
        strict = (owner_leg < direct) & (cost_high < direct)
    removable = (candidate & strict).any(axis=2)
    # Exact cost ties: only a link that survived the strict test can
    # still fall to a witness whose ID pair orders below it.
    b, v = np.nonzero(owner_adj & ~removable)
    direct = direct[b, v]
    owner_leg, vw_leg = cost_high[b, 0, :], cost_high[b, v, :]
    legs = [owner_leg + vw_leg] if summed else [owner_leg, vw_leg]
    tied = candidate[b, v]
    exact = np.zeros_like(tied)
    for leg in legs:
        tied &= leg <= direct
        exact |= leg == direct
    tied &= exact
    if tied.any():
        k, w = np.nonzero(tied)
        b, v, direct = b[k], v[k], direct[k, 0]
        owner, iv, iw = ids[b, 0], ids[b, v], ids[b, w]
        # The first leg joins w to the owner, RNG's second one w to v.
        witness = np.ones(k.size, dtype=bool)
        for leg, end in zip(legs, (owner, iv)):
            leg = leg[k, w]
            witness &= (leg < direct) | ((leg == direct) & _pair_below(end, iw, owner, iv))
        removable[b[witness], v[witness]] = True
    return removable


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

    Subclasses provide a cost model and :meth:`_batch_removable`, their
    removal condition as one array kernel over padded blocks of lower and
    upper cost bounds (the enhanced conditions: lower bounds for the
    candidate link, upper bounds for witnesses).  Both routes end in the
    same selection body: :meth:`select_batch` passes each view's
    distances as both bounds, :meth:`select_histories` the members'
    ``[dMin, dMax]`` (:func:`~repro.core.views.distance_bounds`).
    """

    supports_conservative = True

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or DistanceCost()

    @abstractmethod
    def _batch_removable(
        self,
        ids: np.ndarray,
        adj: np.ndarray,
        cost_low: np.ndarray,
        cost_high: np.ndarray,
    ) -> np.ndarray:
        """``(B, M)`` mask: owner link ``(0, v)`` of row ``b`` is removable.

        Inputs are the padded ``(B, M)`` IDs (``-1`` pads) and ``(B, M,
        M)`` adjacency and lower / upper cost bounds, one array twice on
        single-version views; entries off the owner's adjacency are
        ignored.
        """

    def _select(
        self,
        ids: np.ndarray,
        dist_low: np.ndarray,
        dist_high: np.ndarray,
        normal_range: np.ndarray,
    ) -> list[SelectionResult]:
        """Select from padded ``(B, M, M)`` distance bounds: a pair is
        adjacent if its lower bound is in range (conservative link
        presence), survivors are the owner links :meth:`_batch_removable`
        keeps, and the range covers each survivor's upper bound."""
        m = ids.shape[1]
        # NaN padding compares False, so padded members are never adjacent.
        adj = dist_low <= normal_range[:, np.newaxis, np.newaxis]
        diag = np.arange(m)
        adj[:, diag, diag] = False
        cost_low = np.asarray(self.cost_model.from_distance(dist_low), dtype=np.float64)
        cost_high = (
            cost_low
            if dist_high is dist_low
            else np.asarray(self.cost_model.from_distance(dist_high), dtype=np.float64)
        )
        survivors = adj[:, 0, :] & ~self._batch_removable(ids, adj, cost_low, cost_high)
        ranges = np.where(survivors, dist_high[:, 0, :], 0.0).max(axis=1)
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

    def select_batch(
        self, ids: np.ndarray, pts: np.ndarray, normal_range: np.ndarray
    ) -> list[SelectionResult]:
        x, y = pts[..., 0], pts[..., 1]
        # sqrt(dx*dx + dy*dy) in place: the batch holds two (B, M, M)
        # floats at most.
        dist = x[:, :, np.newaxis] - x[:, np.newaxis, :]
        dy = y[:, :, np.newaxis] - y[:, np.newaxis, :]
        dist *= dist
        dy *= dy
        dist += dy
        del dy
        np.sqrt(dist, out=dist)
        return self._select(ids, dist, dist, normal_range)

    def select_histories(self, ids, counts, pts, normal_range):
        dist_low, dist_high = distance_bounds(counts, pts)
        return self._select(
            ids[np.newaxis],
            dist_low[np.newaxis],
            dist_high[np.newaxis],
            np.array([normal_range], dtype=np.float64),
        )[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cost_model={self.cost_model!r})"
