"""Search-region minimum-energy protocol (Li & Halpern 2001 style).

The paper's future work singles out protocols "using a dynamic search
region [13], [14], [24], [32], where only partial 1-hop information ... is
available".  This implementation follows Li & Halpern's scheme: a node
starts from a small search radius, selects minimum-energy logical
neighbors *among nodes inside the region only*, and grows the region
iteratively until every neighbor outside it is reachable more cheaply
through a selected in-region relay than by direct transmission.  If no
radius short of the normal range achieves coverage the protocol degrades
to the plain SPT selection (full 1-hop information), exactly as Li &
Halpern's algorithm does.

One simplification versus the original: coverage is checked against the
*known* out-of-region neighbors rather than against every geometric
position outside the region (the original's conservative test).  Checking
actual neighbors exercises the identical grow-select-check loop while
staying inside the single-view protocol interface, and it never removes a
link the SPT condition would keep — so connectivity is preserved under the
same premises (Theorem 1 applies through removal condition 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.framework import SelectionResult
from repro.protocols.base import (
    TopologyControlProtocol,
    owner_distances,
    register_protocol,
    view_rows,
)
from repro.protocols.spt import SptProtocol
from repro.util.validate import check_positive, require

__all__ = ["SearchRegionSptProtocol"]


@register_protocol
class SearchRegionSptProtocol(TopologyControlProtocol):
    """Minimum-energy selection with an iteratively grown search region.

    Parameters
    ----------
    alpha:
        Path-loss exponent of the energy model.
    growth_factor:
        Multiplicative region growth per iteration (> 1).

    Notes
    -----
    Compared to :class:`~repro.protocols.spt.SptProtocol`, the selection
    is computed from *partial* 1-hop information whenever a small region
    already covers the neighborhood — the point of the search-region
    family is exactly that the common case needs only nearby nodes.
    :attr:`last_iterations` and :attr:`last_region` expose the cost of the
    final run (the last view of a batch) for overhead studies.
    """

    name = "spt-region"

    def __init__(self, alpha: float = 2.0, growth_factor: float = 2.0) -> None:
        self.growth_factor = check_positive("growth_factor", growth_factor)
        require(growth_factor > 1.0, f"growth_factor must exceed 1, got {growth_factor}")
        self._spt = SptProtocol(alpha=alpha)
        self.cost_model = self._spt.cost_model
        self.alpha = float(alpha)
        #: diagnostics of the most recent selection
        self.last_iterations = 0
        self.last_region = 0.0

    def _restricted_selection(
        self, ids, pts, d_own: list[float], region: float, normal_range: float
    ) -> SelectionResult:
        """SPT selection using only neighbors inside *region*."""
        inside = [0] + [j for j in range(1, len(ids)) if d_own[j] <= region]
        return self._spt.select_batch(
            np.array([[ids[j] for j in inside]], dtype=np.int64),
            pts[inside][np.newaxis],
            np.array([normal_range]),
        )[0]

    def _covers(self, pts, d_own: list[float], selected: list[int], region: float) -> bool:
        """True iff every known neighbor beyond *region* has a cheaper relay
        through a *selected* member (columns)."""
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()

        def cost(d: float) -> float:
            return float(self.cost_model.from_distance(d))

        for j in range(1, len(d_own)):
            if d_own[j] <= region:
                continue
            direct_cost = cost(d_own[j])
            if not any(
                cost(d_own[w]) + cost(math.hypot(xs[w] - xs[j], ys[w] - ys[j]))
                < direct_cost
                for w in selected
            ):
                return False
        return True

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        if len(ids) == 1:
            self.last_iterations, self.last_region = 0, 0.0
            return SelectionResult(
                owner=ids[0], logical_neighbors=frozenset(), actual_range=0.0
            )
        d_own = owner_distances(pts)
        column = {nid: j for j, nid in enumerate(ids)}
        region = max(min(d_own[1:]), 1e-9)
        iterations = 0
        while True:
            iterations += 1
            result = self._restricted_selection(ids, pts, d_own, region, normal_range)
            if region >= normal_range or (
                result.logical_neighbors
                and self._covers(
                    pts, d_own, [column[v] for v in result.logical_neighbors], region
                )
            ):
                self.last_iterations = iterations
                self.last_region = min(region, normal_range)
                return result
            region = min(region * self.growth_factor, normal_range)

    def __repr__(self) -> str:
        return (
            f"SearchRegionSptProtocol(alpha={self.alpha:g}, "
            f"growth_factor={self.growth_factor:g})"
        )
