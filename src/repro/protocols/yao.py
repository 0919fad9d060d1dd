"""Yao-graph topology control (Yao; Wang, Li, Wan & Frieder 2003).

The disk around a node is split into ``k`` equal cones; the nearest
1-hop neighbor in each non-empty cone becomes a logical neighbor.  The
Yao graph is connected for ``k >= 6``; the paper notes Yao with k = 6 is a
special case of CBTC with alpha = 2*pi/3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.framework import SelectionResult
from repro.geometry.cones import cone_index
from repro.protocols.base import TopologyControlProtocol, register_protocol, view_rows
from repro.util.validate import check_int_range

__all__ = ["YaoProtocol"]


@register_protocol
class YaoProtocol(TopologyControlProtocol):
    """Yao-graph protocol: nearest neighbor per cone.

    Parameters
    ----------
    k:
        Number of cones (>= 6 guarantees connectivity of the Yao graph on
        consistent views).
    """

    name = "yao"

    def __init__(self, k: int = 6) -> None:
        check_int_range("k", k, 1)
        self.k = k

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        delta = pts[1:] - pts[0]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        best_per_cone: dict[int, tuple[float, int]] = {}
        for nid, d, (dx, dy) in zip(ids[1:], dist.tolist(), delta.tolist()):
            if d > normal_range:
                continue
            cone = cone_index(math.atan2(dy, dx), self.k)
            incumbent = best_per_cone.get(cone)
            # Deterministic tie-break on (distance, ID).
            if incumbent is None or (d, nid) < incumbent:
                best_per_cone[cone] = (d, nid)
        chosen = frozenset(nid for _, nid in best_per_cone.values())
        max_dist = max((d for d, _ in best_per_cone.values()), default=0.0)
        return SelectionResult(
            owner=ids[0], logical_neighbors=chosen, actual_range=max_dist
        )

    def __repr__(self) -> str:
        return f"YaoProtocol(k={self.k})"
