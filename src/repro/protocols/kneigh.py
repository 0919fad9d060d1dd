"""K-Neigh probabilistic topology control (Blough, Leoncini, Resta &
Santi 2003).

Each node keeps its ``k`` nearest 1-hop neighbors and sets its range to
reach the k-th.  Connectivity is only probabilistic (the paper cites
95 % with k = 9); it serves as the uniform-degree baseline the paper
compares its adaptive mechanisms against.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import SelectionResult
from repro.protocols.base import TopologyControlProtocol, register_protocol, view_rows
from repro.util.validate import check_int_range

__all__ = ["KNeighProtocol"]


@register_protocol
class KNeighProtocol(TopologyControlProtocol):
    """Keep the k nearest neighbors (K-Neigh baseline).

    Parameters
    ----------
    k:
        Target neighbor count (Blough et al. recommend 9 for n ≈ 100).
    """

    name = "kneigh"

    def __init__(self, k: int = 9) -> None:
        check_int_range("k", k, 1)
        self.k = k

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        delta = pts[1:] - pts[0]
        dist = np.hypot(delta[:, 0], delta[:, 1]).tolist()
        kept = sorted(
            (d, nid) for d, nid in zip(dist, ids[1:]) if d <= normal_range
        )[: self.k]
        return SelectionResult(
            owner=ids[0],
            logical_neighbors=frozenset(nid for _, nid in kept),
            actual_range=max((d for d, _ in kept), default=0.0),
        )

    def __repr__(self) -> str:
        return f"KNeighProtocol(k={self.k})"
