"""No topology control: every 1-hop neighbor is logical, range stays normal.

The paper's uncontrolled reference point (250 m range, mean degree ≈ 18 in
the default scenario) against which Table 1 measures the savings.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import SelectionResult
from repro.protocols.base import (
    TopologyControlProtocol,
    owner_distances,
    register_protocol,
    view_rows,
)

__all__ = ["NoTopologyControl"]


@register_protocol
class NoTopologyControl(TopologyControlProtocol):
    """Identity protocol: keep all 1-hop neighbors at the normal range."""

    name = "none"
    supports_conservative = True

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        neighbors = frozenset(
            nid
            for nid, d in zip(ids[1:], owner_distances(pts)[1:])
            if d <= normal_range
        )
        return SelectionResult(
            owner=ids[0],
            logical_neighbors=neighbors,
            actual_range=normal_range if neighbors else 0.0,
        )

    def select_histories(self, ids, counts, pts, normal_range):
        # Every member at its newest retained position.
        return self._select_row(ids.tolist(), pts[np.cumsum(counts) - 1], normal_range)
