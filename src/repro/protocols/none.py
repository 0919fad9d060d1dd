"""No topology control: every 1-hop neighbor is logical, range stays normal.

The paper's uncontrolled reference point (250 m range, mean degree ≈ 18 in
the default scenario) against which Table 1 measures the savings.
"""

from __future__ import annotations

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
        results = []
        for row, xy, reach in view_rows(ids, pts, normal_range):
            neighbors = frozenset(
                nid for nid, d in zip(row[1:], owner_distances(xy)[1:]) if d <= reach
            )
            results.append(SelectionResult(row[0], neighbors, reach if neighbors else 0.0))
        return results

    def select_histories(self, ids, pts, normal_range):
        # Every member at its newest retained position.
        return self.select_batch(ids, pts[:, :, -1], normal_range)
