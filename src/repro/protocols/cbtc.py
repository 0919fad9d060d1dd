"""Cone-based topology control, CBTC (Li, Halpern, Bahl, Wang &
Wattenhofer 2001; Wattenhofer et al. 2001).

A node grows its neighbor set outward (nearest first — the localized
analogue of growing the broadcast search radius) until every angular gap
between the directions of chosen neighbors is at most ``alpha``, or its
1-hop neighborhood is exhausted.  ``alpha <= 5*pi/6`` preserves
connectivity; ``alpha <= 2*pi/3`` keeps the symmetric subgraph connected.
The optional *shrink-back* optimization then discards any neighbor whose
removal leaves the cone coverage intact, scanning farthest-first.

CBTC needs only *direction* information, so it has no cost-comparison
structure and therefore no conservative (weak-consistency) mode; the
paper's strong-consistency and buffer-zone mechanisms still apply to it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.framework import SelectionResult
from repro.geometry.cones import covers_with_alpha
from repro.protocols.base import TopologyControlProtocol, register_protocol, view_rows
from repro.util.errors import ConfigurationError

__all__ = ["CbtcProtocol"]


@register_protocol
class CbtcProtocol(TopologyControlProtocol):
    """Cone-based topology control.

    Parameters
    ----------
    alpha:
        Maximum tolerated angular gap, radians, in (0, 2*pi].  Defaults to
        2*pi/3, the symmetric-connectivity threshold.
    shrink_back:
        Apply the shrink-back optimization after the growth phase.
    """

    name = "cbtc"

    def __init__(self, alpha: float = 2.0 * math.pi / 3.0, shrink_back: bool = True) -> None:
        if not (0.0 < alpha <= 2.0 * math.pi):
            raise ConfigurationError(f"alpha must be in (0, 2*pi], got {alpha}")
        self.alpha = float(alpha)
        self.shrink_back = bool(shrink_back)

    @classmethod
    def for_k_connectivity(cls, k: int, shrink_back: bool = True) -> "CbtcProtocol":
        """CBTC tuned for k-connectivity (Bahramgiri et al. 2002).

        Their fault-tolerant extension proves the cone angle
        ``alpha = 2*pi/(3k)`` yields a k-connected topology whenever the
        unit-disk graph at the normal range is k-connected.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        return cls(alpha=2.0 * math.pi / (3.0 * k), shrink_back=shrink_back)

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        delta = pts[1:] - pts[0]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        records = sorted(  # (distance, id, angle)
            (d, nid, math.atan2(dy, dx))
            for nid, d, (dx, dy) in zip(ids[1:], dist.tolist(), delta.tolist())
            if d <= normal_range
        )

        chosen: list[tuple[float, int, float]] = []
        for rec in records:
            chosen.append(rec)
            if covers_with_alpha([r[2] for r in chosen], self.alpha):
                break

        if self.shrink_back and len(chosen) > 1:
            # Drop farthest-first any neighbor not needed for coverage.
            for rec in sorted(chosen, reverse=True):
                trial = [r for r in chosen if r is not rec]
                if trial and covers_with_alpha([r[2] for r in trial], self.alpha):
                    chosen = trial

        max_dist = max((r[0] for r in chosen), default=0.0)
        return SelectionResult(
            owner=ids[0],
            logical_neighbors=frozenset(r[1] for r in chosen),
            actual_range=max_dist,
        )

    def __repr__(self) -> str:
        return f"CbtcProtocol(alpha={self.alpha:.4f}, shrink_back={self.shrink_back})"
