"""Composite topology control: apply several removal conditions at once.

Section 2.1 closes with "the above schemes can be combined or enhanced to
achieve multiple desirable properties".  This module realises the
combination: a link survives only if it survives *every* constituent
protocol — equivalently, it is removed when any constituent's removal
condition fires.

Why this is still connectivity-safe: every constituent condition (1, 2,
3, Gabriel, enclosure) only removes a link when a witness path of
*strictly cheaper links* exists — for sum-based conditions each leg of the
witness is individually cheaper than the removed link, because costs are
positive.  Theorem 1's descending-order removal argument therefore goes
through for the union of removals, provided all constituents rank links
consistently; since every cost model is strictly increasing in distance,
the distance order is that common ranking.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.framework import SelectionResult
from repro.protocols.base import TopologyControlProtocol, view_rows
from repro.util.errors import ProtocolError

__all__ = ["CompositeProtocol"]


class CompositeProtocol(TopologyControlProtocol):
    """Intersection of several protocols' logical neighbor selections.

    Parameters
    ----------
    protocols:
        Constituent protocols (at least one).  The composite supports
        conservative (weak-consistency) mode iff all constituents do.

    Examples
    --------
    >>> from repro.protocols import RngProtocol, Spt2Protocol
    >>> combo = CompositeProtocol([RngProtocol(), Spt2Protocol()])
    >>> combo.name
    'rng&spt2'
    """

    def __init__(self, protocols: Sequence[TopologyControlProtocol]) -> None:
        if not protocols:
            raise ProtocolError("CompositeProtocol needs at least one constituent")
        self.protocols = list(protocols)
        self.name = "&".join(p.name for p in self.protocols)
        self.supports_conservative = all(
            p.supports_conservative for p in self.protocols
        )

    def select_batch(self, ids, pts, normal_range):
        selected = [p.select_batch(ids, pts, normal_range) for p in self.protocols]
        return self._intersect(selected, ids, pts[:, :, np.newaxis], normal_range)

    def select_histories(self, ids, pts, normal_range):
        if not self.supports_conservative:
            # raises ProtocolError
            return super().select_histories(ids, pts, normal_range)
        selected = [p.select_histories(ids, pts, normal_range) for p in self.protocols]
        return self._intersect(selected, ids, pts, normal_range)

    @staticmethod
    def _intersect(selected, ids, pts, normal_range) -> list[SelectionResult]:
        """Each row's links that every constituent keeps, at the range
        covering the farthest retained position pair of owner and
        survivor, with Hello.distance_to's math.hypot arithmetic."""
        results = []
        for (row, held, _), chosen in zip(view_rows(ids, pts, normal_range), zip(*selected)):
            survivors = frozenset.intersection(*(r.logical_neighbors for r in chosen))
            history = dict(zip(row, held.tolist()))
            reach = max(
                (
                    math.hypot(x0 - x, y0 - y)
                    for v in survivors
                    for x0, y0 in history[row[0]]
                    for x, y in history[v]
                ),
                default=0.0,
            )
            results.append(SelectionResult(row[0], survivors, reach))
        return results

    def __repr__(self) -> str:
        return f"CompositeProtocol({self.protocols!r})"
