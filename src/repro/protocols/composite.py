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
from repro.protocols.base import TopologyControlProtocol, owner_distances, view_rows
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

    @staticmethod
    def _survivors(results: list[SelectionResult]) -> frozenset[int]:
        return frozenset.intersection(*(r.logical_neighbors for r in results))

    def select_batch(self, ids, pts, normal_range):
        selected = zip(*(p.select_batch(ids, pts, normal_range) for p in self.protocols))
        results = []
        for (row, xy, _), constituents in zip(view_rows(ids, pts, normal_range), selected):
            survivors = self._survivors(list(constituents))
            distance = dict(zip(row, owner_distances(xy)))
            results.append(
                SelectionResult(
                    owner=row[0],
                    logical_neighbors=survivors,
                    actual_range=max((distance[v] for v in survivors), default=0.0),
                )
            )
        return results

    def select_histories(self, ids, counts, pts, normal_range):
        if not self.supports_conservative:
            # raises ProtocolError
            return super().select_histories(ids, counts, pts, normal_range)
        survivors = self._survivors(
            [p.select_histories(ids, counts, pts, normal_range) for p in self.protocols]
        )
        # Conservative coverage: the farthest retained position pair, with
        # Hello.distance_to's math.hypot arithmetic.
        members, xy = ids.tolist(), pts.tolist()
        owner = members[0]
        ends = np.cumsum(counts).tolist()
        history = {
            nid: xy[end - count : end]
            for nid, end, count in zip(members, ends, counts.tolist())
        }
        actual = 0.0
        for v in survivors:
            for x0, y0 in history[owner]:
                for x, y in history[v]:
                    actual = max(actual, math.hypot(x0 - x, y0 - y))
        return SelectionResult(
            owner=owner, logical_neighbors=survivors, actual_range=actual
        )

    def __repr__(self) -> str:
        return f"CompositeProtocol({self.protocols!r})"
