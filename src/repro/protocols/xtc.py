"""XTC: order-based topology control (Wattenhofer & Zollinger 2004).

A contemporaneous alternative the paper's framework also covers: XTC
needs no positions at all, only each node's *ranking* of its neighbors by
link quality.  Node u drops neighbor v when some w exists that both u and
v rank better than each other:

    keep (u, v)  iff  no w with  w <_u v  and  w <_v u.

With link quality = Euclidean distance (what Hello positions give us),
XTC's survivors coincide with the RNG's — the interesting property is
*what information suffices*: where RNG needs coordinates, XTC needs only
comparisons, making it robust to noisy localisation.  In this repo the
orders are derived from advertised positions (our views carry them), but
the decision code below touches nothing except the order relation, so a
signal-strength-based order could be dropped in unchanged.
"""

from __future__ import annotations

import math

from repro.core.costs import cost_key
from repro.core.framework import SelectionResult
from repro.protocols.base import TopologyControlProtocol, register_protocol, view_rows

__all__ = ["XtcProtocol"]


@register_protocol
class XtcProtocol(TopologyControlProtocol):
    """Order-based topology control (XTC).

    Link-quality order: total order on a node's links by (distance,
    ID pair) — ties broken exactly like the framework's cost keys, so XTC
    inherits the same determinism discipline.
    """

    name = "xtc"

    def select_batch(self, ids, pts, normal_range):
        return [self._select_row(*row) for row in view_rows(ids, pts, normal_range)]

    def _select_row(self, ids, pts, normal_range) -> SelectionResult:
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()

        def distance(a: int, b: int) -> float:
            """Advertised distance between the members in columns a and b."""
            return math.hypot(xs[a] - xs[b], ys[a] - ys[b])

        def order_key(a: int, b: int) -> tuple:
            """u's ranking key of link (a, b) from the view's positions."""
            return cost_key(distance(a, b), ids[a], ids[b])

        neighbors = [v for v in range(1, len(ids)) if distance(0, v) <= normal_range]
        survivors: list[int] = []
        max_dist = 0.0
        for v in neighbors:
            key_uv = order_key(0, v)
            # w better for u than v, and (as far as u can tell from
            # advertised positions) better for v than u.
            if not any(
                w != v
                and order_key(0, w) < key_uv
                and distance(v, w) <= normal_range
                and order_key(v, w) < key_uv
                for w in neighbors
            ):
                survivors.append(ids[v])
                max_dist = max(max_dist, distance(0, v))
        return SelectionResult(
            owner=ids[0],
            logical_neighbors=frozenset(survivors),
            actual_range=max_dist,
        )
