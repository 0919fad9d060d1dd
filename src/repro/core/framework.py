"""The paper's formal framework (Section 3): the result of a decision.

A topology control decision at a node is: build a *local cost graph* from
the node's view, then remove the node's adjacent links according to one of
three conditions (Section 3.1):

1. **RNG-style** — remove (u, v) if a 2-hop path (u, w, v) exists whose two
   links are both cheaper than (u, v);
2. **SPT-style** — remove (u, v) if any path exists whose *summed* cost is
   below c(u, v);
3. **MST-style** — remove (u, v) if any path exists whose *bottleneck*
   (maximum link) cost is below c(u, v).

Costs form a total order (ID pairs break exact ties, per the paper), which
is what makes Theorem 1 go through.  The *enhanced* conditions of Section
4.2 are the same conditions evaluated conservatively on cost intervals:
``cMin`` for the link under the knife, ``cMax`` for every witness link.
On a single-version view the two bounds coincide and the enhanced
conditions reduce to the plain ones — so one implementation serves both:
each condition is one array kernel over padded blocks of lower and upper
cost bounds (``_batch_removable`` of the protocols in
:mod:`repro.protocols`), which single-version selection calls with one
array twice and conservative selection with the members' distance bounds.
This module holds what every decision returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import ProtocolError

__all__ = ["SelectionResult"]


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of one node's logical-neighbor selection.

    Attributes
    ----------
    owner:
        The deciding node.
    logical_neighbors:
        IDs of the selected logical neighbors.
    actual_range:
        Transmission range covering the farthest logical neighbor, as
        believed by the owner (advertised distances, conservative bound
        under weak consistency).  Zero if no logical neighbors.
    """

    owner: int
    logical_neighbors: frozenset[int]
    actual_range: float

    def __post_init__(self) -> None:
        if self.owner in self.logical_neighbors:
            raise ProtocolError(f"node {self.owner} selected itself as logical neighbor")
        if self.actual_range < 0 or not math.isfinite(self.actual_range):
            raise ProtocolError(f"invalid actual range {self.actual_range!r}")
