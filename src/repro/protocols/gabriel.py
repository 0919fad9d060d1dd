"""Gabriel-graph topology control (Gabriel & Sokal 1969).

A special case of the RNG family where the witness must lie inside the
disk with diameter (u, v):  remove (u, v) iff some visible w satisfies
``d(u,w)^2 + d(w,v)^2 < d(u,v)^2``.  The Gabriel graph contains the RNG,
so it keeps slightly more links (useful as a redundancy ablation point
between RNG and SPT-2).
"""

from __future__ import annotations

from repro.core.costs import EnergyCost
from repro.protocols.base import ConditionProtocol, register_protocol, two_hop_witnessed

__all__ = ["GabrielProtocol"]


@register_protocol
class GabrielProtocol(ConditionProtocol):
    """Gabriel-graph protocol (diametral-disk witness removal).

    The diametral-disk test is the 2-hop relay test on squared distances,
    so links cost ``d**2`` and a witness's summed legs, keyed by the
    owner's leg, must order below the direct link
    (:func:`~repro.protocols.base.two_hop_witnessed`).
    """

    name = "gabriel"

    def __init__(self) -> None:
        super().__init__(EnergyCost(alpha=2.0))

    def _batch_removable(self, ids, adj, cost_low, cost_high):
        return two_hop_witnessed(ids, adj, cost_low, cost_high, summed=True)

    def __repr__(self) -> str:
        return "GabrielProtocol()"
