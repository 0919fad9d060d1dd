"""Enclosure (relay-region) topology control — Rodoplu & Meng 1999.

The original minimum-energy construction the paper cites as [24]: node w's
*relay region* with respect to u is the set of positions v where relaying
u→w→v consumes less energy than transmitting u→v directly.  u's
*enclosure* keeps exactly the neighbors not inside any other neighbor's
relay region; the resulting enclosure graph contains every minimum-energy
path.

Relation to :class:`~repro.protocols.spt.SptProtocol`: the SPT protocol
prunes with *multi-hop* witnesses (Li & Halpern's improvement), the
enclosure with 2-hop witnesses only — so the enclosure graph is a
supergraph of the SPT selection, slightly denser and correspondingly more
mobility-robust (a useful point on the redundancy spectrum between SPT
and RNG).
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import EnergyCost, cost_key
from repro.core.framework import LocalCostGraph
from repro.protocols.base import ConditionProtocol, register_protocol
from repro.util.validate import check_non_negative

__all__ = ["EnclosureProtocol", "enclosure_removable"]


def enclosure_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Remove (owner, v) iff v lies in some neighbor w's relay region.

    I.e. a 2-hop relay is strictly cheaper under the energy cost:
    ``c(u,w) + c(w,v) < c(u,v)`` (conservative form: upper bounds on the
    relay legs, lower bound on the direct link; ID keys break exact ties).
    Unlike the RNG condition this compares a *sum*, and unlike the SPT
    condition it considers only 2-hop paths.
    """
    target = cost_key(graph.cost_low[owner, v], graph.ids[owner], graph.ids[v])
    adj = graph.adj
    for w in np.flatnonzero(adj[owner] & adj[v]):
        if w == v or w == owner:
            continue
        relay = graph.cost_high[owner, w] + graph.cost_high[w, v]
        if cost_key(relay, graph.ids[owner], graph.ids[w]) < target:
            return True
    return False


@register_protocol
class EnclosureProtocol(ConditionProtocol):
    """Relay-region / enclosure minimum-energy protocol.

    Parameters
    ----------
    alpha:
        Path-loss exponent of the energy model (Rodoplu & Meng use the
        two-ray value 4 with a constant receiver term).
    receiver_cost:
        Constant per-hop relay overhead ``c`` (makes very short relays
        unattractive, as in the original model).
    """

    name = "enclosure"

    def __init__(self, alpha: float = 4.0, receiver_cost: float = 0.0) -> None:
        check_non_negative("receiver_cost", receiver_cost)
        super().__init__(EnergyCost(alpha=alpha, const=receiver_cost))
        self.alpha = float(alpha)
        self.receiver_cost = float(receiver_cost)

    @property
    def _removable(self):
        return enclosure_removable

    def __repr__(self) -> str:
        return (
            f"EnclosureProtocol(alpha={self.alpha:g}, "
            f"receiver_cost={self.receiver_cost:g})"
        )
