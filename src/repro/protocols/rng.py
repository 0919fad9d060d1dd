"""RNG-based topology control (Toussaint 1980; Cartigny et al. 2003).

Link (u, v) is removed when a third node w, visible to both, satisfies
``max(c(u,w), c(w,v)) < c(u,v)`` — removal condition 1 of the paper.
"""

from __future__ import annotations

from repro.protocols.base import ConditionProtocol, register_protocol, two_hop_witnessed

__all__ = ["RngProtocol"]


@register_protocol
class RngProtocol(ConditionProtocol):
    """Relative neighborhood graph protocol (removal condition 1).

    A witness needs both legs below the direct link in the ``(cost, min
    id, max id)`` order (:func:`~repro.protocols.base.two_hop_witnessed`),
    for every owner link of a padded block of views at once.
    """

    name = "rng"

    def _batch_removable(self, ids, adj, cost_low, cost_high):
        return two_hop_witnessed(ids, adj, cost_low, cost_high)
