"""RNG-based topology control (Toussaint 1980; Cartigny et al. 2003).

Link (u, v) is removed when a third node w, visible to both, satisfies
``max(c(u,w), c(w,v)) < c(u,v)`` — removal condition 1 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import rng_removable_batch
from repro.protocols.base import ConditionProtocol, register_protocol

__all__ = ["RngProtocol"]


def _pair_below(a1, b1, a2, b2) -> np.ndarray:
    """Elementwise ``(min, max)`` ID-pair order: link (a1, b1) before (a2, b2)."""
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)
    return (lo1 < lo2) | ((lo1 == lo2) & (hi1 < hi2))


@register_protocol
class RngProtocol(ConditionProtocol):
    """Relative neighborhood graph protocol (removal condition 1).

    Single-version selection runs :meth:`select_batch`, which evaluates
    condition 1 for every owner link of many views in one array pass;
    :meth:`select` is a batch of one.  Conservative selection on interval
    cost graphs keeps the rank-based
    :func:`repro.core.framework.rng_removable_batch`, which is also the
    reference the batched kernel is tested against.
    """

    name = "rng"

    @property
    def _removable(self):
        return rng_removable_batch

    def _batch_removable(self, ids, dist, adj, cost):
        """Condition 1 for every owner link of a padded batch of views.

        On a single-version view the total order of link keys
        ``(cost, min id, max id)`` needs no rank matrices: a witness link
        is below the direct link if its cost is lower, and the ID pair is
        compared only where the two costs are exactly equal.
        """
        owner_adj = adj[:, 0, :]
        # Axis 1 is the owner's neighbor v, axis 2 the witness w.
        candidate = adj & owner_adj[:, np.newaxis, :] & owner_adj[:, :, np.newaxis]
        direct = cost[:, 0, :, np.newaxis]
        removable = (
            candidate & (cost[:, np.newaxis, 0, :] < direct) & (cost < direct)
        ).any(axis=2)
        # Exact cost ties: only a link that survived the strict test can
        # still fall to a witness whose ID pair orders below it.
        b, v = np.nonzero(owner_adj & ~removable)
        c_direct = cost[b, 0, v][:, np.newaxis]
        c_owner, c_vw = cost[b, 0, :], cost[b, v, :]
        tied = candidate[b, v] & (
            ((c_owner == c_direct) & (c_vw <= c_direct))
            | ((c_vw == c_direct) & (c_owner <= c_direct))
        )
        if tied.any():
            k, w = np.nonzero(tied)
            b, v, c_direct = b[k], v[k], c_direct[k, 0]
            c_owner, c_vw = c_owner[k, w], c_vw[k, w]
            owner, iv, iw = ids[b, 0], ids[b, v], ids[b, w]
            witness = (
                (c_owner < c_direct)
                | ((c_owner == c_direct) & _pair_below(owner, iw, owner, iv))
            ) & (
                (c_vw < c_direct)
                | ((c_vw == c_direct) & _pair_below(iv, iw, owner, iv))
            )
            removable[b[witness], v[witness]] = True
        return removable
