"""LMST: local-MST-based topology control (Li, Hou & Sha 2003).

Each node builds an MST over its 1-hop view and keeps its tree neighbors.
Because link costs are totally ordered (IDs break ties), this is exactly
removal condition 3: drop (u, v) iff some u→v path exists whose *every*
link is cheaper — i.e. the direct link is not the bottleneck-optimal
connection.  The paper notes LMST yields the sparsest (near-tree, mean
degree ≈ 2.09) and therefore most mobility-fragile logical topology.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import _triu_indices, mst_removable_batch
from repro.protocols.base import ConditionProtocol, owner_path_costs, register_protocol

__all__ = ["MstProtocol"]


@register_protocol
class MstProtocol(ConditionProtocol):
    """Local minimum-spanning-tree protocol (removal condition 3).

    Single-version selection computes every owner's bottleneck path costs
    of a padded batch of views at once (:meth:`select_batch`;
    :meth:`select` is a batch of one) and drops a link iff some path's
    every link is cheaper.  A view in which two distinct links cost
    exactly the same needs the ``(cost, min id, max id)`` order, so its
    row goes to the predicate, the rank-based :func:`repro.core.framework
    .mst_removable_batch`, which is also the conservative route and the
    reference the batched kernel is tested against.
    """

    name = "mst"

    @property
    def _removable(self):
        return mst_removable_batch

    def _batch_removable(self, ids, dist, adj, cost):
        removable = owner_path_costs(adj, cost, np.maximum) < cost[:, 0, :]
        iu, iv = _triu_indices(ids.shape[1])
        # NaN marks non-links; it sorts last and never compares equal.
        links = np.sort(np.where(adj, cost, np.nan)[:, iu, iv], axis=1)
        tied = np.flatnonzero((links[:, 1:] == links[:, :-1]).any(axis=1))
        return self._predicate_rows(tied, ids, dist, adj, cost, removable)
