"""LMST: local-MST-based topology control (Li, Hou & Sha 2003).

Each node builds an MST over its 1-hop view and keeps its tree neighbors.
Because link costs are totally ordered (IDs break ties), this is exactly
removal condition 3: drop (u, v) iff some u→v path exists whose *every*
link is cheaper — i.e. the direct link is not the bottleneck-optimal
connection.  The paper notes LMST yields the sparsest (near-tree, mean
degree ≈ 2.09) and therefore most mobility-fragile logical topology.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.protocols.base import ConditionProtocol, owner_path_costs, register_protocol

__all__ = ["MstProtocol"]


@lru_cache(maxsize=256)
def _triu_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``, built once per view size."""
    iu, iv = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    iv.flags.writeable = False
    return iu, iv


def _tied_rows(adj: np.ndarray, cost_low: np.ndarray, cost_high: np.ndarray) -> np.ndarray:
    """Rows in which a link's upper bound may equal an owner link's lower
    bound, so that only the ID pairs can order them: rows where a value
    repeats among the links' upper bounds and the owner links' lower
    bounds that differ from their upper ones."""
    iu, iv = _triu_indices(adj.shape[1])
    # NaN marks non-links; it sorts last and never compares equal.
    values = np.where(adj, cost_high, np.nan)[:, iu, iv]
    if cost_high is not cost_low:
        owner_low = cost_low[:, 0, :]
        distinct = adj[:, 0, :] & (owner_low != cost_high[:, 0, :])
        values = np.concatenate((values, np.where(distinct, owner_low, np.nan)), axis=1)
    values.sort(axis=1)
    return np.flatnonzero((values[:, 1:] == values[:, :-1]).any(axis=1))


def _joint_ranks(
    ids: np.ndarray, cost_low: np.ndarray, cost_high: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(low, high)``: dense integer ranks (as floats) of the link keys
    ``(cost, min id, max id)`` of both bound blocks, ranked jointly, so
    that ``high[b, i, j] < low[b, k, l]`` iff the key of the upper bound
    of link (i, j) orders below that of the lower bound of (k, l)."""
    shape = (2, *cost_low.shape)
    cost = np.stack((cost_low, cost_high)).ravel()
    lo = np.broadcast_to(np.minimum(ids[:, :, np.newaxis], ids[:, np.newaxis, :]), shape).ravel()
    hi = np.broadcast_to(np.maximum(ids[:, :, np.newaxis], ids[:, np.newaxis, :]), shape).ravel()
    # Primary key last.
    order = np.lexsort((hi, lo, cost))
    s_cost, s_lo, s_hi = cost[order], lo[order], hi[order]
    new_key = np.empty(order.size)
    new_key[0] = 0.0
    new_key[1:] = (
        (s_cost[1:] != s_cost[:-1]) | (s_lo[1:] != s_lo[:-1]) | (s_hi[1:] != s_hi[:-1])
    )
    ranks = np.empty(order.size)
    ranks[order] = np.cumsum(new_key)
    low, high = ranks.reshape(shape)
    return low, high


@register_protocol
class MstProtocol(ConditionProtocol):
    """Local minimum-spanning-tree protocol (removal condition 3).

    Computes every owner's bottleneck path costs over the witnesses'
    upper cost bounds of a padded block of views at once and drops a link
    iff some path's every link is cheaper than its lower bound.  Where a
    witness bound equals a direct one, the ``(cost, min id, max id)``
    order decides: those rows rerun the same bottleneck kernel on joint
    integer ranks of the keys.
    """

    name = "mst"

    def _batch_removable(self, ids, adj, cost_low, cost_high):
        removable = owner_path_costs(adj, cost_high, np.maximum) < cost_low[:, 0, :]
        tied = _tied_rows(adj, cost_low, cost_high)
        if tied.size:
            low, high = _joint_ranks(ids[tied], cost_low[tied], cost_high[tied])
            removable[tied] = owner_path_costs(adj[tied], high, np.maximum) < low[:, 0, :]
        return removable
