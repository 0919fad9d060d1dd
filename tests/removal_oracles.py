"""Reference implementations of the removal conditions (test oracles).

The program decides every removal condition with one array kernel over
padded blocks of cost bounds (``_batch_removable`` of the condition
protocols).  This module keeps the per-graph forms those kernels are
tested against, written straight from the definitions:

- :class:`LocalCostGraph`, the dense cost graph of one view, whose
  integer ranks realise the ``(cost, min id, max id)`` total order of
  both bound matrices jointly;
- the per-link predicates (:func:`rng_removable`, :func:`spt_removable`
  (Dijkstra), :func:`mst_removable` (a BFS), :func:`gabriel_removable`,
  :func:`enclosure_removable`) and the per-graph batches
  (:func:`rng_removable_batch`, :func:`spt_removable_batch`,
  :func:`mst_removable_batch` (one Prim pass));
- :func:`apply_removal_condition`, the survivors and range of one graph;
- :func:`reduceat_distance_bounds`, the grouped-reduction form of
  :func:`repro.core.views.distance_bounds`.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.core.costs import CostModel, cost_key
from repro.core.framework import SelectionResult
from repro.core.views import LocalView
from repro.protocols import (
    EnclosureProtocol,
    GabrielProtocol,
    MstProtocol,
    RngProtocol,
    SptProtocol,
)


@lru_cache(maxsize=256)
def _triu_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``, built once per view size."""
    iu, iv = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    iv.flags.writeable = False
    return iu, iv


class LocalCostGraph:
    """Dense cost graph over the members of a local view.

    Attributes
    ----------
    ids:
        Member node IDs; index 0 is always the view owner.
    adj:
        ``(m, m)`` boolean adjacency (within normal range).
    cost_low / cost_high:
        ``(m, m)`` conservative cost bounds; equal on single-version views.
    dist_low / dist_high:
        Matching distance bounds (used for range assignment).
    """

    __slots__ = (
        "ids",
        "index",
        "adj",
        "cost_low",
        "cost_high",
        "dist_low",
        "dist_high",
        "_rank_low",
        "_rank_high",
    )

    def __init__(
        self,
        ids: Sequence[int],
        adj: np.ndarray,
        cost_low: np.ndarray,
        cost_high: np.ndarray,
        dist_low: np.ndarray,
        dist_high: np.ndarray,
    ) -> None:
        self.ids = list(ids)
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        self.adj = adj
        self.cost_low = cost_low
        self.cost_high = cost_high
        self.dist_low = dist_low
        self.dist_high = dist_high
        self._rank_low: np.ndarray | None = None
        self._rank_high: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of members (owner + neighbors)."""
        return len(self.ids)

    def key_low(self, i: int, j: int) -> tuple[float, int, int]:
        """Total-order key of the *lower* cost bound of link (i, j)."""
        return cost_key(self.cost_low[i, j], self.ids[i], self.ids[j])

    def key_high(self, i: int, j: int) -> tuple[float, int, int]:
        """Total-order key of the *upper* cost bound of link (i, j)."""
        return cost_key(self.cost_high[i, j], self.ids[i], self.ids[j])

    def _compute_ranks(self) -> None:
        """Dense integer ranks realising the total order of cost keys.

        Both bound matrices are ranked *jointly*, so
        ``rank_high[a,b] < rank_low[c,d]`` iff
        ``key_high(a,b) < key_low(c,d)`` — tuple semantics at NumPy
        comparison cost (the removal predicates run millions of key
        comparisons per simulation; see the optimization guide: vectorize
        the measured hot spot, nothing else).
        """
        m = len(self.ids)
        iu, iv = _triu_indices(m)
        ids_arr = np.asarray(self.ids)
        lo_ids = np.minimum(ids_arr[iu], ids_arr[iv])
        hi_ids = np.maximum(ids_arr[iu], ids_arr[iv])
        costs = np.concatenate([self.cost_low[iu, iv], self.cost_high[iu, iv]])
        lo2 = np.concatenate([lo_ids, lo_ids])
        hi2 = np.concatenate([hi_ids, hi_ids])
        # Dense ranks via lexsort (primary key last): ~10x faster than
        # np.unique on a structured dtype for these sizes.
        order = np.lexsort((hi2, lo2, costs))
        s_cost, s_lo, s_hi = costs[order], lo2[order], hi2[order]
        new_group = np.empty(order.shape[0], dtype=np.int64)
        new_group[0] = 0
        new_group[1:] = (
            (s_cost[1:] != s_cost[:-1])
            | (s_lo[1:] != s_lo[:-1])
            | (s_hi[1:] != s_hi[:-1])
        )
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new_group)
        k = iu.shape[0]
        rank_low = np.zeros((m, m), dtype=np.int64)
        rank_high = np.zeros((m, m), dtype=np.int64)
        rank_low[iu, iv] = rank_low[iv, iu] = inverse[:k]
        rank_high[iu, iv] = rank_high[iv, iu] = inverse[k:]
        self._rank_low, self._rank_high = rank_low, rank_high

    @property
    def rank_low(self) -> np.ndarray:
        """Integer total-order ranks of the lower cost bounds."""
        if self._rank_low is None:
            self._compute_ranks()
        return self._rank_low

    @property
    def rank_high(self) -> np.ndarray:
        """Integer total-order ranks of the upper cost bounds."""
        if self._rank_high is None:
            self._compute_ranks()
        return self._rank_high

    @classmethod
    def from_local_view(cls, view: LocalView, cost_model: CostModel) -> "LocalCostGraph":
        """Build the (exact-cost) graph of a single-version view."""
        ids, pts = view.positions()
        diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        adj = dist <= view.normal_range
        np.fill_diagonal(adj, False)
        cost = np.asarray(cost_model.from_distance(dist), dtype=np.float64)
        return cls(ids, adj, cost, cost, dist, dist)

    @classmethod
    def from_distance_bounds(
        cls,
        ids: Sequence[int],
        dist_low: np.ndarray,
        dist_high: np.ndarray,
        normal_range: float,
        cost_model: CostModel,
    ) -> "LocalCostGraph":
        """Build the interval-cost graph of a k-version view.

        For every member pair, distances over all retained position pairs
        give [dMin, dMax] (:func:`~repro.core.views.distance_bounds`);
        costs follow by monotonicity of the cost model.  A pair is
        adjacent if *any* position pair is within normal range
        (conservative link presence).
        """
        adj = dist_low <= normal_range
        np.fill_diagonal(adj, False)
        cost_low = np.asarray(cost_model.from_distance(dist_low), dtype=np.float64)
        cost_high = np.asarray(cost_model.from_distance(dist_high), dtype=np.float64)
        np.fill_diagonal(cost_low, 0.0)
        np.fill_diagonal(cost_high, 0.0)
        return cls(ids, adj, cost_low, cost_high, dist_low, dist_high)


def rng_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Condition 1 (RNG): a 2-hop witness path strictly cheaper on both links.

    Enhanced form: witness links are judged by their *upper* cost bound,
    the removed link by its *lower* bound, so removal is only allowed when
    it would be correct under every consistent completion of the view.
    """
    target = graph.rank_low[owner, v]
    rank_high = graph.rank_high
    adj = graph.adj
    witnesses = (
        adj[owner]
        & adj[v]
        & (rank_high[owner] < target)
        & (rank_high[:, v] < target)
    )
    witnesses[owner] = witnesses[v] = False
    return bool(witnesses.any())


def rng_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 1 for *all* of the owner's links in one broadcast pass.

    One ``(k, m)`` witness mask replaces k per-edge scans: for every
    neighbor v of the owner, witness w qualifies iff it is adjacent to
    both ends and both witness links rank (by upper bound) strictly below
    the direct link's lower bound — exactly :func:`rng_removable`, so the
    conservative low/high asymmetry carries over and interval graphs need
    no fallback.
    """
    adj = graph.adj
    neighbors = np.flatnonzero(adj[0])
    if neighbors.size == 0:
        return {}
    rank_high = graph.rank_high
    targets = graph.rank_low[0, neighbors][:, np.newaxis]
    witnesses = (
        adj[0][np.newaxis, :]
        & adj[neighbors, :]
        & (rank_high[0][np.newaxis, :] < targets)
        & (rank_high[:, neighbors].T < targets)
    )
    witnesses[:, 0] = False
    witnesses[np.arange(neighbors.size), neighbors] = False
    removable = witnesses.any(axis=1)
    return {int(v): bool(r) for v, r in zip(neighbors, removable)}


#: marker consumed by removal_verdicts
rng_removable_batch.is_batch = True  # type: ignore[attr-defined]


def spt_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Condition 2 (SPT): some path with summed cost below c(owner, v).

    Dijkstra over upper-bound costs; removal requires the alternative to be
    *strictly* cheaper than the lower bound of the direct link (ties keep
    the link — connectivity-safe).
    """
    m = graph.size
    threshold = graph.cost_low[owner, v]
    dist = np.full(m, math.inf)
    dist[owner] = 0.0
    heap: list[tuple[float, int]] = [(0.0, owner)]
    visited = np.zeros(m, dtype=bool)
    while heap:
        d, i = heapq.heappop(heap)
        if visited[i]:
            continue
        visited[i] = True
        if i == v:
            break
        if d >= threshold:
            # Every remaining path is at least this long; cannot beat c(o, v).
            return False
        for j in np.flatnonzero(graph.adj[i]):
            if i == owner and j == v:
                continue  # the direct link is not its own witness
            nd = d + graph.cost_high[i, j]
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, int(j)))
    return bool(dist[v] < threshold)


def mst_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Condition 3 (MST): some path whose every link is cheaper than (owner, v).

    Equivalent to reachability of *v* from *owner* in the subgraph of links
    with key strictly below the direct link's key (direct link excluded);
    computed as a vectorized frontier BFS over that boolean subgraph.
    """
    target = graph.rank_low[owner, v]
    sub = graph.adj & (graph.rank_high < target)
    sub[owner, v] = sub[v, owner] = False
    m = graph.size
    reached = np.zeros(m, dtype=bool)
    reached[owner] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = sub[frontier].any(axis=0) & ~reached
        if nxt[v]:
            return True
        reached |= nxt
        frontier = nxt
    return False


def mst_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 3 for *all* of the owner's links in one MST construction.

    With a total order on links, (owner, v) survives condition 3 iff it is
    an edge of the local graph's minimum spanning tree (the cycle
    property), so one Prim pass over the rank matrix replaces one BFS per
    neighbor.  Only valid when the cost bounds coincide (single-version
    views); interval graphs fall back to the per-edge predicate, whose
    conservative low/high asymmetry has no single-MST equivalent.
    """
    if graph.cost_low is not graph.cost_high and not np.array_equal(
        graph.cost_low, graph.cost_high
    ):
        return {
            int(j): mst_removable(graph, 0, int(j))
            for j in np.flatnonzero(graph.adj[0])
        }
    m = graph.size
    neighbors = np.flatnonzero(graph.adj[0])
    if m <= 2 or neighbors.size == 0:
        return {int(j): False for j in neighbors}
    inf = np.iinfo(np.int64).max
    weights = np.where(graph.adj, graph.rank_low, inf)
    np.fill_diagonal(weights, inf)
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    parent = np.zeros(m, dtype=np.intp)
    owner_children: set[int] = set()
    for _ in range(m - 1):
        masked = np.where(in_tree, inf, best)
        j = int(np.argmin(masked))
        if masked[j] >= inf:
            break  # remaining nodes unreachable (they are not neighbors of 0)
        in_tree[j] = True
        if parent[j] == 0:
            owner_children.add(j)
        improves = (weights[j] < best) & ~in_tree
        parent[improves] = j
        best = np.where(improves, weights[j], best)
    return {int(j): (int(j) not in owner_children) for j in neighbors}


#: marker consumed by removal_verdicts
mst_removable_batch.is_batch = True  # type: ignore[attr-defined]


def spt_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 2 for *all* of the owner's links via one Dijkstra.

    ``dist[v] < cost_low(owner, v)`` iff an alternative path is strictly
    cheaper: the direct link contributes exactly ``cost_high >= cost_low``
    to the shortest-path tree, and no simple path through the direct link
    can beat it, so including it changes nothing — one O(m^2) Dijkstra
    replaces one per neighbor.  Semantics identical to
    :func:`spt_removable` (verified by tests on random graphs).
    """
    m = graph.size
    weights = np.where(graph.adj, graph.cost_high, math.inf)
    np.fill_diagonal(weights, math.inf)
    dist = np.full(m, math.inf)
    dist[0] = 0.0
    visited = np.zeros(m, dtype=bool)
    for _ in range(m):
        candidates = np.where(visited, math.inf, dist)
        i = int(np.argmin(candidates))
        if not math.isfinite(candidates[i]):
            break
        visited[i] = True
        dist = np.minimum(dist, dist[i] + weights[i])
    return {
        int(j): bool(dist[j] < graph.cost_low[0, j])
        for j in np.flatnonzero(graph.adj[0])
    }


#: marker consumed by removal_verdicts
spt_removable_batch.is_batch = True  # type: ignore[attr-defined]


def removal_verdicts(graph: LocalCostGraph, removable) -> dict[int, bool]:
    """``{neighbor_index: removable}`` over the owner's adjacent links.

    *removable* is ``f(graph, owner_index, neighbor_index) -> bool``, or
    a batch predicate (``is_batch`` attribute set) mapping the whole
    graph to that dict in one pass.
    """
    if getattr(removable, "is_batch", False):
        return removable(graph)
    return {int(j): removable(graph, 0, int(j)) for j in np.flatnonzero(graph.adj[0])}


def apply_removal_condition(
    graph: LocalCostGraph,
    removable,
) -> SelectionResult:
    """Run a removal predicate over the owner's adjacent links.

    Parameters
    ----------
    graph:
        Local cost graph; index 0 is the owner.
    removable:
        The predicate, as :func:`removal_verdicts` takes it.

    Returns
    -------
    SelectionResult
        Logical neighbors = adjacent nodes whose direct link survives;
        actual range = largest (upper-bound) distance to a survivor.
    """
    survivors = [
        j for j, dropped in removal_verdicts(graph, removable).items() if not dropped
    ]
    return SelectionResult(
        owner=graph.ids[0],
        logical_neighbors=frozenset(graph.ids[j] for j in survivors),
        actual_range=max((float(graph.dist_high[0, j]) for j in survivors), default=0.0),
    )


def gabriel_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Remove (owner, v) iff a diametral-disk witness path is strictly cheaper.

    Conservative form: the witness legs use upper-bound distances, the
    candidate link its lower bound, with ID tie-breaking on exact equality
    (same total-order discipline as the three framework conditions).
    """
    d_low = graph.dist_low[owner, v]
    target = cost_key(d_low * d_low, graph.ids[owner], graph.ids[v])
    adj = graph.adj
    for w in np.flatnonzero(adj[owner] & adj[v]):
        if w == v or w == owner:
            continue
        a = graph.dist_high[owner, w]
        b = graph.dist_high[w, v]
        if cost_key(a * a + b * b, graph.ids[owner], graph.ids[w]) < target:
            return True
    return False


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


def reduceat_distance_bounds(
    counts: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repro.core.views.distance_bounds` as grouped reductions:
    one stacked distance matrix over every retained position, then
    ``reduceat`` min/max passes per member pair."""
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist_all = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    bounds = np.cumsum(counts) - counts
    dist_low = np.minimum.reduceat(
        np.minimum.reduceat(dist_all, bounds, axis=0), bounds, axis=1
    )
    dist_high = np.maximum.reduceat(
        np.maximum.reduceat(dist_all, bounds, axis=0), bounds, axis=1
    )
    np.fill_diagonal(dist_low, 0.0)
    np.fill_diagonal(dist_high, 0.0)
    return dist_low, dist_high


#: the predicate each condition protocol's kernel is tested against
PREDICATES = {
    RngProtocol: rng_removable_batch,
    SptProtocol: spt_removable_batch,
    MstProtocol: mst_removable_batch,
    GabrielProtocol: gabriel_removable,
    EnclosureProtocol: enclosure_removable,
}


def removable_of(protocol):
    """The reference predicate of a condition protocol."""
    for cls, predicate in PREDICATES.items():
        if isinstance(protocol, cls):
            return predicate
    raise TypeError(f"no reference predicate for {protocol!r}")


def oracle_batch_removable(protocol, ids, adj, cost_low, cost_high) -> np.ndarray:
    """``_batch_removable`` computed by the reference predicate on each
    row's unpadded :class:`LocalCostGraph`; a drop-in replacement for a
    protocol's kernel whose predicate reads costs only (all but Gabriel,
    which reads distances)."""
    removable = np.zeros(ids.shape, dtype=bool)
    for b in range(ids.shape[0]):
        m = int(np.count_nonzero(ids[b] >= 0))
        graph = LocalCostGraph(
            ids[b, :m].tolist(), adj[b, :m, :m],
            cost_low[b, :m, :m], cost_high[b, :m, :m], None, None,
        )
        for v, dropped in removal_verdicts(graph, removable_of(protocol)).items():
            removable[b, v] = dropped
    return removable
