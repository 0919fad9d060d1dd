"""Hello messages and local views (Sections 3.1-3.2 of the paper).

A node never reads another node's true position: everything it knows
arrives in timestamped, versioned :class:`Hello` messages.  A
:class:`LocalView` freezes one Hello per view member (the paper's local
view); a :class:`MultiVersionView` retains the ``k`` most recent Hellos per
member and yields cost *sets* per link, the raw material of weak view
consistency (Definition 2).

View-consistency predicates (Definitions 1 and 2) live here too so that
tests and the consistency mechanisms share one authoritative definition.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel, DistanceCost
from repro.util.errors import ViewError

__all__ = [
    "Hello",
    "LocalView",
    "MultiVersionView",
    "distance_bounds",
    "link_cost",
    "views_consistent",
    "views_weakly_consistent",
]


@dataclass(frozen=True, slots=True)
class Hello:
    """One periodic "Hello" advertisement.

    Attributes
    ----------
    sender:
        Advertising node's ID.
    version:
        Monotone per-sender message number (1 = first); under the proactive
        strong-consistency scheme versions are globally aligned.
    position:
        Advertised (x, y) position at send time.
    sent_at:
        Physical (global simulation) send time — used by the omniscient
        metrics layer, never by protocol decisions.
    timestamp:
        Sender's local-clock reading at send time — what receivers see.
    """

    sender: int
    version: int
    position: tuple[float, float]
    sent_at: float
    timestamp: float

    def distance_to(self, other: "Hello") -> float:
        """Euclidean distance between two advertised positions."""
        return math.hypot(
            self.position[0] - other.position[0],
            self.position[1] - other.position[1],
        )


def link_cost(a: Hello, b: Hello, cost_model: CostModel) -> float:
    """Cost of link (a.sender, b.sender) as seen from these two Hellos."""
    return float(cost_model.from_distance(a.distance_to(b)))


class LocalView:
    """A single-version local view: one Hello per member, plus the owner's.

    Parameters
    ----------
    owner:
        The deciding node's ID.
    own_hello:
        The owner's position record used for its decisions.  In baseline
        mode this is a fresh Hello at the current true position; under view
        synchronization it is the owner's *last advertised* Hello (the
        paper is explicit that the node "must use its previous location
        advertised in the last Hello").
    neighbor_hellos:
        Most recent retained Hello per 1-hop neighbor.
    normal_range:
        The (large) normal transmission range; pairs further apart than
        this are not links of the view.
    sampled_at:
        Physical time at which the view was frozen.
    """

    __slots__ = ("owner", "own_hello", "neighbor_hellos", "normal_range", "sampled_at")

    def __init__(
        self,
        owner: int,
        own_hello: Hello,
        neighbor_hellos: Mapping[int, Hello],
        normal_range: float,
        sampled_at: float,
    ) -> None:
        if own_hello.sender != owner:
            raise ViewError(
                f"own_hello.sender={own_hello.sender} does not match owner={owner}"
            )
        if owner in neighbor_hellos:
            raise ViewError(f"owner {owner} cannot be its own neighbor")
        self.owner = owner
        self.own_hello = own_hello
        self.neighbor_hellos = dict(neighbor_hellos)
        self.normal_range = float(normal_range)
        self.sampled_at = float(sampled_at)

    @property
    def members(self) -> list[int]:
        """All node IDs in the view: the owner first, then sorted neighbors."""
        return [self.owner, *sorted(self.neighbor_hellos)]

    def hello_of(self, node: int) -> Hello:
        """The Hello record of *node* within this view."""
        if node == self.owner:
            return self.own_hello
        try:
            return self.neighbor_hellos[node]
        except KeyError:
            raise ViewError(f"node {node} is not in the view of {self.owner}") from None

    def position_of(self, node: int) -> tuple[float, float]:
        """Advertised position of *node* within this view."""
        return self.hello_of(node).position

    def positions(self) -> tuple[list[int], np.ndarray]:
        """(member IDs, ``(m, 2)`` positions) in a fixed, reproducible order."""
        ids = self.members
        pts = np.array([self.hello_of(i).position for i in ids], dtype=np.float64)
        return ids, pts

    def has_link(self, u: int, v: int) -> bool:
        """True iff (u, v) is a link of this view (distinct members within range)."""
        if u == v:
            return False
        return self.hello_of(u).distance_to(self.hello_of(v)) <= self.normal_range

    def __contains__(self, node: int) -> bool:
        return node == self.owner or node in self.neighbor_hellos

    def __len__(self) -> int:
        return 1 + len(self.neighbor_hellos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalView(owner={self.owner}, neighbors={sorted(self.neighbor_hellos)}, "
            f"t={self.sampled_at:.3f})"
        )


class MultiVersionView:
    """A local view retaining up to ``k`` recent Hellos per member.

    The cost of a link (u, v) is no longer a scalar but the *set* of costs
    over all retained position pairs; :meth:`cost_bounds` exposes the
    ``cMin`` / ``cMax`` bounds the enhanced link-removal conditions use
    (Section 4.2).
    """

    __slots__ = ("owner", "own_hellos", "neighbor_hellos", "normal_range", "sampled_at")

    def __init__(
        self,
        owner: int,
        own_hellos: Iterable[Hello],
        neighbor_hellos: Mapping[int, Iterable[Hello]],
        normal_range: float,
        sampled_at: float,
    ) -> None:
        self.owner = owner
        self.own_hellos = tuple(own_hellos)
        if not self.own_hellos:
            raise ViewError("MultiVersionView requires at least one own Hello")
        if any(h.sender != owner for h in self.own_hellos):
            raise ViewError("own_hellos must all be sent by the owner")
        self.neighbor_hellos = {
            nid: tuple(hs) for nid, hs in neighbor_hellos.items() if nid != owner
        }
        for nid, hs in self.neighbor_hellos.items():
            if not hs:
                raise ViewError(f"neighbor {nid} has an empty Hello history")
            if any(h.sender != nid for h in hs):
                raise ViewError(f"history of neighbor {nid} contains foreign Hellos")
        self.normal_range = float(normal_range)
        self.sampled_at = float(sampled_at)

    @property
    def members(self) -> list[int]:
        """All node IDs in the view: the owner first, then sorted neighbors."""
        return [self.owner, *sorted(self.neighbor_hellos)]

    def hellos_of(self, node: int) -> tuple[Hello, ...]:
        """All retained Hellos of *node*, oldest first."""
        if node == self.owner:
            return self.own_hellos
        try:
            return self.neighbor_hellos[node]
        except KeyError:
            raise ViewError(f"node {node} is not in the view of {self.owner}") from None

    def latest(self, node: int) -> Hello:
        """Most recent retained Hello of *node*."""
        return self.hellos_of(node)[-1]

    def cost_set(self, u: int, v: int, cost_model: CostModel) -> list[float]:
        """The cost set ``Ce`` of link (u, v): costs over all position pairs."""
        return [
            link_cost(a, b, cost_model)
            for a in self.hellos_of(u)
            for b in self.hellos_of(v)
        ]

    def positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, counts, pts)``: the :attr:`members` as an int array,
        how many Hellos each retains, and all their ``(sum(counts), 2)``
        positions grouped per member, oldest first."""
        ids = self.members
        histories = [self.hellos_of(nid) for nid in ids]
        pts = np.array(
            [h.position for hs in histories for h in hs], dtype=np.float64
        )
        counts = np.fromiter(map(len, histories), dtype=np.intp, count=len(ids))
        return np.array(ids, dtype=np.int64), counts, pts

    def distance_bounds(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """(members, dist_low, dist_high): :func:`distance_bounds` of
        :meth:`positions`."""
        ids, counts, pts = self.positions()
        return ids.tolist(), *distance_bounds(counts, pts)

    def cost_bounds(self, u: int, v: int, cost_model: CostModel) -> tuple[float, float]:
        """(cMin, cMax) of link (u, v) in this view."""
        costs = self.cost_set(u, v, cost_model)
        return (min(costs), max(costs))

    def has_link(self, u: int, v: int) -> bool:
        """True iff (u, v) could be a link: some position pair within range.

        Weak consistency is conservative: a link is part of the view as
        long as *any* retained position pair supports it, so no decision is
        made on the assumption a possibly-present link is absent.
        """
        if u == v:
            return False
        return any(
            a.distance_to(b) <= self.normal_range
            for a in self.hellos_of(u)
            for b in self.hellos_of(v)
        )

    def to_local_view(self) -> LocalView:
        """Collapse to a single-version view using each member's latest Hello."""
        return LocalView(
            owner=self.owner,
            own_hello=self.own_hellos[-1],
            neighbor_hellos={nid: hs[-1] for nid, hs in self.neighbor_hellos.items()},
            normal_range=self.normal_range,
            sampled_at=self.sampled_at,
        )

    def __contains__(self, node: int) -> bool:
        return node == self.owner or node in self.neighbor_hellos

    def __len__(self) -> int:
        return 1 + len(self.neighbor_hellos)


def distance_bounds(
    counts: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(dist_low, dist_high)`` between members of a multi-version view.

    Member ``i`` retains ``counts[i]`` positions, which follow those of
    member ``i - 1`` in *pts*.  ``dist_low[i, j]`` / ``dist_high[i, j]``
    are the min / max distance between any retained position of member
    ``i`` and any of member ``j`` (zero on the diagonal).  Fully
    vectorized: every history is padded to the longest, ``k``, by
    repeating its newest position, which changes no min or max, and one
    ``(k, k, m, m)`` broadcast over the ``(k, m, 2)`` block holds every
    position pair, reduced over its leading axes.  Because every cost
    model is strictly increasing in distance, cost bounds follow by
    applying the model to these matrices.
    """
    ends = np.cumsum(counts)
    held = np.minimum(np.arange(int(counts.max()))[:, np.newaxis], counts - 1)
    block = pts[(ends - counts) + held]
    x, y = block[..., 0], block[..., 1]
    dist = x[:, np.newaxis, :, np.newaxis] - x[np.newaxis, :, np.newaxis, :]
    dy = y[:, np.newaxis, :, np.newaxis] - y[np.newaxis, :, np.newaxis, :]
    # sqrt(dx*dx + dy*dy) in place, the arithmetic of select_batch.
    dist *= dist
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    dist = dist.reshape(-1, *dist.shape[2:])
    dist_low = dist.min(axis=0)
    dist_high = dist.max(axis=0)
    np.fill_diagonal(dist_low, 0.0)
    np.fill_diagonal(dist_high, 0.0)
    return dist_low, dist_high


def _view_links(view: LocalView) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(member IDs, distance matrix, index pairs of links) of one view.

    Vectorized replacement for the old per-pair ``has_link`` scan: one
    dense distance matrix, one boolean mask, one ``nonzero``.
    """
    ids, pts = view.positions()
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    adj = dist <= view.normal_range
    np.fill_diagonal(adj, False)
    iu, iv = np.nonzero(np.triu(adj, k=1))
    return ids, dist, np.stack((iu, iv), axis=1)


def _iter_view_links(view: LocalView) -> Iterable[tuple[int, int]]:
    ids, _, pairs = _view_links(view)
    for i, j in pairs:
        yield (ids[i], ids[j])


def views_consistent(
    views: Iterable[LocalView],
    cost_model: CostModel | None = None,
    tol: float = 1e-9,
) -> bool:
    """Definition 1: every link has the same cost in all views containing it.

    Because every cost model is strictly increasing in distance, checking
    distances is equivalent to checking any particular cost model; *cost_model*
    is accepted for call-site clarity but does not change the verdict.
    """
    model = cost_model or DistanceCost()
    seen: dict[tuple[int, int], float] = {}
    for view in views:
        ids, dist, pairs = _view_links(view)
        if not pairs.size:
            continue
        costs = np.asarray(
            model.from_distance(dist[pairs[:, 0], pairs[:, 1]]), dtype=np.float64
        )
        for (i, j), c in zip(pairs.tolist(), costs.tolist()):
            u, v = ids[i], ids[j]
            key = (u, v) if u < v else (v, u)
            if key in seen and abs(seen[key] - c) > tol:
                return False
            seen.setdefault(key, c)
    return True


def views_weakly_consistent(
    views: Iterable[MultiVersionView],
    cost_model: CostModel | None = None,
) -> bool:
    """Definition 2: for every link, ``cMinMax >= cMaxMin`` across views.

    ``cMinMax`` is the smallest per-view cMax, ``cMaxMin`` the largest
    per-view cMin, over all views containing the link.  Per-view bounds
    come from :meth:`MultiVersionView.distance_bounds` (vectorized) and
    the cost model's monotonicity, exactly as the enhanced removal
    conditions consume them.
    """
    model = cost_model or DistanceCost()
    min_of_max: dict[tuple[int, int], float] = {}
    max_of_min: dict[tuple[int, int], float] = {}
    for view in views:
        ids, dist_low, dist_high = view.distance_bounds()
        adj = dist_low <= view.normal_range
        np.fill_diagonal(adj, False)
        iu, iv = np.nonzero(np.triu(adj, k=1))
        if not iu.size:
            continue
        lo = np.asarray(model.from_distance(dist_low[iu, iv]), dtype=np.float64)
        hi = np.asarray(model.from_distance(dist_high[iu, iv]), dtype=np.float64)
        for i, j, lo_c, hi_c in zip(iu.tolist(), iv.tolist(), lo.tolist(), hi.tolist()):
            u, v = ids[i], ids[j]
            key = (u, v) if u < v else (v, u)
            min_of_max[key] = min(min_of_max.get(key, math.inf), hi_c)
            max_of_min[key] = max(max_of_min.get(key, -math.inf), lo_c)
    return all(min_of_max[key] >= max_of_min[key] - 1e-12 for key in min_of_max)
