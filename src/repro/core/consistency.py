"""View-consistency mechanisms (Sections 4.1-4.2).

Each mechanism is a strategy answering one question: *which view does a
node base its logical-neighbor decision on, and when does it re-decide?*

- :class:`BaselineConsistency` — the mobility-insensitive status quo:
  latest Hello per neighbor, own true position, decide at Hello time.
- :class:`ViewSynchronization` — the paper's simulated lightweight scheme:
  re-decide *on every packet send* from the latest Hellos, using the own
  position advertised in the node's last Hello (so nodes a fast packet
  visits share nearly consistent views).
- :class:`ProactiveConsistency` — strong consistency via timestamped
  Hellos: packets carry the source's version ``s``; every node on the path
  decides from its version-``s`` view, which enforces ``|M(t, v)| = 1``
  (Theorem 2).
- :class:`ReactiveConsistency` — strong consistency via synchronized
  rounds: an initiation flood stamps one version on every Hello of the
  round, and decisions use exactly that round's view.
- :class:`WeakConsistency` — no synchronization: keep ``k`` recent Hellos,
  evaluate the protocol's *conservative* (enhanced-condition) mode on
  every member's retained positions (Theorem 4).
- :class:`GossipConsistency` — anti-entropy epidemic dissemination: views
  converge by periodic digest exchange and monotone last-writer-wins
  merge (:mod:`repro.gossip`) rather than by every node hearing every
  neighbor directly; decisions read the merged view exactly like
  view synchronization, lagging by at most ``rounds_to_converge ×
  interval`` (see ``docs/GOSSIP.md``).

Which own position a decision reads is said in one place per
mechanism, :meth:`ConsistencyMechanism.resolve`: the current position
the caller passes (baseline; weak reads it after its advertisement
history), the last advertised one (view
synchronization, gossip) or the advertisement of the resolved version
(proactive, reactive).  Every mechanism reads its view members as arrays
straight from the columnar neighbor store; no decision builds a Hello.
A decision is gathered (:meth:`ConsistencyMechanism.resolve_many`, then
:meth:`ConsistencyMechanism.views`) and selected
(:meth:`ConsistencyMechanism.select`) in two steps, so views gathered
at different instants select together in one block; the members of a
versioned view are pinned when it is gathered and read, as of then,
when it is selected (:class:`PendingViews`).  One selection
body serves every mechanism: it pads the rows into blocks of member
histories, one position each for the single-version mechanisms
(``select_batch``) and the retained ones for weak consistency
(``select_histories``).
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.framework import SelectionResult
from repro.core.neighbor_state import VersionedRead
from repro.core.tables import (
    NeighborTable,
    history_members,
    latest_members,
    pin_versioned_members,
    read_pinned,
)
from repro.protocols.base import TopologyControlProtocol
from repro.util.errors import ConfigurationError, ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = [
    "ConsistencyMechanism",
    "GatheredViews",
    "PendingViews",
    "BaselineConsistency",
    "ViewSynchronization",
    "ProactiveConsistency",
    "ReactiveConsistency",
    "WeakConsistency",
    "GossipConsistency",
    "available_mechanisms",
    "make_mechanism",
]


#: Owners per selection call.  A block's padded selection temporaries
#: are (block, P, M, M) floats, one (M, M) plane per pair of history
#: slots: about a megabyte at the paper's density for single-version
#: views (P = 1), and ten times that for weak views of depth 3.
_SELECT_BLOCK = 32


class GatheredViews(NamedTuple):
    """Many owners' decision views as flat arrays, read when they decide.

    Row ``b`` is owner ``owners[b]`` with link threshold ``ranges[b]``.
    It holds ``own_counts[b]`` own positions, which follow those of row
    ``b - 1`` in ``own_xy``, and ``counts[b]`` members, whose IDs follow
    those of row ``b - 1`` in ``ids``.  Member ``i`` holds ``fills[i]``
    positions, which follow those of member ``i - 1`` in ``xy``, oldest
    first.  A single-version view holds one position per owner and per
    member.  The views of several gathers select together once
    concatenated field by field (:meth:`concat`), because each row is
    selected from its own arrays alone.
    """

    owners: np.ndarray
    ranges: np.ndarray
    own_counts: np.ndarray
    own_xy: np.ndarray
    counts: np.ndarray
    ids: np.ndarray
    fills: np.ndarray
    xy: np.ndarray

    @classmethod
    def concat(cls, views: Sequence["GatheredViews | PendingViews"]) -> "GatheredViews":
        """The rows of every view in *views*, in order; the members of
        every :class:`PendingViews` among them are read first, in one
        call per store."""
        reads = [r for v in views if type(v) is PendingViews for r in v.reads]
        if reads:
            read_pinned(reads)
            views = [v.settled() if type(v) is PendingViews else v for v in views]
        if len(views) == 1:
            return views[0]
        return cls(*map(np.concatenate, zip(*views)))


class PendingViews(NamedTuple):
    """Versioned views whose members are read when they settle
    (:meth:`GatheredViews.concat`), as of the instant they were
    gathered: the owners' *tables* and :meth:`ConsistencyMechanism.resolve`
    outputs, and their member *reads*, pinned in the neighbor store,
    which answers each before a write would change it."""

    tables: tuple[NeighborTable, ...]
    resolved: tuple[tuple, ...]
    reads: tuple[VersionedRead, ...]

    def settled(self) -> GatheredViews:
        """These views with their members read."""
        counts, ids, xy = read_pinned(self.reads)
        return _views(
            self.tables, self.resolved, (counts, ids, np.ones(ids.size, dtype=np.int64), xy)
        )

    def release(self) -> None:
        """Unpin the reads of views that will never settle."""
        for read in self.reads:
            read.state.release(read)


def _views(
    tables: Sequence[NeighborTable], resolved: Sequence[tuple], members: tuple
) -> GatheredViews:
    """The views of *tables* from their :meth:`ConsistencyMechanism.resolve`
    outputs and their ``(counts, ids, fills, xy)`` members."""
    return GatheredViews(
        np.array([t.owner for t in tables], dtype=np.int64),
        np.array([t.normal_range for t in tables], dtype=float),
        np.array([len(own) for own, _ in resolved], dtype=np.int64),
        np.array([p for own, _ in resolved for p in own], dtype=float).reshape(-1, 2),
        *members,
    )


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_XY = np.zeros((0, 2))
#: The views of a gather in which no owner can decide.
_NO_VIEWS = GatheredViews(
    _NO_IDS, np.zeros(0), _NO_IDS, _NO_XY, _NO_IDS, _NO_IDS, _NO_IDS, _NO_XY
)


class ConsistencyMechanism(ABC):
    """Strategy: how a node builds the view behind each decision.

    A decision has two steps.  :meth:`resolve_many` resolves each
    owner's own positions and version (:meth:`resolve`) and
    :meth:`views` reads its view members as arrays at the decision
    instant (or pins them, :meth:`pin`); :meth:`select` runs the
    protocol on the gathered rows.  Rows gathered at different instants
    can be selected together later, with the same results, because a
    row is selected from its own arrays alone.
    """

    #: registry key and report label
    name: str = ""
    #: True if logical sets must be recomputed when forwarding a packet
    recompute_on_packet: bool = False
    #: True if Hello versions must be globally aligned (epoch-based)
    synchronized_versions: bool = False
    #: True if the decision cache may serve this mechanism's decisions:
    #: a stamp covers only the table's writes, its live neighbors (for a
    #: latest view), the resolved own positions and the requested
    #: version, so a mechanism opts in only when its decisions read
    #: nothing else
    cacheable: bool = False
    #: True if decisions run the protocol's conservative mode
    #: (``select_histories``) on k-version views; else ``select_batch``
    #: on single-version views
    conservative: bool = False

    @abstractmethod
    def resolve(
        self,
        table: NeighborTable,
        position: tuple[float, float] | None,
        version: int | None,
    ) -> tuple[list[tuple[float, float]], int | None]:
        """``(own positions, version)`` of a decision at *table*'s owner,
        whose current position is *position*.

        This is the one place that says which own position a decision
        reads.  The own positions are those the decision reads, oldest
        first; the version is the one whose view the members come from,
        or None for the latest live view.  Raises :class:`ViewError`
        when the owner cannot decide, and :class:`ConfigurationError`
        when the decision reads a *position* that is None.
        """

    def resolve_many(
        self,
        tables: Sequence[NeighborTable],
        positions: Sequence[tuple[float, float] | None],
        version: int | None,
    ) -> tuple[list[tuple | None], dict[int, ViewError]]:
        """:meth:`resolve` once per owner, in order: each output, or None
        where the owner cannot decide, and the :class:`ViewError` of each
        such owner by its index in *tables*."""
        resolved: list[tuple | None] = []
        errors: dict[int, ViewError] = {}
        for i, (table, position) in enumerate(zip(tables, positions)):
            try:
                resolved.append(self.resolve(table, position, version))
            except ViewError as exc:
                errors[i] = exc
                resolved.append(None)
        return resolved, errors

    @abstractmethod
    def members(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        versions: Sequence[int | None],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, ids, fills, xy)``: the members of each table's view
        at *now*, at its resolved version, as :class:`GatheredViews`
        holds them."""

    def pin(
        self, tables: Sequence[NeighborTable], versions: Sequence[int | None]
    ) -> Sequence[VersionedRead] | None:
        """Pinned reads of the members of each table's view at its
        resolved version, to be read when they settle, or None (the
        default) when :meth:`members` reads them now."""
        return None

    def views(
        self, tables: Sequence[NeighborTable], now: float, resolved: Sequence[tuple]
    ) -> GatheredViews | PendingViews:
        """The views at *now* of owners that can decide, one row per
        table, from their :meth:`resolve` outputs; :class:`PendingViews`
        when :meth:`pin` defers their members."""
        if not tables:
            return _NO_VIEWS
        versions = [v for _, v in resolved]
        reads = self.pin(tables, versions)
        if reads is not None:
            return PendingViews(tuple(tables), tuple(resolved), reads)
        return _views(tables, resolved, self.members(tables, now, versions))

    def select(
        self, protocol: TopologyControlProtocol, views: GatheredViews
    ) -> list[SelectionResult]:
        """Run *protocol* on every row of *views*, in row order, in padded
        blocks of up to :data:`_SELECT_BLOCK` rows.

        Rows are cut into blocks by member count, so each block is padded
        only to its own widest view: row ``b`` holds the owner in column
        0 at its own positions, then its members; shorter rows are padded
        with ID -1 at NaN positions.  Every history is padded to the
        longest of the rows, ``K``, by repeating its newest position,
        which changes no min or max.  A block goes to
        ``protocol.select_histories`` when the mechanism is
        :attr:`conservative`, else to ``protocol.select_batch`` (``K = 1``).
        """
        owners, ranges, own_counts, own_xy, counts, ids, fills, xy = views
        depth = max(int(own_counts.max(initial=1)), int(fills.max(initial=1)))
        own_pts = _padded(own_xy, own_counts, depth)
        member_pts = _padded(xy, fills, depth)
        starts = np.cumsum(counts) - counts
        order = np.argsort(counts, kind="stable")
        results: list[SelectionResult] = [None] * owners.size  # type: ignore[list-item]
        for lo in range(0, owners.size, _SELECT_BLOCK):
            block = order[lo : lo + _SELECT_BLOCK]
            size = counts[block]
            width = 1 + int(size.max())
            # Row rank of every member: row b's members fill columns 1..size[b].
            row = np.repeat(np.arange(block.size), size)
            col = np.arange(1, row.size + 1) - np.repeat(np.cumsum(size) - size, size)
            src = np.repeat(starts[block] - 1, size) + col
            block_ids = np.full((block.size, width), -1, dtype=np.int64)
            block_pts = np.full((block.size, width, depth, 2), np.nan)
            block_ids[:, 0] = owners[block]
            block_pts[:, 0] = own_pts[block]
            block_ids[row, col] = ids[src]
            block_pts[row, col] = member_pts[src]
            if self.conservative:
                selected = protocol.select_histories(block_ids, block_pts, ranges[block])
            else:
                selected = protocol.select_batch(block_ids, block_pts[:, :, 0], ranges[block])
            for b, result in zip(block.tolist(), selected):
                results[b] = result
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _no_position(table: NeighborTable, mechanism: ConsistencyMechanism) -> ConfigurationError:
    """The error of a decision at *table*'s owner that reads a current
    position given as None."""
    return ConfigurationError(
        f"node {table.owner} has no current position for its {mechanism.name!r} decision"
    )


def _padded(xy: np.ndarray, fills: np.ndarray, depth: int) -> np.ndarray:
    """``(len(fills), depth, 2)`` histories: history ``i`` holds the
    ``fills[i]`` positions that follow those of history ``i - 1`` in
    *xy*, oldest first, padded to *depth* by repeating its newest one."""
    if depth == 1:
        return xy[:, np.newaxis]
    starts = np.cumsum(fills) - fills
    return xy[starts[:, np.newaxis] + np.minimum(np.arange(depth), fills[:, np.newaxis] - 1)]


class _SingleVersionMechanism(ConsistencyMechanism):
    """A mechanism that decides from one Hello per view member.

    A subclass names the own position and the global version a decision
    uses (:meth:`_own`).  The other members are the neighbors'
    latest live Hellos when that version is None (for every owner), else
    their Hellos of that version.  Every protocol reads the members as
    arrays straight from the tables through ``select_batch``, with no
    Hello or LocalView built.
    """

    cacheable = True

    @abstractmethod
    def _own(
        self,
        table: NeighborTable,
        position: tuple[float, float] | None,
        version: int | None,
    ) -> tuple[tuple[float, float] | None, int | None]:
        """``(own position, version or None for the latest view)``.

        Raises :class:`ViewError` when the owner cannot decide.
        """

    def resolve(self, table, position, version):
        own, resolved = self._own(table, position, version)
        if own is None:
            raise _no_position(table, self)
        return [own], resolved

    def pin(self, tables, versions):
        return None if versions[0] is None else pin_versioned_members(tables, versions)

    def members(self, tables, now, versions):
        # Versioned views are pinned (:meth:`pin`); these are latest ones.
        counts, ids, xy = latest_members(tables, now)
        return counts, ids, np.ones(ids.size, dtype=np.int64), xy


class BaselineConsistency(_SingleVersionMechanism):
    """Mobility-insensitive default: latest Hellos, own true position."""

    name = "baseline"

    def _own(self, table, position, version):
        return position, None


class ViewSynchronization(_SingleVersionMechanism):
    """On-the-fly almost-consistent views (Section 5.1, "view synchronization").

    Decisions use the latest received Hellos but the node's **previously
    advertised** own position — the paper is explicit that using the true
    current position instead would re-introduce inconsistency.  The
    simulator additionally re-decides whenever a packet is sent
    (:attr:`recompute_on_packet`), so all nodes a fast-travelling packet
    visits decide from nearly the same Hello generation.
    """

    name = "view-sync"
    recompute_on_packet = True

    def _own(self, table, position, version):
        # The own position is the *last advertised* one, which only
        # changes with a table mutation: this is what makes a packet-time
        # recomputation hit while no Hello arrived since the last one.
        # Nothing advertised yet: the node is invisible to neighbors
        # anyway, so deciding from the current position is harmless.
        advertised = table.last_advertised
        return (position if advertised is None else advertised.position), None


class ProactiveConsistency(_SingleVersionMechanism):
    """Strong consistency from timestamped Hellos (the proactive approach).

    Requires globally aligned versions (nodes stamp Hello *i* during epoch
    *i*; clock skew only shifts the stamping instant).  A decision for
    version ``s`` uses exactly the version-``s`` Hello of every neighbor
    that produced one — so all nodes relaying a packet stamped ``s`` use
    the same version of everyone's location, satisfying Theorem 2.
    """

    name = "proactive"
    recompute_on_packet = True
    synchronized_versions = True

    def _own(self, table, position, version):
        # A versioned view never reads the current position: the retained
        # state plus the requested version pin a decision, fallback
        # resolution included.  A node that has not reached epoch
        # `version` yet (clock skew or a packet racing ahead of Hello
        # emission) falls back to the most recent version it *has*
        # advertised — the paper's "wait before migrating to the next
        # local view" rule seen from the packet's perspective.
        own = table.newest_advertised(version)
        if own is None:
            if version is None:
                raise ViewError(
                    f"node {table.owner} cannot decide proactively before advertising"
                )
            raise ViewError(f"node {table.owner} has not advertised version {version} yet")
        return own.position, own.version


class ReactiveConsistency(ProactiveConsistency):
    """Strong consistency from synchronized Hello rounds (reactive approach).

    Functionally a versioned decision like the proactive scheme; the
    difference is *how* versions get aligned (an initiation flood rather
    than clocks) and its traffic cost, which the simulator accounts
    separately.  Decisions do not depend on packets, so logical sets are
    refreshed once per round, not per packet.
    """

    name = "reactive"
    recompute_on_packet = False
    synchronized_versions = True


class WeakConsistency(ConsistencyMechanism):
    """Conservative decisions from k recent Hellos — no synchronization.

    Runs the protocol's enhanced link-removal conditions
    (:meth:`~repro.protocols.base.TopologyControlProtocol
    .select_histories`, in padded blocks of views) on the multi-version
    view (Definition 2): every live neighbor's retained positions, read
    as arrays straight from the table
    (:func:`~repro.core.tables.history_members`), and the owner's
    advertisement history plus its current position.  No Hello is
    built.
    Theorem 4 guarantees a connected logical topology when views are weakly
    consistent, which Theorem 3 guarantees for sufficient *k*: the
    scenario's ``history_depth``, which sizes every table.
    """

    name = "weak"
    cacheable = True
    conservative = True

    def resolve(self, table, position, version):
        if position is None:
            raise _no_position(table, self)
        own = [h.position for h in table.own_history]
        own.append(position)
        return own, None

    def members(self, tables, now, versions):
        return history_members(tables, now)


class GossipConsistency(ViewSynchronization):
    """Anti-entropy epidemic views (ROADMAP item 4; see docs/GOSSIP.md).

    Hello state spreads by periodic push–pull digest exchange with
    ``fanout`` sampled in-range peers, merged monotonically
    (last-writer-wins per sender), with age-based peer removal and a
    mayday re-request when the local view goes silent.  The decision
    itself is view synchronization's (the class inherits its own-position
    rule): the latest expiry-filtered entries plus the node's previously
    advertised own position — only the *transport* of those entries is
    epidemic, and a packet triggers no decision.  The dissemination driver
    (:class:`~repro.gossip.GossipEngine`) is wired by the world whenever
    this mechanism is selected.

    Parameters
    ----------
    fanout:
        Peers sampled per round (without replacement) from the nodes in
        normal Hello range.
    interval:
        Gossip round period in seconds (per node, jitter-started from
        the dedicated ``"gossip"`` seed stream).
    removal_age:
        Entries older than this are neither advertised in digests nor
        relayed, so silent peers age out of circulation; defaults to the
        scenario's Hello expiry.
    mayday_after:
        Silence (no live neighbors while in-range peers exist) tolerated
        before a full-view re-request; defaults to ``2 × interval``.
    """

    name = "gossip"
    recompute_on_packet = False

    def __init__(
        self,
        fanout: int = 2,
        interval: float = 1.0,
        removal_age: float | None = None,
        mayday_after: float | None = None,
    ) -> None:
        self.fanout = check_int_range("fanout", fanout, 1)
        self.interval = check_positive("interval", interval)
        self.removal_age = (
            None if removal_age is None else check_positive("removal_age", removal_age)
        )
        self.mayday_after = (
            None
            if mayday_after is None
            else check_positive("mayday_after", mayday_after)
        )

    def staleness_bound(self, n_nodes: int) -> float:
        """Worst-case extra view lag in seconds at population *n_nodes*.

        Push–pull epidemics infect all *n* nodes in
        ``ceil(log_{fanout+1}(n))`` rounds with high probability; one
        extra round absorbs the exchange's in-flight hops.  Oracles widen
        their Theorem 5 slack by this much for gossip runs.
        """
        rounds = (
            math.ceil(math.log(max(int(n_nodes), 2)) / math.log(self.fanout + 1.0))
            + 1
        )
        return rounds * self.interval

    def __repr__(self) -> str:
        return (
            f"GossipConsistency(fanout={self.fanout}, interval={self.interval}, "
            f"removal_age={self.removal_age}, mayday_after={self.mayday_after})"
        )


_MECHANISMS = {
    cls.name: cls
    for cls in (
        BaselineConsistency,
        ViewSynchronization,
        ProactiveConsistency,
        ReactiveConsistency,
        WeakConsistency,
        GossipConsistency,
    )
}


def available_mechanisms() -> tuple[str, ...]:
    """Registered mechanism names, sorted — the single source of truth
    for CLI choices and the fuzzer's mechanism axis."""
    return tuple(sorted(_MECHANISMS))


def make_mechanism(name: str, **kwargs) -> ConsistencyMechanism:
    """Instantiate a consistency mechanism by name (CLI / config entry)."""
    try:
        cls = _MECHANISMS[name]
    except KeyError:
        raise ViewError(
            f"unknown consistency mechanism {name!r}; available: {sorted(_MECHANISMS)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        accepted = [
            p for p in inspect.signature(cls.__init__).parameters if p != "self"
        ]
        raise ConfigurationError(
            f"invalid parameters {sorted(kwargs)} for consistency mechanism "
            f"{name!r}; accepted parameters: {accepted or 'none'}"
        ) from exc
