"""The paper's headline object: mobility-sensitive topology control.

:class:`MobilitySensitiveTopologyControl` wraps an *unmodified* base
protocol with the three mobility mechanisms the paper proposes/evaluates:

1. a **consistency mechanism** choosing the view behind each decision
   (baseline / view synchronization / proactive / reactive / weak),
2. a **buffer zone** extending the actual transmission range
   (Theorem 5 width or an experimental width),
3. optional **physical-neighbor forwarding** (accept packets from any
   in-range sender, not only logical neighbors).

The object is simulator-agnostic: it turns a neighbor table + current
position into a :class:`NodeDecision`.  A decision has two steps:
:meth:`~MobilitySensitiveTopologyControl.gather` reads its inputs at the
decision instant and queues it, and
:meth:`~MobilitySensitiveTopologyControl.settle` selects every waiting
decision together later.  The queue is the manager's *decision lane*
(one per manager, so one per world and protocol): a newer decision of
the same owner that misses the cache drops its waiting one unread.  The
simulator gathers at each Hello and at packet time and settles when a
decision is read.  Library users call
:meth:`~MobilitySensitiveTopologyControl.decide` or
:meth:`~MobilitySensitiveTopologyControl.decide_many` on hand-built
tables, which do both steps beside the lane, never touching it.

Because the paper's decisions are made from *stale, asynchronously
collected* views, many consecutive decisions at a node see identical
inputs — packet-time recomputations between two Hello generations, for
instance.  :class:`MobilitySensitiveTopologyControl` therefore keeps a
**write-stamp decision cache**: an equality-of-inputs memo (never an
approximation) that returns the standing selection while the owner's
table has not been written, no live neighbor has expired, and the own
positions the mechanism resolves, the requested version and the
configuration are unchanged.  See
``docs/PERFORMANCE.md`` for the stamp contents and why they are exact.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import NamedTuple

from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import (
    BaselineConsistency,
    ConsistencyMechanism,
    GatheredViews,
    PendingViews,
)
from repro.core.framework import SelectionResult
from repro.core.tables import NeighborTable, live_unchanged
from repro.protocols.base import TopologyControlProtocol
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.util.errors import ProtocolError, ViewError

__all__ = ["NodeDecision", "GatheredDecisions", "MobilitySensitiveTopologyControl"]


@dataclass(frozen=True, slots=True)
class NodeDecision:
    """One node's complete topology control state after a decision.

    Attributes
    ----------
    owner:
        Deciding node.
    logical_neighbors:
        Selected logical neighbor IDs.
    actual_range:
        Range covering the farthest logical neighbor (protocol output).
    extended_range:
        Actual range plus the buffer-zone width (what the radio uses).
    decided_at:
        Physical decision time.
    version:
        Hello version of the view the decision read (proactive,
        reactive), or None for a latest or multi-version view.
    """

    owner: int
    logical_neighbors: frozenset[int]
    actual_range: float
    extended_range: float
    decided_at: float
    version: int | None = None


#: What becomes of one owner of a gather (:attr:`GatheredDecisions.kinds`).
_UNDECIDED, _HIT, _FRESH = 0, 1, 2
#: The errors of a gather in which every owner can decide.
_NO_ERRORS: Mapping[int, ViewError] = MappingProxyType({})
#: Owners a :meth:`MobilitySensitiveTopologyControl.settle` selects per
#: pass at least (whole gathers, in order): at 10k nodes one pass's
#: selection temporaries and fresh decisions are alive at a time.
_SETTLE_OWNERS = 256


class GatheredDecisions(NamedTuple):
    """One :meth:`MobilitySensitiveTopologyControl.gather` call's
    decisions, waiting to be settled.

    ``kinds[i]`` says what becomes of the call's table ``i`` (owner
    ``owners[i]``): no decision (its :class:`ViewError` is
    ``errors[i]``), the standing decision served from the cache, or a
    fresh selection from the next row of ``views`` (whose members, for
    versioned views, are read when they settle), at the next of
    ``versions``.  *stored* when the cache holds the fresh rows' stamps
    and takes their decisions; *phase* (``hello`` or ``packet``) labels
    the decisions.
    """

    now: float
    owners: tuple[int, ...]
    kinds: tuple[int, ...]
    views: GatheredViews | PendingViews
    versions: tuple[int | None, ...]
    errors: Mapping[int, ViewError]
    stored: bool
    phase: str


class MobilitySensitiveTopologyControl:
    """Bundle a base protocol with the paper's mobility mechanisms.

    Parameters
    ----------
    protocol:
        Any registered :class:`TopologyControlProtocol`, unmodified.
    mechanism:
        View-consistency strategy (default: mobility-insensitive baseline).
    buffer_policy:
        Buffer-zone policy (default: no buffer — width 0).
    physical_neighbor_mode:
        When True, receivers accept data packets from *any* in-range
        sender ("enabling physical neighbors", Section 5.1); the logical
        set still determines each node's transmission range.
    decision_cache:
        Enable the write-stamp decision cache (default: the class
        attribute :attr:`decision_cache_default`, normally True).  The
        cache never changes outputs — it only skips recomputation when a
        decision's inputs are provably unchanged; disable it to benchmark
        the uncached path or to rule it out while debugging.

    Examples
    --------
    >>> from repro.protocols import RngProtocol
    >>> from repro.core.buffer_zone import BufferZonePolicy
    >>> mstc = MobilitySensitiveTopologyControl(
    ...     RngProtocol(), buffer_policy=BufferZonePolicy(width=10.0))
    >>> mstc.describe()
    'rng+baseline+buf10'
    """

    #: default for the ``decision_cache`` constructor argument; tests and
    #: benchmarks flip this to compare cached vs uncached pipelines.
    decision_cache_default: bool = True

    def __init__(
        self,
        protocol: TopologyControlProtocol,
        mechanism: ConsistencyMechanism | None = None,
        buffer_policy: BufferZonePolicy | None = None,
        physical_neighbor_mode: bool = False,
        decision_cache: bool | None = None,
    ) -> None:
        self.protocol = protocol
        self.mechanism = mechanism or BaselineConsistency()
        self.buffer_policy = buffer_policy or BufferZonePolicy(width=0.0)
        self.physical_neighbor_mode = bool(physical_neighbor_mode)
        self.decision_cache_enabled = bool(
            self.decision_cache_default if decision_cache is None else decision_cache
        )
        self._cache = _DecisionCache()
        #: (mechanism, buffer policy, PN mode) -> the id a stamp records
        self._config_ids: dict[tuple, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_uncacheable = 0
        # The collector in force (attach_telemetry), armed or not.
        self._telemetry: Telemetry = NULL_TELEMETRY
        # The decision lane: waiting gathers in gather order (keyed by a
        # running count), and each owner's latest waiting one-owner gather.
        self._waiting: dict[int, GatheredDecisions] = {}
        self._latest: dict[int, int] = {}
        self._gathers = 0
        if self.mechanism.conservative and not protocol.supports_conservative:
            raise ProtocolError(
                f"protocol {protocol.name!r} has no conservative mode; "
                "weak consistency cannot drive it"
            )

    @property
    def recompute_on_packet(self) -> bool:
        """Whether forwarding a packet triggers a fresh decision."""
        return self.mechanism.recompute_on_packet

    @property
    def synchronized_versions(self) -> bool:
        """Whether Hello versions must be globally epoch-aligned."""
        return self.mechanism.synchronized_versions

    @property
    def waiting(self) -> int:
        """Number of gathers waiting in the lane to be settled."""
        return len(self._waiting)

    def decide(
        self,
        table: NeighborTable,
        now: float,
        position: tuple[float, float] | None,
        version: int | None = None,
    ) -> NodeDecision:
        """Make a full topology control decision for one node.

        *position* is the node's current position ``(x, y)``; it may be
        None where the mechanism does not read it
        (:meth:`~repro.core.consistency.ConsistencyMechanism.resolve`
        says).  A gather and a selection of that gather alone, counted in
        the ``hello`` phase; the lane's waiting decisions are neither
        settled nor dropped.  Raises the owner's
        :class:`~repro.util.errors.ViewError` when it cannot decide, and
        :class:`~repro.util.errors.ConfigurationError` when the mechanism
        reads a *position* that is None.
        """
        gathered = self._gather([table], now, [position], version, "hello")
        if gathered.errors:
            raise gathered.errors[0]
        return self._select([gathered])[0][0]

    def decide_many(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        positions: Sequence[tuple[float, float] | None],
        version: int | None = None,
    ) -> list[NodeDecision | None]:
        """:meth:`decide` for many owners at once — packet-time redecision.

        An owner whose view cannot be built gets None and counts no
        miss, as if its :meth:`decide` had raised :class:`ViewError`.
        """
        return self._select([self._gather(tables, now, positions, version, "packet")])[0]

    def gather(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        positions: Sequence[tuple[float, float] | None],
        version: int | None = None,
        phase: str = "packet",
    ) -> GatheredDecisions:
        """Read many owners' decision inputs at *now* and queue their
        decisions in the lane; :meth:`settle` selects them later.

        Returns the gather, whose ``errors`` name the owners that cannot
        decide.  Each owner that misses the cache drops its latest
        waiting decision unread, when that decision was gathered alone:
        nothing has read it (a read settles the lane), and the fresh
        decision replaces it before anything could.  A cache hit is
        served the decision its owner gathered before, so a hit drops
        nothing, and a decision that a hit follows is no owner's latest:
        it waits to be settled, and gathers settle in order.  A dropped
        decision releases its pinned reads and counts one
        ``decisions_dropped``; its stamp and counters stand.  In a world
        only packet-time decisions hit after a waiting one: its
        Hello-time decisions follow the owner's own Hello, a write to
        its table.
        """
        gathered = self._gather(tables, now, positions, version, phase)
        latest = self._latest
        for owner, kind in zip(gathered.owners, gathered.kinds):
            if kind == _FRESH and owner in latest:
                self._drop(latest.pop(owner))
        if len(gathered.errors) < len(gathered.owners):
            key = self._gathers
            self._gathers += 1
            self._waiting[key] = gathered
            if len(gathered.owners) == 1:
                latest[gathered.owners[0]] = key
        return gathered

    def settle(self) -> list[tuple[NodeDecision, str]]:
        """Select every waiting decision; none waits afterwards.

        Returns each decision with its phase, in gather order; a decision
        names its owner and the instant it was gathered (``decided_at``).
        Whole gathers are selected together, at least
        :data:`_SETTLE_OWNERS` owners per pass, so the decisions waiting
        before a packet-time redecision settle with its first chunk.
        """
        waiting = list(self._waiting.values())
        self._waiting = {}
        self._latest = {}
        settled = []
        lo = owners = 0
        for hi, gathered in enumerate(waiting, 1):
            owners += len(gathered.owners)
            if owners < _SETTLE_OWNERS and hi < len(waiting):
                continue
            block = waiting[lo:hi]
            for g, decisions in zip(block, self._select(block)):
                settled += [(d, g.phase) for d in decisions if d is not None]
            lo, owners = hi, 0
        return settled

    def _drop(self, key: int) -> None:
        """Drop the waiting gather *key* unread: its pinned reads are
        released."""
        gathered = self._waiting.pop(key)
        if isinstance(gathered.views, PendingViews):
            gathered.views.release()
        self._telemetry.count("decisions_dropped")

    def _gather(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        positions: Sequence[tuple[float, float] | None],
        version: int | None,
        phase: str,
    ) -> GatheredDecisions:
        """Read many owners' decision inputs at *now*; :meth:`_select`
        turns them into decisions later.

        The mechanism resolves each owner once
        (:meth:`~repro.core.consistency.ConsistencyMechanism.resolve`:
        its own positions and version).  Each resolved owner's stamp is
        built from that output and checked against the decision cache;
        each hit will be served the standing decision.  The mechanism
        gathers the view members of the other owners
        (:meth:`~repro.core.consistency.ConsistencyMechanism.views`),
        and their stamps are stored, so the cache holds every gathered
        decision's stamp while its selection waits.  Latest and
        multi-version members are read now; versioned members (a
        resolved version that is not None) are pinned now and read when
        they are selected, as of now.  Hit/miss accounting
        and telemetry events happen here, per owner in order, with
        *phase* (``hello`` or ``packet``) as their label.

        A mechanism that does not recompute at packet time stores no
        stamps: each of its decisions in a simulation follows a write to
        the owner's table (its own Hello) or requests a new version (a
        reactive round), so no later decision could hit.  Its decisions
        skip the stamp and the probe, and still count one miss each.

        Raises :class:`~repro.util.errors.ConfigurationError` when a
        decision reads a position that is None, from ``resolve``, before
        any stamp is stored or counted.
        """
        mechanism = self.mechanism
        cached = self.decision_cache_enabled and mechanism.cacheable
        stored = cached and mechanism.recompute_on_packet
        resolved, errors = mechanism.resolve_many(tables, positions, version)
        kinds = [_UNDECIDED if r is None else _FRESH for r in resolved]
        fresh = [i for i, r in enumerate(resolved) if r is not None]
        hits: list[int] = []
        if stored:
            config = self._config_id()
            # (table, table mutations, requested version, configuration
            # id, resolved own positions)
            stamps = {
                i: (tables[i], tables[i].mutations, version, config, resolved[i][0])
                for i in fresh
            }
            windowed = [r is not None and r[1] is None for r in resolved]
            hits = self._cache.hits(stamps, windowed, now)
            if hits:
                for i in hits:
                    kinds[i] = _HIT
                fresh = [i for i in fresh if kinds[i] == _FRESH]
            self._cache.store([stamps[i] for i in fresh], now)
        views = mechanism.views([tables[i] for i in fresh], now, [resolved[i] for i in fresh])
        if cached:
            self.cache_hits += len(hits)
            self.cache_misses += len(fresh)
        elif self.decision_cache_enabled:
            self.cache_uncacheable += len(tables)
        self._trace(tables, now, phase, hits, fresh, cached)
        owners = tuple([t.owner for t in tables])
        versions = tuple([resolved[i][1] for i in fresh])
        # A gather waits until it settles: no empty dict per gather.
        return GatheredDecisions(
            now, owners, tuple(kinds), views, versions, errors or _NO_ERRORS, stored, phase
        )

    def _select(
        self, gathered: Sequence[GatheredDecisions]
    ) -> list[list[NodeDecision | None]]:
        """The decisions of every gather in *gathered*, in order (None
        for an owner that cannot decide).

        The pinned versioned members of all of them are read in one call
        per neighbor store, and their fresh rows are selected in one
        :meth:`~repro.core.consistency.ConsistencyMechanism.select` pass
        (padded blocks for single-version mechanisms).  Each decision is
        made at its own gather's instant (``decided_at``); a cache hit
        gets the decision of its owner's previous gather, refreshed to
        that instant.
        """
        views = [g.views for g in gathered if _FRESH in g.kinds]
        selected = iter(
            self.mechanism.select(self.protocol, GatheredViews.concat(views)) if views else ()
        )
        decisions = self._cache.decisions
        settled = []
        for g in gathered:
            out: list[NodeDecision | None] = []
            versions = iter(g.versions)
            for owner, kind in zip(g.owners, g.kinds):
                if kind == _FRESH:
                    decision = self._decision(next(selected), g.now, next(versions))
                    if g.stored:
                        decisions[owner] = decision
                elif kind == _HIT:
                    decision = decisions[owner]
                    if decision.decided_at != g.now:
                        decision = replace(decision, decided_at=g.now)
                else:
                    decision = None
                out.append(decision)
            settled.append(out)
        return settled

    # ------------------------------------------------------------------ #
    # decision-cache stamps

    def _config_id(self) -> int:
        """Id of the (mechanism, buffer policy, PN mode) in force."""
        config = (self.mechanism.name, self.buffer_policy, self.physical_neighbor_mode)
        return self._config_ids.setdefault(config, len(self._config_ids))

    def _decision(
        self, result: SelectionResult, now: float, version: int | None
    ) -> NodeDecision:
        """A fresh selection of a *version* view as a standing decision
        made at *now*."""
        return NodeDecision(
            owner=result.owner,
            logical_neighbors=result.logical_neighbors,
            actual_range=result.actual_range,
            extended_range=self.buffer_policy.extended_range(result.actual_range),
            decided_at=now,
            version=version,
        )

    def _trace(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        phase: str,
        hits: Sequence[int],
        fresh: Sequence[int],
        cached: bool,
    ) -> None:
        """Count and trace one gather's decisions.

        *hits* and *fresh* index *tables*: the owners served from the
        cache and those freshly decided (*cached* when the cache counted
        them as misses).  Events follow owner order, as one
        :meth:`decide` per owner would emit them; a disarmed collector
        skips building them.
        """
        tel = self._telemetry
        if cached:
            outcome = "miss"
        elif self.decision_cache_enabled:
            outcome = "uncacheable"
        else:
            outcome = "disabled"
        if hits:
            tel.count("decision_cache", len(hits), outcome="hit", phase=phase)
        if fresh:
            tel.count("decision_cache", len(fresh), outcome=outcome, phase=phase)
        if not tel.enabled:
            return
        for i, hit in sorted([(i, True) for i in hits] + [(i, False) for i in fresh]):
            if hit:
                tel.event("decision_cache_hit", t=now, node=tables[i].owner)
            else:
                tel.event("decision_cache_miss", t=now, node=tables[i].owner, outcome=outcome)

    # ------------------------------------------------------------------ #
    # telemetry

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Install a telemetry collector (armed or not).

        :meth:`gather` mirrors the cache counters into the
        ``decision_cache{outcome=...,phase=hello|packet}`` series,
        appends ``decision_cache_hit`` / ``decision_cache_miss`` events
        and counts the waiting decisions it drops in
        ``decisions_dropped``; a disarmed collector (:data:`~repro.telemetry.NULL_TELEMETRY`,
        the default) records nothing.
        """
        self._telemetry = telemetry

    # ------------------------------------------------------------------ #
    # decision-cache maintenance

    def cache_info(self) -> dict[str, int]:
        """Decision-cache counters, ``RunStats``-field-named (for reports)."""
        return {
            "decision_cache_hits": self.cache_hits,
            "decision_cache_misses": self.cache_misses,
            "decision_cache_uncacheable": self.cache_uncacheable,
        }

    def describe(self) -> str:
        """Compact configuration label used in reports and figures."""
        parts = [self.protocol.name, self.mechanism.name]
        if self.buffer_policy.width > 0:
            parts.append(f"buf{self.buffer_policy.width:g}")
        if self.physical_neighbor_mode:
            parts.append("pn")
        return "+".join(parts)

    def __repr__(self) -> str:
        return (
            f"MobilitySensitiveTopologyControl(protocol={self.protocol!r}, "
            f"mechanism={self.mechanism!r}, buffer={self.buffer_policy!r}, "
            f"physical_neighbor_mode={self.physical_neighbor_mode})"
        )


class _DecisionCache:
    """Standing decisions per owner, each with the write stamp it holds for.

    Keyed by owner:

    - ``stamps``: the table (compared by identity; holding it keeps its
      identity from being reused), its ``mutations`` at decision time,
      the requested version, the configuration id and the own positions
      the mechanism resolved;
    - ``decided``: the decision time;
    - ``decisions``: the decision itself.

    The stamp and the time are written when a decision is gathered, the
    decision when it settles, so a probe sees every gathered decision
    while its selection waits.  A hit needs an equal stamp; tuples
    compare field by field, so a write since the standing decision (a
    decision right after the owner's own Hello) fails at ``mutations``.
    A decision that read the expiry-filtered live view also needs the
    same live neighbors now as at the decision time; with ``mutations``
    unchanged the retained state is the one the decision read, so
    :meth:`~repro.core.neighbor_state.NeighborState.live_unchanged`
    decides that exactly.  It runs only for owners whose stamps match;
    a decision read the live view when its resolved version is None.
    """

    def __init__(self) -> None:
        self.stamps: dict[int, tuple] = {}
        self.decided: dict[int, float] = {}
        self.decisions: dict[int, NodeDecision] = {}

    def hits(
        self, stamps: dict[int, tuple], windowed: Sequence[bool], now: float
    ) -> list[int]:
        """The keys of *stamps* (in order) whose stamps still hold at
        *now*; ``windowed[i]`` when decision ``i`` read the
        expiry-filtered live view."""
        held = self.stamps
        found = [i for i, stamp in stamps.items() if held.get(stamp[0].owner) == stamp]
        live = [i for i in found if windowed[i]]
        if live:
            tables = [stamps[i][0] for i in live]
            alive = live_unchanged(tables, [self.decided[t.owner] for t in tables], now)
            gone = {i for i, keep in zip(live, alive.tolist()) if not keep}
            found = [i for i in found if i not in gone]
        return found

    def store(self, stamps: Sequence[tuple], now: float) -> None:
        """Record the stamps of decisions gathered at *now*; their
        decisions follow when they settle."""
        for stamp in stamps:
            owner = stamp[0].owner
            self.stamps[owner] = stamp
            self.decided[owner] = now
