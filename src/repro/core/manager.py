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
decision instant, and :meth:`~MobilitySensitiveTopologyControl.settle`
selects many gathered decisions together later.  The simulator gathers
at Hello time and settles when a decision is read; at packet time (for
packet-recomputing mechanisms) it gathers and settles every node at
once.  Library users call :meth:`~MobilitySensitiveTopologyControl.decide`
or :meth:`~MobilitySensitiveTopologyControl.decide_many` on hand-built
tables, which do both steps.

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


class GatheredDecisions(NamedTuple):
    """One :meth:`MobilitySensitiveTopologyControl.gather` call's
    decisions, waiting to be settled.

    ``kinds[i]`` says what becomes of the call's table ``i`` (owner
    ``owners[i]``): no decision (its :class:`ViewError` is
    ``errors[i]``), the standing decision served from the cache, or a
    fresh selection from the next row of ``views`` (whose members, for
    versioned views, are read when they settle), at the next of
    ``versions``.  *stored* when the cache holds the fresh rows' stamps
    and takes their decisions.
    """

    now: float
    owners: tuple[int, ...]
    kinds: tuple[int, ...]
    views: GatheredViews | PendingViews
    versions: tuple[int | None, ...]
    errors: Mapping[int, ViewError]
    stored: bool

    def fresh_owners(self) -> list[int]:
        """The owners this gather decides afresh (cache misses)."""
        return [o for o, kind in zip(self.owners, self.kinds) if kind == _FRESH]


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
        says).  One :meth:`gather` and one :meth:`settle`, as
        :meth:`decide_many` for one owner, counted in the ``hello``
        phase; raises the owner's :class:`~repro.util.errors.ViewError`
        when it cannot decide, and
        :class:`~repro.util.errors.ConfigurationError` when the mechanism
        reads a *position* that is None.
        """
        gathered = self.gather([table], now, [position], version, phase="hello")
        if gathered.errors:
            raise gathered.errors[0]
        return self.settle([gathered])[0][0]

    def decide_many(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        positions: Sequence[tuple[float, float] | None],
        version: int | None = None,
    ) -> list[NodeDecision | None]:
        """:meth:`decide` for many owners at once — packet-time redecision.

        One :meth:`gather` and one :meth:`settle`.  An owner whose view
        cannot be built gets None and counts no miss, as if its
        :meth:`decide` had raised :class:`ViewError`.
        """
        return self.settle([self.gather(tables, now, positions, version)])[0]

    def gather(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        positions: Sequence[tuple[float, float] | None],
        version: int | None = None,
        phase: str = "packet",
    ) -> GatheredDecisions:
        """Read many owners' decision inputs at *now*; :meth:`settle`
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
        resolved version that is not None) are pinned now and read at
        :meth:`settle`, as of now.  Hit/miss accounting
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
            now, owners, tuple(kinds), views, versions, errors or _NO_ERRORS, stored
        )

    def settle(
        self, gathered: Sequence[GatheredDecisions]
    ) -> list[list[NodeDecision | None]]:
        """The decisions of every :meth:`gather` in *gathered*, in order.

        The pinned versioned members of all of them are read in one call
        per neighbor store, and their fresh rows are selected in one
        :meth:`~repro.core.consistency.ConsistencyMechanism.select` pass
        (padded blocks for single-version mechanisms).  Each decision is
        made at its own gather's instant (``decided_at``); a cache hit
        gets the standing decision refreshed to that instant.  Settle
        gathers in the order they were made, since a hit is served the
        decision of the owner's previous gather.
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

    def discard(self, gathered: Sequence[GatheredDecisions]) -> None:
        """Forget gathers that will never settle (newer decisions of the
        same owners replace them): their pinned reads are released.
        Their stamps and counters stand."""
        for g in gathered:
            if isinstance(g.views, PendingViews):
                g.views.release()

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
        ``decision_cache{outcome=...,phase=hello|packet}`` series and
        appends ``decision_cache_hit`` / ``decision_cache_miss`` events;
        a disarmed collector (:data:`~repro.telemetry.NULL_TELEMETRY`,
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
