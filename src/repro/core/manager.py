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
position into a :class:`NodeDecision`.  The simulator calls it at Hello
time and (for packet-recomputing mechanisms) at forward time; library
users can call it directly on hand-built tables.

Because the paper's decisions are made from *stale, asynchronously
collected* views, most consecutive decisions at a node see identical
inputs — every packet-time recomputation between two Hello generations,
for instance.  :meth:`MobilitySensitiveTopologyControl.decide` therefore
keeps a **view-fingerprint decision cache**: an equality-of-inputs memo
(never an approximation) that returns the standing selection when the
mechanism's declared inputs are unchanged, skipping cost-graph
construction and the removal predicate entirely.  See
``docs/PERFORMANCE.md`` for the fingerprint contents and invalidation
rules.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import BaselineConsistency, ConsistencyMechanism
from repro.core.framework import SelectionResult
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.protocols.base import TopologyControlProtocol
from repro.util.errors import ProtocolError

__all__ = ["NodeDecision", "MobilitySensitiveTopologyControl"]


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
    """

    owner: int
    logical_neighbors: frozenset[int]
    actual_range: float
    extended_range: float
    decided_at: float


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
        Enable the view-fingerprint decision cache (default: the class
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
        #: per-owner standing decision keyed by its input fingerprint
        self._decision_cache: dict[int, tuple[tuple, NodeDecision]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_uncacheable = 0
        # Armed telemetry or None (attach_telemetry); one None check on
        # the decide() path when disarmed — the fault-seam pattern.
        self._telemetry = None
        if (
            self.mechanism.name == "weak"
            and not protocol.supports_conservative
        ):
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
        current_hello: Hello,
        version: int | None = None,
    ) -> NodeDecision:
        """Make a full topology control decision for one node.

        When the decision cache is enabled and the mechanism's declared
        inputs (view fingerprint + requested version + buffer policy) are
        unchanged since the owner's last decision, the standing decision
        is returned with a refreshed ``decided_at`` — bit-identical to a
        recomputation, without building the cost graph.
        """
        fingerprint, cached = self._lookup(table, now, current_hello, version)
        if cached is not None:
            return cached
        result = self.mechanism.decide(
            self.protocol, table, now, current_hello, version=version
        )
        return self._store(table.owner, result, now, fingerprint)

    def decide_many(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        current_hellos: Sequence[Hello],
        version: int | None = None,
    ) -> list[NodeDecision | None]:
        """:meth:`decide` for many owners at once — packet-time redecision.

        Fingerprints and hit/miss accounting are exactly those of one
        :meth:`decide` per owner, in order; every owner that misses the
        cache is then handed to the mechanism in one
        :meth:`~repro.core.consistency.ConsistencyMechanism.decide_many`
        call, which batches them where the mechanism and protocol can.
        An owner whose view cannot be built gets None and counts nothing,
        as if its :meth:`decide` had raised :class:`ViewError`.
        """
        decisions: list[NodeDecision | None] = [None] * len(tables)
        pending: list[tuple[int, tuple | None]] = []
        for i, (table, current_hello) in enumerate(zip(tables, current_hellos)):
            fingerprint, cached = self._lookup(table, now, current_hello, version)
            if cached is None:
                pending.append((i, fingerprint))
            else:
                decisions[i] = cached
        results = self.mechanism.decide_many(
            self.protocol,
            [tables[i] for i, _ in pending],
            now,
            [current_hellos[i] for i, _ in pending],
            version=version,
        )
        for (i, fingerprint), result in zip(pending, results):
            if result is not None:
                decisions[i] = self._store(tables[i].owner, result, now, fingerprint)
        return decisions

    def _lookup(
        self, table: NeighborTable, now: float, current_hello: Hello, version: int | None
    ) -> tuple[tuple | None, NodeDecision | None]:
        """``(fingerprint, standing decision on a cache hit or None)``."""
        if not self.decision_cache_enabled:
            return None, None
        inputs = self.mechanism.decision_fingerprint(
            table, now, current_hello, version=version
        )
        if inputs is None:
            self.cache_uncacheable += 1
            return None, None
        fingerprint = (inputs, self.buffer_policy, self.physical_neighbor_mode)
        cached = self._decision_cache.get(table.owner)
        if cached is None or cached[0] != fingerprint:
            return fingerprint, None
        self.cache_hits += 1
        tel = self._telemetry
        if tel is not None:
            tel.count("decision_cache", outcome="hit")
            tel.event("decision_cache_hit", t=now, node=table.owner)
        decision = cached[1]
        if decision.decided_at != now:
            decision = replace(decision, decided_at=now)
        return fingerprint, decision

    def _store(
        self,
        owner: int,
        result: SelectionResult,
        now: float,
        fingerprint: tuple | None,
    ) -> NodeDecision:
        """Turn a fresh selection into the owner's standing decision."""
        decision = NodeDecision(
            owner=result.owner,
            logical_neighbors=result.logical_neighbors,
            actual_range=result.actual_range,
            extended_range=self.buffer_policy.extended_range(result.actual_range),
            decided_at=now,
        )
        if fingerprint is not None:
            self.cache_misses += 1
            self._decision_cache[owner] = (fingerprint, decision)
        tel = self._telemetry
        if tel is not None:
            if fingerprint is not None:
                outcome = "miss"
            elif self.decision_cache_enabled:
                outcome = "uncacheable"
            else:
                outcome = "disabled"
            tel.count("decision_cache", outcome=outcome)
            tel.event("decision_cache_miss", t=now, node=owner, outcome=outcome)
        return decision

    # ------------------------------------------------------------------ #
    # telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Install (or clear, with None) a telemetry collector.

        Armed, :meth:`decide` mirrors the cache counters into the
        ``decision_cache{outcome=...}`` series and appends
        ``decision_cache_hit`` / ``decision_cache_miss`` events; disarmed
        (None or a :class:`~repro.telemetry.NullTelemetry`), the decide
        path pays one ``None`` check.
        """
        if telemetry is not None and not getattr(telemetry, "enabled", True):
            telemetry = None
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

    def clear_decision_cache(self) -> None:
        """Drop all standing decisions (counters are kept)."""
        self._decision_cache.clear()

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
