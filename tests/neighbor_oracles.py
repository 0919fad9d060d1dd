"""Hello-built reference views of the neighbor store (test oracles).

The program reads its neighbor store as arrays only: decisions through
the member gathers of :mod:`repro.core.tables`, the audit and the
fuzzer's oracles through each pair's ring columns.  This module rebuilds
each pair's retained Hellos from those columns, entry by entry, and
builds the paper's views from them, so the array reads have a reference
written straight from the definitions, sharing no code with them:

- :func:`history` / :func:`history_of`, a pair's retained Hellos, oldest
  first, and :func:`message_versions_in_use` (``M(t, v)``);
- :func:`latest_view` (baseline and view synchronization),
  :func:`versioned_view` (proactive and reactive, Theorem 2) and
  :func:`multi_view` (weak consistency, Definition 2), the references of
  :func:`~repro.core.tables.latest_members`,
  :func:`~repro.core.tables.pin_versioned_members` and
  :func:`~repro.core.tables.history_members`;
- :func:`advertisement` and :func:`available_versions`, the owner's own
  records by version;
- :func:`count_hello_builds`, which counts the Hellos a run builds, by
  module: a node's emission and gossip's wire build them, no read does;
- :func:`audit_world` and :func:`freshness_oracle`, the audit and the
  freshness oracle over rebuilt Hellos: the differential references of
  :func:`repro.core.audit.audit_world` and
  :func:`repro.faults.oracles.freshness_oracle`.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from repro.core.audit import Violation
from repro.core.manager import NodeDecision
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.faults.oracles import FRESHNESS_MECHANISMS, OracleFinding, _skew_bound
from repro.sim.world import NetworkWorld
from repro.util.errors import ViewError


def history(state: NeighborState, receiver: int, sender: int) -> tuple[Hello, ...]:
    """Retained Hellos of one (receiver, sender) pair of *state*, oldest
    first, rebuilt entry by entry from the ring columns."""
    state.senders(receiver)  # any read applies the queued writes
    key = (receiver << 32) + sender
    at = int(np.searchsorted(state._keys, key))
    if at == state._keys.size or state._keys[at] != key:
        return ()
    slot = int(state._key_slots[at])
    writes, k = int(state._writes[slot]), state.k
    count = min(writes, k)
    sender = int(state._slot_sender[slot])
    return tuple(
        Hello(
            sender, int(state._version[slot, j]), tuple(state._xy[slot, j].tolist()),
            float(state._sent[slot, j]), float(state._ts[slot, j]),
        )
        for j in ((writes - count + i) % k for i in range(count))
    )


def history_of(table: NeighborTable, neighbor: int) -> tuple[Hello, ...]:
    """Retained Hellos of one neighbor of *table*, oldest first."""
    return history(table._state, table._row, neighbor)


def message_versions_in_use(table: NeighborTable, neighbor: int) -> set[int]:
    """Versions of *neighbor*'s Hellos currently retained (``M(t, v)``)."""
    return {h.version for h in history_of(table, neighbor)}


def _senders(table: NeighborTable) -> list[int]:
    return table._state.senders(table._row)


def latest_view(table: NeighborTable, now: float, own_hello: Hello) -> LocalView:
    """Single-version view from each neighbor's most recent live Hello."""
    newest = (history_of(table, s)[-1] for s in _senders(table))
    return LocalView(
        owner=table.owner,
        own_hello=own_hello,
        neighbor_hellos={
            h.sender: h for h in newest if now - h.sent_at <= table.expiry
        },
        normal_range=table.normal_range,
        sampled_at=now,
    )


def available_versions(table: NeighborTable) -> set[int]:
    """Versions for which the owner has advertised."""
    return {h.version for h in table.own_history}


def advertisement(table: NeighborTable, version: int) -> Hello:
    """The owner's oldest retained own Hello of *version*; raises
    :class:`ViewError` when it has not advertised that version (or it
    has left the retained history)."""
    own = next((h for h in table.own_history if h.version == version), None)
    if own is None:
        raise ViewError(f"node {table.owner} has not advertised version {version} yet")
    return own


def versioned_view(table: NeighborTable, now: float, version: int) -> LocalView:
    """View built *only* from Hellos carrying the given global version.

    Neighbors with no retained Hello of that version are absent — the
    proactive scheme's rule that enforces ``|M(t, v)| = 1``.  The owner's
    own record must exist for that version.
    """
    matches = (
        next((h for h in history_of(table, s) if h.version == version), None)
        for s in _senders(table)
    )
    return LocalView(
        owner=table.owner,
        own_hello=advertisement(table, version),
        neighbor_hellos={h.sender: h for h in matches if h is not None},
        normal_range=table.normal_range,
        sampled_at=now,
    )


def multi_view(
    table: NeighborTable, now: float, own_hello: Hello | None = None
) -> MultiVersionView:
    """Multi-version view over all retained live Hellos (weak consistency).

    The owner contributes its advertisement history; *own_hello*, when
    given, is appended as the freshest own record.
    """
    own = list(table.own_history)
    if own_hello is not None:
        own.append(own_hello)
    if not own:
        raise ViewError(f"node {table.owner} has no own position record")
    histories = (history_of(table, s) for s in _senders(table))
    return MultiVersionView(
        owner=table.owner,
        own_hellos=own,
        neighbor_hellos={
            hs[-1].sender: hs for hs in histories if now - hs[-1].sent_at <= table.expiry
        },
        normal_range=table.normal_range,
        sampled_at=now,
    )


def count_hello_builds(monkeypatch) -> Counter:
    """A counter of every Hello built from now on (until *monkeypatch*
    undoes it), by the module whose code builds it."""
    built: Counter = Counter()
    init = Hello.__init__

    def counted(self, *args, **kwargs):
        built[sys._getframe(1).f_globals["__name__"]] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Hello, "__init__", counted)
    return built


# ---------------------------------------------------------------------- #
# the audit and the freshness oracle over rebuilt Hellos


def audit_world(world: NetworkWorld) -> list[Violation]:
    """:func:`repro.core.audit.audit_world`, reading every pair's Hellos."""
    violations: list[Violation] = []
    cfg = world.config
    policy = world.manager.buffer_policy
    mechanism = world.manager.mechanism
    weak_mode = mechanism.name == "weak"
    gossip_staleness = (
        mechanism.staleness_bound(cfg.n_nodes) if mechanism.name == "gossip" else 0.0
    )
    injector = world.fault_injector
    noise_bound = 0.0 if injector is None else injector.position_noise_bound()
    tolerance = cfg.normal_range * 1e-6 + 1e-6
    for node in world.nodes:
        table = node.table
        for nbr in table.known_neighbors():
            hist = history_of(table, nbr)
            if len(hist) > cfg.history_depth:
                violations.append(
                    Violation(node.node_id, "history-depth",
                              f"{len(hist)} Hellos kept for {nbr}")
                )
            versions = [h.version for h in hist]
            if any(b <= a for a, b in zip(versions, versions[1:])):
                violations.append(
                    Violation(node.node_id, "version-order",
                              f"versions {versions} for {nbr}")
                )
        decision = node.decision
        if decision is None:
            continue
        ghosts = [v for v in decision.logical_neighbors if not history_of(table, v)]
        if ghosts:
            violations.append(
                Violation(node.node_id, "ghost-neighbor",
                          f"selected {ghosts} without any Hello on record")
            )
        if decision.version is not None:
            dist = _versioned_distance(table, decision)
            if dist is not None and dist > decision.actual_range + tolerance:
                violations.append(
                    Violation(
                        node.node_id, "range-coverage",
                        f"version-{decision.version} d = {dist:.2f} m exceeds "
                        f"actual range {decision.actual_range:.2f} m",
                    )
                )
        else:
            for v in decision.logical_neighbors:
                hist = history_of(table, v)
                if not hist:
                    continue
                believed = [
                    h for h in hist
                    if h.sent_at + cfg.propagation_delay <= decision.decided_at + 1e-12
                ]
                if not believed:
                    continue
                own = table.last_advertised
                if own is None:
                    continue
                if weak_mode:
                    dist = max(own.distance_to(h) for h in believed)
                else:
                    dist = own.distance_to(believed[-1])
                if dist > decision.actual_range + tolerance:
                    slack = (
                        2.0 * cfg.max_hello_interval * world.mobility.max_speed()
                        + 4.0 * noise_bound
                        + 2.0 * gossip_staleness * world.mobility.max_speed()
                    )
                    if dist > decision.actual_range + slack + 1e-6:
                        violations.append(
                            Violation(
                                node.node_id, "range-coverage",
                                f"believed d(., {v}) = {dist:.2f} m exceeds actual "
                                f"range {decision.actual_range:.2f} m (+slack)",
                            )
                        )
        expected = policy.extended_range(decision.actual_range)
        if not np.isclose(decision.extended_range, expected):
            violations.append(
                Violation(node.node_id, "buffer-arithmetic",
                          f"extended {decision.extended_range:.2f} != "
                          f"policy({decision.actual_range:.2f}) = {expected:.2f}")
            )
        if decision.logical_neighbors and decision.actual_range <= 0:
            violations.append(
                Violation(node.node_id, "zero-range-with-neighbors",
                          f"{len(decision.logical_neighbors)} neighbors, range 0")
            )
        if not decision.logical_neighbors and decision.actual_range != 0:
            violations.append(
                Violation(node.node_id, "range-without-neighbors",
                          f"range {decision.actual_range:.2f} with no neighbors")
            )
    return violations


def _versioned_distance(table: NeighborTable, decision: NodeDecision) -> float | None:
    own = next((h for h in table.own_history if h.version == decision.version), None)
    if own is None:
        return None
    entries = [
        next((h for h in history_of(table, v) if h.version == decision.version), None)
        for v in decision.logical_neighbors
    ]
    return max((own.distance_to(h) for h in entries if h is not None), default=0.0)


def freshness_oracle(world: NetworkWorld) -> list[OracleFinding]:
    """:func:`repro.faults.oracles.freshness_oracle`, reading every
    selected pair's Hellos."""
    if world.manager.mechanism.name not in FRESHNESS_MECHANISMS:
        return []
    cfg = world.config
    now = world.engine.now
    tol = cfg.propagation_delay + 2.0 * _skew_bound(world) + 1e-6
    findings = []
    for node in world.nodes:
        decision = node.decision
        if decision is None:
            continue
        for v in decision.logical_neighbors:
            hist = history_of(node.table, v)
            if not hist:
                continue
            age = min(decision.decided_at - h.sent_at for h in hist)
            if age > cfg.hello_expiry + tol:
                findings.append(
                    OracleFinding(
                        "freshness", now,
                        f"node {node.node_id} decided at "
                        f"t={decision.decided_at:.2f}s with neighbor {v} "
                        f"whose freshest retained Hello was {age:.2f}s old "
                        f"(expiry {cfg.hello_expiry:g}s)",
                    )
                )
    return findings
