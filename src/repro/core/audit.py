"""Runtime invariant auditing for simulated worlds.

A topology control bug usually shows up as a *silent* broken invariant
(a logical neighbor outside the view, a range that does not cover the
selection) long before it shows up in a metric.  :func:`audit_world`
checks every structural invariant the paper's machinery promises, on the
live state of a world, and returns human-readable violations — used by the
test suite, and offered to users as a debugging tool
(``audit_world(world)`` after any suspicious run).

The audit reads each node's retained Hellos where decisions read them,
in the neighbor store's ring columns
(:meth:`~repro.core.tables.NeighborTable.rings`, and the store's
versioned members for a versioned decision); no Hello is rebuilt.
:func:`noise_bound` and :func:`gossip_staleness` are the slack terms it
shares with the fuzzer's oracles (:mod:`repro.faults.oracles`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.manager import NodeDecision
from repro.core.tables import NeighborTable, pin_versioned_members, read_pinned
from repro.sim.world import NetworkWorld

__all__ = ["Violation", "audit_world", "noise_bound", "gossip_staleness"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    node: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"node {self.node}: {self.invariant} — {self.detail}"


def noise_bound(world: NetworkWorld) -> float:
    """Largest displacement injected GPS noise gives one advertised
    position (the fault schedule's ``PositionNoise`` amplitudes); 0
    without a fault schedule."""
    injector = world.fault_injector
    return 0.0 if injector is None else injector.position_noise_bound()


def gossip_staleness(world: NetworkWorld) -> float:
    """Extra view lag the gossip mechanism may legitimately carry.

    Anti-entropy views converge in ``rounds_to_converge × interval``
    (:meth:`~repro.core.consistency.GossipConsistency.staleness_bound`);
    until then a node may decide from a relayed Hello that old.  Zero for
    every other mechanism, so their slack values are unchanged.
    """
    mechanism = world.manager.mechanism
    if mechanism.name != "gossip":
        return 0.0
    return mechanism.staleness_bound(world.config.n_nodes)


def audit_world(world: NetworkWorld) -> list[Violation]:
    """Check all per-node decision invariants *now*; return violations.

    Invariants checked:

    1. every logical neighbor is a live member of the node's view;
    2. the actual range covers the believed distance to every logical
       neighbor (advertised positions, conservative under weak mode); a
       versioned decision is measured exactly at the version it read;
    3. the extended range is the buffer policy applied to the actual one;
    4. a node with logical neighbors has a positive range, one without has
       range zero;
    5. Hello histories are bounded by the configured depth and versions
       increase strictly per sender.
    """
    violations: list[Violation] = []
    cfg = world.config
    policy = world.manager.buffer_policy
    weak_mode = world.manager.mechanism.name == "weak"
    v_max = world.mobility.max_speed()
    # Baseline decisions use the CURRENT position rather than the
    # advertised one, which can shift the believed distance; allow the
    # drift bound of one Hello interval.  Advertised positions may carry
    # injected GPS noise: each end of a believed distance may be a
    # different noisy reading than the decision's, two readings up to
    # twice the bound apart, so the slack widens by four bounds and noise
    # alone never trips invariant 2.  Anti-entropy relays can land a
    # Hello that was *sent* before the decision but arrived (merged) only
    # after it — the believed distance would then be computed from an
    # entry the decision never saw; the mechanism's staleness window
    # bounds that retroactive drift.
    slack = (
        2.0 * cfg.max_hello_interval * v_max
        + 4.0 * noise_bound(world)
        + 2.0 * gossip_staleness(world) * v_max
    )
    # Rounding between the protocol's distances and the audit's.
    tolerance = cfg.normal_range * 1e-6 + 1e-6
    for node in world.nodes:
        table = node.table
        u = node.node_id
        # -- invariant 5: history discipline, every pair's ring
        senders = table.known_neighbors()
        held, versions, _, _ = table.rings(senders)
        fills = held.sum(axis=1)
        disorder = ((versions[:, 1:] <= versions[:, :-1]) & held[:, 1:]).any(axis=1)
        for i in np.flatnonzero((fills > cfg.history_depth) | disorder).tolist():
            if fills[i] > cfg.history_depth:
                violations.append(
                    Violation(u, "history-depth",
                              f"{int(fills[i])} Hellos kept for {senders[i]}")
                )
            if disorder[i]:
                violations.append(
                    Violation(u, "version-order",
                              f"versions {versions[i, held[i]].tolist()} for {senders[i]}")
                )
        decision = node.decision
        if decision is None:
            continue
        logical = list(decision.logical_neighbors)
        held, _, sent, xy = table.rings(logical)
        heard = held.any(axis=1)
        # -- invariant 1: selections are view members (neighbors may have
        # expired since the decision; only flag ones never heard from)
        ghosts = [v for v, h in zip(logical, heard.tolist()) if not h]
        if ghosts:
            violations.append(
                Violation(u, "ghost-neighbor",
                          f"selected {ghosts} without any Hello on record")
            )
        # -- invariant 2: believed coverage at decision time
        if decision.version is not None:
            dist = _versioned_distance(table, decision)
            if dist is not None and dist > decision.actual_range + tolerance:
                violations.append(
                    Violation(
                        u, "range-coverage",
                        f"version-{decision.version} d = {dist:.2f} m exceeds "
                        f"actual range {decision.actual_range:.2f} m",
                    )
                )
        elif table.last_advertised is not None:
            dist = _believed_distances(
                table.last_advertised.position,
                held & (sent + cfg.propagation_delay <= decision.decided_at + 1e-12),
                xy, weak_mode,
            )
            uncovered = (dist > decision.actual_range + tolerance) & (
                dist > decision.actual_range + slack + 1e-6
            )
            for i in np.flatnonzero(uncovered).tolist():
                violations.append(
                    Violation(
                        u, "range-coverage",
                        f"believed d(., {logical[i]}) = {dist[i]:.2f} m exceeds actual "
                        f"range {decision.actual_range:.2f} m (+slack)",
                    )
                )
        # -- invariant 3: buffer arithmetic
        expected = policy.extended_range(decision.actual_range)
        if not np.isclose(decision.extended_range, expected):
            violations.append(
                Violation(u, "buffer-arithmetic",
                          f"extended {decision.extended_range:.2f} != "
                          f"policy({decision.actual_range:.2f}) = {expected:.2f}")
            )
        # -- invariant 4: range/selection coherence
        if decision.logical_neighbors and decision.actual_range <= 0:
            violations.append(
                Violation(u, "zero-range-with-neighbors",
                          f"{len(decision.logical_neighbors)} neighbors, range 0")
            )
        if not decision.logical_neighbors and decision.actual_range != 0:
            violations.append(
                Violation(u, "range-without-neighbors",
                          f"range {decision.actual_range:.2f} with no neighbors")
            )
    return violations


def _believed_distances(
    own: tuple[float, float], believed: np.ndarray, xy: np.ndarray, weak: bool
) -> np.ndarray:
    """Per ring of *xy* (``(m, k, 2)``, oldest first), the distance from
    *own* to its newest *believed* entry, or under weak consistency to
    its farthest one; NaN for a ring with no believed entry."""
    dist = np.hypot(own[0] - xy[..., 0], own[1] - xy[..., 1])
    if weak:
        dist = np.where(believed, dist, -np.inf).max(axis=1, initial=-np.inf)
    else:
        newest = believed.shape[1] - 1 - believed[:, ::-1].argmax(axis=1)
        dist = dist[np.arange(dist.shape[0]), newest]
    return np.where(believed.any(axis=1), dist, np.nan)


def _versioned_distance(table: NeighborTable, decision: NodeDecision) -> float | None:
    """The distance from the owner's advertisement of the decision's
    version to its farthest logical neighbor's Hello of that version: the
    positions the decision read, the store's versioned members.  Neighbors
    whose Hello of the version is no longer retained are left out; None
    when the owner's own advertisement of it is gone."""
    own = next((h for h in table.own_history if h.version == decision.version), None)
    if own is None:
        return None
    _, ids, xy = read_pinned(pin_versioned_members([table], [decision.version]))
    xy = xy[np.isin(ids, list(decision.logical_neighbors))]
    dist = np.hypot(own.position[0] - xy[:, 0], own.position[1] - xy[:, 1])
    return float(dist.max(initial=0.0))
