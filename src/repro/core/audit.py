"""Runtime invariant auditing for simulated worlds.

A topology control bug usually shows up as a *silent* broken invariant
(a logical neighbor outside the view, a range that does not cover the
selection) long before it shows up in a metric.  :func:`audit_world`
checks every structural invariant the paper's machinery promises, on the
live state of a world, and returns human-readable violations — used by the
test suite, and offered to users as a debugging tool
(``audit_world(world)`` after any suspicious run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.manager import NodeDecision
from repro.core.tables import NeighborTable
from repro.sim.world import NetworkWorld

__all__ = ["Violation", "audit_world"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    node: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"node {self.node}: {self.invariant} — {self.detail}"


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
    now = world.engine.now
    cfg = world.config
    policy = world.manager.buffer_policy
    mechanism = world.manager.mechanism
    weak_mode = mechanism.name == "weak"
    # Anti-entropy relays can land a Hello that was *sent* before the
    # decision but arrived (merged) only after it — the believed distance
    # below would then be computed from an entry the decision never saw.
    # Bound that retroactive drift by the mechanism's staleness window.
    gossip_staleness = (
        mechanism.staleness_bound(cfg.n_nodes) if mechanism.name == "gossip" else 0.0
    )
    # Advertised positions may carry injected GPS noise (bounded by the
    # fault schedule's PositionNoise amplitudes).  Each end of a believed
    # distance may be a different noisy reading than the decision's, two
    # readings up to twice the bound apart, so the drift slack widens by
    # four bounds: noise alone never trips invariant 2.
    injector = world.fault_injector
    noise_bound = 0.0 if injector is None else injector.position_noise_bound()
    # Rounding between the protocol's distances and Hello.distance_to.
    tolerance = cfg.normal_range * 1e-6 + 1e-6
    for node in world.nodes:
        table = node.table
        # -- invariant 5: history discipline
        for nbr in table.known_neighbors():
            history = table.history_of(nbr)
            if len(history) > cfg.history_depth:
                violations.append(
                    Violation(node.node_id, "history-depth",
                              f"{len(history)} Hellos kept for {nbr}")
                )
            versions = [h.version for h in history]
            if any(b <= a for a, b in zip(versions, versions[1:])):
                violations.append(
                    Violation(node.node_id, "version-order",
                              f"versions {versions} for {nbr}")
                )
        decision = node.decision
        if decision is None:
            continue
        live = set(table.known_neighbors(now))
        # -- invariant 1: selections are view members (neighbors may have
        # expired since the decision; only flag ones never heard from)
        ghosts = [
            v for v in decision.logical_neighbors
            if not table.history_of(v)
        ]
        if ghosts:
            violations.append(
                Violation(node.node_id, "ghost-neighbor",
                          f"selected {ghosts} without any Hello on record")
            )
        # -- invariant 2: believed coverage at decision time
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
                history = table.history_of(v)
                if not history:
                    continue
                believed = [
                    h for h in history
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
                    # baseline decisions use the CURRENT position rather than
                    # the advertised one, which can shift the believed
                    # distance; allow the drift bound of one Hello interval.
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
        # -- invariant 3: buffer arithmetic
        expected = policy.extended_range(decision.actual_range)
        if not np.isclose(decision.extended_range, expected):
            violations.append(
                Violation(node.node_id, "buffer-arithmetic",
                          f"extended {decision.extended_range:.2f} != "
                          f"policy({decision.actual_range:.2f}) = {expected:.2f}")
            )
        # -- invariant 4: range/selection coherence
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
    """The distance from the owner's advertisement of the decision's
    version to its farthest logical neighbor's Hello of that version: the
    positions the decision read.  Neighbors whose Hello of the version
    is no longer retained are left out; None when the owner's own
    advertisement of it is gone."""
    own = next((h for h in table.own_history if h.version == decision.version), None)
    if own is None:
        return None
    entries = [
        next((h for h in table.history_of(v) if h.version == decision.version), None)
        for v in decision.logical_neighbors
    ]
    return max((own.distance_to(h) for h in entries if h is not None), default=0.0)
