"""Theorem-derived runtime oracles for the differential fuzzer.

Each oracle turns one of the paper's guarantees into a machine-checkable
predicate over a live :class:`~repro.sim.world.NetworkWorld`, *sound under
fault injection*: every slack term below is a worst-case bound derived
from the armed :class:`~repro.faults.schedule.FaultSchedule` (clock-skew
magnitudes, position-noise amplitudes, Hello-interval stretch), so a
reported finding is a genuine broken guarantee, never an artifact of the
injected disturbance itself.

The oracles, and what they correspond to:

- :func:`audit_oracle` — the structural invariants of
  :func:`repro.core.audit.audit_world` (always applicable).
- :func:`freshness_oracle` — expiry-filtered mechanisms must never base a
  decision exclusively on Hellos older than the expiry window (this is
  the detector that catches :class:`~repro.faults.fuzz.BrokenViewSync`).
- :func:`theorem5_oracle` — with the buffer zone sized by Theorem 5
  (``l = 2 Δ'' v``), every logical link's current true length is covered
  by the selecting endpoint's extended range.  Under a stochastic
  propagation model the oracle's slack widens by the model's staleness
  allowance (:func:`theorem5_slack`): failed reception draws can age a
  view by up to one extra Hello generation without any fault injected.
- :func:`static_connectivity_oracle` — in a static scenario, once every
  fault's influence has drained, a connected undisturbed topology implies
  a connected logical topology *and* effective (deliverable) connectivity.
  Unit-disk only: under shadowing or probabilistic reception the geometric
  disk no longer promises delivery, so the implication does not hold.

:func:`check_instant` composes the applicable subset at one sampling
instant and is the single entry point the fuzz runner calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.audit import audit_world, gossip_staleness, noise_bound
from repro.faults.schedule import ClockSkew, DeliveryDelay, HelloIntervalScale
from repro.metrics.connectivity import (
    logical_topology_connected,
    original_topology_connected,
    strictly_connected,
)
from repro.sim.world import NetworkWorld

__all__ = [
    "OracleFinding",
    "FRESHNESS_MECHANISMS",
    "audit_oracle",
    "freshness_oracle",
    "theorem5_slack",
    "theorem5_oracle",
    "static_connectivity_oracle",
    "check_instant",
]

#: Mechanisms whose ``decide`` filters the view through the expiry window,
#: making the freshness oracle applicable.  Versioned mechanisms
#: (proactive/reactive) deliberately read expired Hellos, so the oracle
#: would false-positive on them.  Gossip qualifies: epidemically merged
#: entries land in the same expiry-filtered latest view.
FRESHNESS_MECHANISMS = frozenset(
    {"baseline", "view-sync", "weak", "broken-view-sync", "gossip"}
)


@dataclass(frozen=True)
class OracleFinding:
    """One oracle failure at one instant."""

    oracle: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] t={self.time:.2f}s: {self.detail}"


def _skew_bound(world: NetworkWorld) -> float:
    """Worst-case pairwise clock disagreement, configured plus injected."""
    extra = 0.0
    if world.fault_injector is not None:
        extra = sum(
            abs(e.offset)
            for e in world.fault_injector.schedule
            if isinstance(e, ClockSkew)
        )
    return world.config.max_clock_skew + extra


def _interval_stretch(world: NetworkWorld) -> float:
    """Largest factor by which any node's Hello interval can be stretched."""
    stretch = 1.0
    if world.fault_injector is not None:
        for e in world.fault_injector.schedule:
            if isinstance(e, HelloIntervalScale) and e.factor > 1.0:
                stretch *= e.factor
    return stretch


def audit_oracle(world: NetworkWorld) -> list[OracleFinding]:
    """Structural invariants (:func:`~repro.core.audit.audit_world`)."""
    now = world.engine.now
    return [
        OracleFinding("audit", now, str(v)) for v in audit_world(world)
    ]


def freshness_oracle(world: NetworkWorld) -> list[OracleFinding]:
    """No expiry-filtered decision may rest on exclusively stale Hellos.

    For every standing decision of an expiry-filtered mechanism, each
    selected logical neighbor must have *some* retained Hello (the newest
    ``sent_at`` of its ring in the neighbor store) no older
    (relative to the decision instant) than the expiry window.  A correct
    mechanism satisfies this by construction — the neighbor was live when
    selected, and later Hellos can only be fresher — while a mechanism
    that skips the expiry filter keeps selecting silenced neighbors and
    trips it as soon as a fault (outage, loss burst) makes one stale.
    """
    mech = world.manager.mechanism.name
    if mech not in FRESHNESS_MECHANISMS:
        return []
    cfg = world.config
    now = world.engine.now
    # Stamps may disagree by the clock-skew bound at each end, and a Hello
    # is only observable one propagation delay after its stamp.
    tol = cfg.propagation_delay + 2.0 * _skew_bound(world) + 1e-6
    findings = []
    for node in world.nodes:
        decision = node.decision
        if decision is None:
            continue
        logical = list(decision.logical_neighbors)
        held, _, sent, _ = node.table.rings(logical)
        # The age of each neighbor's freshest retained Hello; a neighbor
        # with none is flagged as ghost-neighbor by the audit oracle.
        # Negative ages (Hellos newer than the decision) are freshness
        # unprovable either way, so they pass.
        ages = decision.decided_at - np.where(held, sent, -np.inf).max(axis=1, initial=-np.inf)
        stale = held.any(axis=1) & (ages > cfg.hello_expiry + tol)
        for i in np.flatnonzero(stale).tolist():
            findings.append(
                OracleFinding(
                    "freshness", now,
                    f"node {node.node_id} decided at "
                    f"t={decision.decided_at:.2f}s with neighbor {logical[i]} "
                    f"whose freshest retained Hello was {ages[i]:.2f}s old "
                    f"(expiry {cfg.hello_expiry:g}s)",
                )
            )
    return findings


def theorem5_slack(world: NetworkWorld) -> float:
    """Worst-case allowance the Theorem-5 coverage check must grant.

    Sums every bounded disturbance that can legitimately widen the gap
    between a logical link's current length and the selecting endpoint's
    extended range: injected position noise, clock skew (configured plus
    injected) times speed, propagation delay times speed, Hello-interval
    stretch beyond nominal, and — when a *stochastic* propagation model
    is armed — the model's staleness allowance
    (:meth:`~repro.sim.propagation.PropagationModel.staleness_allowance`):
    a failed reception draw ages the view by up to one extra Hello
    generation of motion at both endpoints, exactly like a one-generation
    interval stretch.  Deterministic models (unit disk, log-distance)
    contribute zero, so the historical slack value is unchanged for them.
    """
    cfg = world.config
    v_max = world.mobility.max_speed()
    return (
        2.0 * noise_bound(world)
        + 2.0 * v_max * (2.0 * _skew_bound(world) + cfg.propagation_delay)
        # Interval stretch beyond nominal ages the decision past what the
        # buffer was sized for; charge the excess drift to slack.
        + 2.0 * v_max * (_interval_stretch(world) - 1.0) * cfg.max_hello_interval
        # Stochastic reception: each missed draw defers the view refresh
        # by one Hello generation at each endpoint.
        + 2.0 * v_max * world.propagation.staleness_allowance(cfg)
        # Epidemic dissemination: gossip views may lag behind direct
        # delivery by up to rounds_to_converge × gossip_interval.
        + 2.0 * v_max * gossip_staleness(world)
        + 1e-6
    )


def theorem5_oracle(world: NetworkWorld) -> list[OracleFinding]:
    """Theorem 5: a properly sized buffer keeps every logical link covered.

    Only sound when the run's buffer width is at least
    ``buffer_width(2 v_max, expiry + max_interval)`` — the fuzz generator
    flags such cases with ``theorem5=True``.  Nodes whose decision cadence
    a fault disrupted (an outage overlapping the age window stalls
    re-decisions) are skipped; injected noise, skew, interval stretch and
    stochastic-reception staleness widen the allowance
    (:func:`theorem5_slack`) instead.
    """
    cfg = world.config
    now = world.engine.now
    v_max = world.mobility.max_speed()
    if v_max <= 0.0:
        return []
    inj = world.fault_injector
    # Worst staleness a standing decision may legitimately carry.
    age_window = (
        cfg.hello_expiry
        + _interval_stretch(world) * cfg.max_hello_interval
        + world.propagation.staleness_allowance(cfg)
        + gossip_staleness(world)
    )
    slack = theorem5_slack(world)
    delay_sum = 0.0
    if inj is not None:
        delay_sum = sum(
            e.delay for e in inj.schedule if isinstance(e, DeliveryDelay)
        )
    snap = world.snapshot()
    findings = []
    for node in world.nodes:
        u = node.node_id
        decision = node.decision
        if decision is None or not decision.logical_neighbors:
            continue
        # An outage stalls u's Hello emission and therefore its
        # re-decisions; in-flight deliveries delayed into the window have
        # the same effect on the view.  Skip u until the disturbance ages
        # out of the decision window.
        if inj is not None and inj.node_disturbed_since(
            u, now - age_window - delay_sum, now
        ):
            continue
        for v in decision.logical_neighbors:
            d_uv = snap.pair_distance(u, v)
            gap = d_uv - (snap.extended_ranges[u] + slack)
            if gap > 0.0:
                findings.append(
                    OracleFinding(
                        "theorem5", now,
                        f"logical link {u}->{v} is {d_uv:.1f} m "
                        f"long but {u}'s extended range is only "
                        f"{snap.extended_ranges[u]:.1f} m "
                        f"(uncovered by {gap:.1f} m)",
                    )
                )
    return findings


def static_connectivity_oracle(world: NetworkWorld) -> list[OracleFinding]:
    """Static network, faults drained, G connected ⇒ connected topology.

    In a static scenario every Hello advertises the true (never stale)
    position, so once the last fault's influence has flushed through the
    expiry window plus two Hello generations, the mechanisms' consistency
    guarantees apply unconditionally: the logical topology derived from a
    connected undisturbed graph must be connected, and the in-force
    ranges must actually deliver it (strict connectivity).

    Only sound under the unit disk: with log-distance shadowing an
    adverse pair factor shrinks a link below its geometric length (a node
    can select a neighbour whose Hello barely arrived, with no buffer to
    spare), and probabilistic reception denies delivery outright — strict
    connectivity can then genuinely fail with nothing broken, so the
    oracle stands down for every non-unit-disk model.
    """
    cfg = world.config
    now = world.engine.now
    if not world.propagation.is_unit_disk:
        return []
    if world.mobility.max_speed() > 0.0:
        return []
    inj = world.fault_injector
    settle = cfg.hello_expiry + 2.0 * cfg.max_hello_interval
    if inj is not None:
        # Delayed deliveries keep acting past their event window; ClockSkew
        # counts as always-active in ``any_active`` and is conservatively
        # treated as a standing disturbance.
        settle += sum(
            e.delay for e in inj.schedule if isinstance(e, DeliveryDelay)
        )
        if inj.schedule.any_active(now - settle, now):
            return []
    if now < cfg.warmup + settle:
        return []  # tables may still be filling
    snap = world.snapshot()
    if not original_topology_connected(snap):
        return []  # theorem precondition absent; nothing to assert
    findings = []
    if not logical_topology_connected(snap):
        findings.append(
            OracleFinding(
                "static-logical-connectivity", now,
                "undisturbed topology is connected but the logical "
                "topology is partitioned",
            )
        )
    elif not strictly_connected(snap, world.manager.physical_neighbor_mode):
        findings.append(
            OracleFinding(
                "static-effective-connectivity", now,
                "logical topology is connected but the in-force ranges "
                "do not deliver it bidirectionally",
            )
        )
    return findings


def check_instant(world: NetworkWorld, theorem5: bool = False) -> list[OracleFinding]:
    """Run every applicable oracle at the current instant."""
    findings = audit_oracle(world)
    findings += freshness_oracle(world)
    if theorem5:
        findings += theorem5_oracle(world)
    findings += static_connectivity_oracle(world)
    return findings
