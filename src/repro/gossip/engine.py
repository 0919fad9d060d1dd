"""Deterministic anti-entropy round driver for the gossip mechanism.

:class:`GossipEngine` schedules, for every node, a jittered periodic
gossip round through the simulation :class:`~repro.sim.engine.Engine`.
Each round is a three-message push–pull exchange with ``fanout`` peers
sampled (without replacement) from the nodes currently inside normal
Hello range, plus two maintenance duties:

1. **age-based peer removal** — the node prunes its table and never
   relays entries older than ``removal_age``, so a silent peer's state
   ages out of circulation everywhere instead of bouncing between relays
   forever;
2. **mayday recovery** — when the node's live view has been empty for
   ``mayday_after`` seconds while in-range peers exist, it broadcasts a
   re-request and every in-range peer answers with its full fresh view.

The exchange itself (per selected peer ``v``, with one-hop delay δ):

====  ======  =====================================================
step  t+kδ    action
====  ======  =====================================================
1     t+δ     ``u``'s digest reaches ``v``
2     t+2δ    ``v``'s delta (entries newer than the digest) + ``v``'s
              own digest reach ``u``; ``u`` merges
3     t+3δ    ``u``'s counter-push (entries ``v`` lacks) reaches ``v``;
              ``v`` merges (omitted when empty)
====  ======  =====================================================

Determinism contract: the only randomness is the dedicated ``"gossip"``
seed stream (round-start jitter drawn in node-id order at construction,
then peer sampling consumed in engine event order, which is itself
deterministic by ``(time, seq)``).  Peer candidates come from true
geometry, never from decisions, so decision-cache twins consume the
stream identically — cache on/off bit-identity is preserved.  Nothing
here runs unless the world's mechanism is ``"gossip"``, so every other
mechanism stays byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.digest import entries_newer_than, merge_entries, view_digest
from repro.sim.engine import PeriodicTimer

__all__ = ["GossipEngine"]


class GossipEngine:
    """Epidemic dissemination driver bound to one :class:`NetworkWorld`.

    Constructed by the world itself (only when the consistency mechanism
    is :class:`~repro.core.consistency.GossipConsistency`), with the
    world's dedicated ``"gossip"`` generator.  Counters feed
    :meth:`~repro.sim.world.NetworkWorld.gossip_stats`, run reports and
    :func:`~repro.metrics.overhead.measure_overhead`.
    """

    def __init__(self, world, rng: np.random.Generator) -> None:
        self.world = world
        self.rng = rng
        mech = world.manager.mechanism
        cfg = world.config
        self.fanout = mech.fanout
        self.interval = mech.interval
        self.removal_age = (
            cfg.hello_expiry if mech.removal_age is None else mech.removal_age
        )
        self.mayday_after = (
            2.0 * mech.interval if mech.mayday_after is None else mech.mayday_after
        )
        self.rounds = 0
        self.messages = 0
        self.merged = 0
        self.maydays = 0
        # Silence clocks for mayday: last physical time each node either
        # saw a live neighbor or issued a re-request (issuing one resets
        # the clock so an isolated node does not shout every round).
        self._last_live = [0.0] * cfg.n_nodes
        for node in world.nodes:
            first = float(rng.uniform(0.0, self.interval))
            PeriodicTimer(
                world.engine,
                self.interval,
                lambda _tick, nid=node.node_id: self._round(nid),
                first_at=first,
            )

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot, keyed by the RunStats field names."""
        return {
            "gossip_rounds": self.rounds,
            "gossip_messages": self.messages,
            "gossip_merged": self.merged,
            "gossip_maydays": self.maydays,
        }

    def staleness_bound(self) -> float:
        """Worst-case extra view lag gossip adds, in seconds.

        Delegates to the mechanism's ``rounds_to_converge × interval``
        epidemic bound at this world's population.
        """
        mech = self.world.manager.mechanism
        return mech.staleness_bound(self.world.config.n_nodes)

    # -- round driver ---------------------------------------------------

    def _round(self, node_id: int) -> None:
        world = self.world
        now = world.engine.now
        inj = world.fault_injector
        if inj is not None and inj.node_down(node_id, now):
            return
        self.rounds += 1
        # Age-based peer removal happens at the dissemination layer: the
        # digest and delta filters stop advertising/relaying entries older
        # than removal_age, so a silent peer leaves circulation everywhere.
        # The table itself is never pruned — retained-but-expired history
        # is what the audit's ghost-neighbor invariant (and the freshness
        # oracle) reason over, exactly as under every other mechanism.
        table = world.nodes[node_id].table
        peers = self._peers_in_range(node_id, now)
        if table.known_neighbors(now):
            self._last_live[node_id] = now
        elif peers and now - self._last_live[node_id] >= self.mayday_after:
            self._mayday(node_id, now, peers)
            return
        if not peers:
            return
        k = min(self.fanout, len(peers))
        if k < len(peers):
            picks = self.rng.choice(len(peers), size=k, replace=False)
            chosen = [peers[i] for i in sorted(int(i) for i in picks)]
        else:
            chosen = peers
        digest = view_digest(table, now, self.removal_age)
        delay = world.config.propagation_delay
        for peer in chosen:
            self.messages += 1
            world.engine.schedule_batch(
                now + delay, self._on_digest, peer, node_id, digest
            )

    def _peers_in_range(self, node_id: int, now: float) -> list[int]:
        """Node ids within normal Hello range of *node_id*, ascending."""
        world = self.world
        positions, backend = world._geometry(now)
        hit = backend.neighbors_within(
            positions[node_id], world.config.normal_range
        )
        return [int(p) for p in hit if int(p) != node_id]

    # -- exchange messages ----------------------------------------------

    def _on_digest(
        self, receiver: int, origin: int, digest: dict[int, int]
    ) -> None:
        """Step 2: *receiver* answers *origin*'s digest with its delta."""
        world = self.world
        now = world.engine.now
        inj = world.fault_injector
        if inj is not None and inj.node_down(receiver, now):
            return
        table = world.nodes[receiver].table
        delta = entries_newer_than(table, digest, now, self.removal_age)
        reply_digest = view_digest(table, now, self.removal_age)
        self.messages += 1
        world.engine.schedule_batch(
            now + world.config.propagation_delay,
            self._on_reply,
            origin,
            receiver,
            delta,
            reply_digest,
        )

    def _on_reply(
        self,
        origin: int,
        peer: int,
        delta: tuple,
        peer_digest: dict[int, int],
    ) -> None:
        """Step 3: *origin* merges the delta, then counter-pushes."""
        world = self.world
        now = world.engine.now
        inj = world.fault_injector
        if inj is not None and inj.node_down(origin, now):
            return
        table = world.nodes[origin].table
        pulled = merge_entries(table, delta)
        self.merged += pulled
        push = entries_newer_than(table, peer_digest, now, self.removal_age)
        if push:
            self.messages += 1
            world.engine.schedule_batch(
                now + world.config.propagation_delay,
                self._on_push,
                peer,
                push,
            )
        tel = world.telemetry
        tel.count("gossip_exchange")
        tel.event(
            "gossip_exchange",
            t=now,
            node=origin,
            peer=peer,
            pulled=pulled,
            pushed=len(push),
        )

    def _on_push(self, receiver: int, entries: tuple) -> None:
        world = self.world
        now = world.engine.now
        inj = world.fault_injector
        if inj is not None and inj.node_down(receiver, now):
            return
        self.merged += merge_entries(world.nodes[receiver].table, entries)

    # -- mayday recovery -------------------------------------------------

    def _mayday(self, node_id: int, now: float, peers: list[int]) -> None:
        """Silent-view recovery: re-request full views from all peers."""
        self.maydays += 1
        self.messages += 1
        self._last_live[node_id] = now
        delay = self.world.config.propagation_delay
        for peer in peers:
            self.world.engine.schedule_batch(
                now + delay, self._on_mayday, peer, node_id
            )
        tel = self.world.telemetry
        tel.count("gossip_mayday")
        tel.event("gossip_mayday", t=now, node=node_id, peers=len(peers))

    def _on_mayday(self, responder: int, requester: int) -> None:
        world = self.world
        now = world.engine.now
        inj = world.fault_injector
        if inj is not None and inj.node_down(responder, now):
            return
        table = world.nodes[responder].table
        entries = entries_newer_than(table, {}, now, self.removal_age)
        if entries:
            self.messages += 1
            world.engine.schedule_batch(
                now + world.config.propagation_delay,
                self._merge_into,
                requester,
                entries,
            )

    def _merge_into(self, node_id: int, entries: tuple) -> None:
        world = self.world
        inj = world.fault_injector
        if inj is not None and inj.node_down(node_id, world.engine.now):
            return
        self.merged += merge_entries(world.nodes[node_id].table, entries)
