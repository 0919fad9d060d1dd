"""Control-overhead accounting per consistency mechanism.

The paper argues qualitatively about mechanism costs (the reactive
scheme's flooding, the proactive scheme's multiple stored views, weak
consistency's k-deep histories).  This module turns channel counters and
table state into comparable per-node, per-second figures so those costs
appear in the same tables as the connectivity benefits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.world import NetworkWorld

__all__ = ["OverheadReport", "measure_overhead"]


@dataclass(frozen=True)
class OverheadReport:
    """Per-node, per-second control costs of a (partially) completed run.

    Attributes
    ----------
    hello_rate:
        Hello transmissions per node per second.
    sync_rate:
        Synchronization (initiation-flood) transmissions per node/second —
        nonzero only for the reactive mechanism.
    delivery_rate:
        Hello receptions per node per second (density-dependent).
    packet_decision_rate:
        Packet-triggered re-decisions per node per second (view-sync and
        proactive pay CPU here; the others decide only at Hello times).
    stored_hellos_per_node:
        Mean retained Hello records per node (memory cost of weak
        consistency's histories and the proactive scheme's versions).
    gossip_rate:
        Anti-entropy messages (digests, deltas, pushes, maydays) per node
        per second — nonzero only for the gossip mechanism, whose epidemic
        traffic rides beside the Hello stream instead of inside it.
    """

    hello_rate: float
    sync_rate: float
    delivery_rate: float
    packet_decision_rate: float
    stored_hellos_per_node: float
    gossip_rate: float = 0.0

    def row(self) -> dict:
        """Flat dict row for tables."""
        return {
            "hello_per_node_s": self.hello_rate,
            "sync_per_node_s": self.sync_rate,
            "rx_per_node_s": self.delivery_rate,
            "pkt_decisions_per_node_s": self.packet_decision_rate,
            "stored_hellos": self.stored_hellos_per_node,
            "gossip_per_node_s": self.gossip_rate,
        }


def measure_overhead(world: NetworkWorld) -> OverheadReport:
    """Snapshot the control-overhead counters of *world* at the current time."""
    elapsed = max(world.engine.now, 1e-9)
    n = max(world.config.n_nodes, 1)
    stats = world.channel.stats
    stored = sum(node.table.retained for node in world.nodes)
    packet_decisions = sum(node.packet_decisions for node in world.nodes)
    gossip_messages = 0 if world.gossip is None else world.gossip.messages
    return OverheadReport(
        hello_rate=stats.hello_messages / n / elapsed,
        sync_rate=stats.sync_messages / n / elapsed,
        delivery_rate=stats.deliveries / n / elapsed,
        packet_decision_rate=packet_decisions / n / elapsed,
        stored_hellos_per_node=stored / n,
        gossip_rate=gossip_messages / n / elapsed,
    )
