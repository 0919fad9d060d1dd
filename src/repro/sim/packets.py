"""Event-driven unicast data traffic over the live simulation.

Unlike the instantaneous probes in :mod:`repro.sim.flood` and the
snapshot router in :mod:`repro.routing.geographic`, this module forwards
packets hop by hop *through the event engine*, so nodes move while a
packet is in flight and every forwarding decision uses exactly the stale,
Hello-derived information a real node would have:

- the forwarder picks the logical neighbor *believed* (from its view) to
  be closest to the destination and strictly closer than itself;
- the transmission physically succeeds only if that neighbor is truly
  inside the forwarder's extended range *now* (link-layer ACK semantics);
  on failure the forwarder falls back to its next-best candidate;
- a node with no progressing candidate drops the packet (greedy routing;
  use :class:`~repro.routing.geographic.GeographicRouter` for
  perimeter-recovery studies on frozen snapshots).

The destination's position is taken at injection time — the location
service assumed by all geographic MANET routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.neighbor_state import NO_VERSION
from repro.sim.world import NetworkWorld
from repro.util.errors import ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = ["PacketRecord", "TrafficStats", "UnicastTraffic"]


@dataclass
class PacketRecord:
    """Lifecycle of one unicast packet."""

    packet_id: int
    source: int
    destination: int
    injected_at: float
    dest_position: tuple[float, float]
    delivered_at: float | None = None
    dropped_at: float | None = None
    drop_reason: str = ""
    hops: int = 0
    retries: int = 0
    path: list[int] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        """Whether the packet reached its destination."""
        return self.delivered_at is not None

    @property
    def delay(self) -> float:
        """End-to-end latency (inf while undelivered)."""
        if self.delivered_at is None:
            return math.inf
        return self.delivered_at - self.injected_at


@dataclass(frozen=True)
class TrafficStats:
    """Aggregate over a set of packet records."""

    sent: int
    delivered: int
    dropped: int
    mean_delay: float
    mean_hops: float
    mean_retries: float

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent (1.0 for zero traffic)."""
        return self.delivered / self.sent if self.sent else 1.0


class UnicastTraffic:
    """Greedy geographic unicast source/forwarder agent.

    Parameters
    ----------
    world:
        The live simulation to send packets through.
    hop_delay:
        Per-hop forwarding latency, seconds (queueing + transmission).
    max_hops:
        TTL; packets exceeding it are dropped.
    """

    def __init__(
        self, world: NetworkWorld, hop_delay: float = 2e-3, max_hops: int = 64
    ) -> None:
        self.world = world
        self.hop_delay = check_positive("hop_delay", hop_delay)
        self.max_hops = check_int_range("max_hops", max_hops, 1)
        self.records: list[PacketRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #

    def send(self, source: int, destination: int) -> PacketRecord:
        """Inject one packet now; forwarding proceeds via engine events."""
        n = self.world.config.n_nodes
        if not (0 <= source < n and 0 <= destination < n):
            raise ValueError("source/destination out of range")
        now = self.world.engine.now
        dest_pos = self.world.position(destination, now)
        record = PacketRecord(
            packet_id=self._next_id,
            source=source,
            destination=destination,
            injected_at=now,
            dest_position=(float(dest_pos[0]), float(dest_pos[1])),
            path=[source],
        )
        self._next_id += 1
        self.records.append(record)
        self._forward(record, source)
        return record

    def start_cbr(
        self, source: int, destination: int, interval: float, count: int
    ) -> None:
        """Schedule *count* packets at fixed *interval*, starting now."""
        check_positive("interval", interval)
        check_int_range("count", count, 1)
        for i in range(count):
            self.world.engine.schedule_after(
                i * interval, self.send, source, destination
            )

    # ------------------------------------------------------------------ #

    def _believed_positions(self, node_id: int):
        """(ids, believed positions) of the node's logical neighbors: the
        newest position each advertised, for those the table still holds."""
        node = self.world.nodes[node_id]
        if node.decision is None:
            return [], []
        ids = list(node.decision.logical_neighbors)
        version, _, xy, _ = node.table.newest(ids)
        held = version != NO_VERSION
        return [v for v, h in zip(ids, held.tolist()) if h], xy[held].tolist()

    def _forward(self, record: PacketRecord, holder: int) -> None:
        if record.delivered or record.dropped_at is not None:
            return
        now = self.world.engine.now
        if holder == record.destination:
            record.delivered_at = now
            return
        if record.hops >= self.max_hops:
            record.dropped_at = now
            record.drop_reason = "ttl"
            return
        node = self.world.nodes[holder]
        if self.world.manager.recompute_on_packet:
            # packet events refresh the logical set (view synchronization)
            try:
                self.world.decide_node(holder)
            except ViewError:
                pass  # bootstrap: the holder has not advertised the version
        ids, believed = self._believed_positions(holder)
        if not ids:
            record.dropped_at = now
            record.drop_reason = "no-neighbors"
            return
        here = self.world.position(holder, now)
        dest = np.asarray(record.dest_position)
        my_dist = float(np.hypot(*(here - dest)))
        # candidates believed strictly closer to the destination, best first
        order = sorted(
            (
                (float(np.hypot(pos[0] - dest[0], pos[1] - dest[1])), v)
                for v, pos in zip(ids, believed)
            ),
        )
        progressing = [(d, v) for d, v in order if d < my_dist - 1e-9]
        tx_range = node.extended_range
        positions_now = self.world.positions(now)
        for _, v in progressing:
            true_dist = float(np.hypot(*(positions_now[v] - here)))
            if true_dist <= tx_range:
                record.hops += 1
                record.path.append(v)
                self.world.channel.stats.data_transmissions += 1
                self.world.engine.schedule_after(
                    self.hop_delay, self._forward, record, v
                )
                return
            record.retries += 1  # link-layer ACK missing: try next candidate
        record.dropped_at = now
        record.drop_reason = "no-progress" if not progressing else "links-stale"

    # ------------------------------------------------------------------ #

    def stats(self) -> TrafficStats:
        """Aggregate the records injected so far."""
        sent = len(self.records)
        delivered = [r for r in self.records if r.delivered]
        dropped = [r for r in self.records if r.dropped_at is not None]
        return TrafficStats(
            sent=sent,
            delivered=len(delivered),
            dropped=len(dropped),
            mean_delay=(
                float(np.mean([r.delay for r in delivered])) if delivered else math.inf
            ),
            mean_hops=(
                float(np.mean([r.hops for r in delivered])) if delivered else 0.0
            ),
            mean_retries=(
                float(np.mean([r.retries for r in self.records])) if sent else 0.0
            ),
        )
