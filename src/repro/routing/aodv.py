"""AODV-style reactive unicast over the live simulation.

Geographic routing (``repro.routing.geographic``) needs a location
service; the other classic MANET unicast family discovers routes on
demand.  This is a faithful-in-structure AODV-lite:

- **route discovery** — the source floods a RREQ over the *directed
  effective topology* (same acceptance rules as data: logical-neighbor
  filtering unless PN mode); the flood builds reverse-path pointers;
- **route reply** — the destination returns a RREP hop-by-hop along the
  reverse path, with per-hop liveness checks while nodes keep moving;
  the confirmed path is cached as a route;
- **data forwarding** — packets follow the cached route with per-hop
  range checks; a broken hop triggers a route error and (bounded)
  rediscovery.

The RREQ flood itself is evaluated instantaneously (the paper's
sub-10 ms flood argument); RREPs and data travel with per-hop delays, so
mobility during the handshake is what breaks fragile topologies — exactly
the failure mode mobility-sensitive topology control exists to prevent.
Control-message costs (RREQ transmissions, RREPs) are recorded so the
*discovery overhead* of a topology can be compared across protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.csr import CSRGraph, csr_bfs, csr_bfs_parents
from repro.sim.world import NetworkWorld
from repro.util.validate import check_int_range, check_positive

__all__ = ["AodvRecord", "AodvStats", "AodvRouting"]


@dataclass
class AodvRecord:
    """Lifecycle of one AODV data packet."""

    packet_id: int
    source: int
    destination: int
    injected_at: float
    delivered_at: float | None = None
    dropped_at: float | None = None
    drop_reason: str = ""
    discoveries: int = 0
    rreq_transmissions: int = 0
    data_hops: int = 0
    route: list[int] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        """Whether the packet reached its destination."""
        return self.delivered_at is not None

    @property
    def delay(self) -> float:
        """End-to-end latency including discovery (inf while undelivered)."""
        if self.delivered_at is None:
            return math.inf
        return self.delivered_at - self.injected_at


@dataclass(frozen=True)
class AodvStats:
    """Aggregate over AODV records."""

    sent: int
    delivered: int
    mean_delay: float
    mean_discoveries: float
    mean_rreq_cost: float

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent (1.0 for zero traffic)."""
        return self.delivered / self.sent if self.sent else 1.0


class AodvRouting:
    """On-demand route discovery and forwarding agent.

    Parameters
    ----------
    world:
        Live simulation.
    hop_delay:
        Per-hop latency of RREPs and data packets, seconds.
    max_discoveries:
        Route discoveries allowed per packet before giving up.
    """

    def __init__(
        self,
        world: NetworkWorld,
        hop_delay: float = 2e-3,
        max_discoveries: int = 2,
    ) -> None:
        self.world = world
        self.hop_delay = check_positive("hop_delay", hop_delay)
        self.max_discoveries = check_int_range("max_discoveries", max_discoveries, 1)
        self.records: list[AodvRecord] = []
        self.routes: dict[tuple[int, int], list[int]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------ #

    def send(self, source: int, destination: int) -> AodvRecord:
        """Inject one packet; discovery runs if no cached route exists."""
        n = self.world.config.n_nodes
        if not (0 <= source < n and 0 <= destination < n):
            raise ValueError("source/destination out of range")
        record = AodvRecord(
            packet_id=self._next_id,
            source=source,
            destination=destination,
            injected_at=self.world.engine.now,
        )
        self._next_id += 1
        self.records.append(record)
        if source == destination:
            record.delivered_at = record.injected_at
            return record
        self._ensure_route_then_send(record)
        return record

    # ------------------------------------------------------------------ #

    def _effective_topology(self) -> CSRGraph:
        """Directed effective topology of the current snapshot."""
        return self.world.snapshot().effective_directed_csr(
            self.world.manager.physical_neighbor_mode
        )

    def _ensure_route_then_send(self, record: AodvRecord) -> None:
        key = (record.source, record.destination)
        route = self.routes.get(key)
        if route:
            self._forward_data(record, route, 0)
            return
        if record.discoveries >= self.max_discoveries:
            record.dropped_at = self.world.engine.now
            record.drop_reason = "discovery-limit"
            return
        record.discoveries += 1
        # --- RREQ flood: reverse-path construction (instantaneous) ---
        if self.world.manager.recompute_on_packet:
            self.world.redecide_all()
        topo = self._effective_topology()
        reached = csr_bfs(topo, record.source)
        record.rreq_transmissions += int(reached.sum())
        self.world.channel.stats.data_transmissions += int(reached.sum())
        if not reached[record.destination]:
            record.dropped_at = self.world.engine.now
            record.drop_reason = "destination-unreachable"
            return
        path = self._csr_path(topo, record.source, record.destination)
        # --- RREP back along the reverse path, hop by hop ---
        self._forward_rrep(record, path, len(path) - 1)

    @staticmethod
    def _csr_path(graph: CSRGraph, source: int, dest: int) -> list[int]:
        """Shortest hop path source -> dest over a directed CSR adjacency."""
        parent = csr_bfs_parents(graph, source)
        path = [int(dest)]
        while path[-1] != source:
            path.append(int(parent[path[-1]]))
        return path[::-1]

    def _link_alive(self, u: int, v: int) -> bool:
        """Is the directed effective link u -> v usable right now?"""
        now = self.world.engine.now
        positions = self.world.positions(now)
        d = float(np.hypot(*(positions[v] - positions[u])))
        node = self.world.nodes[u]
        if d > node.extended_range:
            return False
        if self.world.manager.physical_neighbor_mode:
            return True
        return v in node.logical_neighbors

    def _forward_rrep(self, record: AodvRecord, path: list[int], index: int) -> None:
        """RREP travels dest -> source; reverse links must be alive."""
        if index == 0:
            # reply reached the source: install the route, send the data
            self.routes[(record.source, record.destination)] = path
            record.route = list(path)
            self._forward_data(record, path, 0)
            return
        holder, prev = path[index], path[index - 1]
        if not self._link_alive(holder, prev):
            # reverse path broke while replying: try another discovery
            self._ensure_route_then_send(record)
            return
        self.world.channel.stats.data_transmissions += 1
        self.world.engine.schedule_after(
            self.hop_delay, self._forward_rrep, record, path, index - 1
        )

    def _forward_data(self, record: AodvRecord, path: list[int], index: int) -> None:
        if path[index] == record.destination:
            record.delivered_at = self.world.engine.now
            return
        u, v = path[index], path[index + 1]
        if not self._link_alive(u, v):
            # route error: purge and rediscover
            self.routes.pop((record.source, record.destination), None)
            self._ensure_route_then_send(record)
            return
        record.data_hops += 1
        self.world.channel.stats.data_transmissions += 1
        self.world.engine.schedule_after(
            self.hop_delay, self._forward_data, record, path, index + 1
        )

    # ------------------------------------------------------------------ #

    def stats(self) -> AodvStats:
        """Aggregate the records injected so far."""
        sent = len(self.records)
        delivered = [r for r in self.records if r.delivered]
        return AodvStats(
            sent=sent,
            delivered=len(delivered),
            mean_delay=(
                float(np.mean([r.delay for r in delivered])) if delivered else math.inf
            ),
            mean_discoveries=(
                float(np.mean([r.discoveries for r in self.records])) if sent else 0.0
            ),
            mean_rreq_cost=(
                float(np.mean([r.rreq_transmissions for r in self.records]))
                if sent
                else 0.0
            ),
        )
