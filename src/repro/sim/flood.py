"""Flooding over the effective topology — the weak-connectivity probe.

The paper measures connectivity as the delivery ratio of broadcast packets
from random sources (Section 5.1).  A flood completing in well under 10 ms
is "a rather accurate approximation of the strict connectivity", so the
probe here is an instantaneous BFS over the *directed* effective topology
at the flood instant: node u's transmission reaches v iff v lies within
u's extended range, and v accepts iff it appears in u's attached logical
neighbor set (or always, in physical-neighbor mode).

The decisions the flood reads are settled first.  A node's Hello-time
decision is gathered at its Hello and selected later, together with
every other decision gathered since, in padded blocks; the probe's
snapshot (or, for the mechanisms below, its redecision) settles them,
each at its own Hello's instant, so the flood sees exactly the
decisions a select at every Hello would have made.  At 10 probes/s and
one Hello per node per second, a 100-node world settles about ten
Hello-time decisions per probe.

For mechanisms that recompute on packet events (view synchronization,
proactive consistency) every node re-decides at flood time first — under
the proactive scheme on the packet's Hello version.  Those redecisions go
through the manager's write-stamp decision cache.  The manager
resolves each owner once (``ConsistencyMechanism.resolve``: its own
positions and version) and stamps that output.  An owner hits only when
its table has recorded no write since its standing decision, the
requested version, the configuration and the resolved own positions
are unchanged, and (for a decision that read the expiry-filtered live
view, whose resolved version is None) the same neighbors are still
live.  At the paper's 10 probes/s about ten
Hellos arrive between two probes, so most owners miss: a 20-s rng
view-sync run (n = 100 at the paper's density, 40 m/s, 10 m buffer,
seed 1) counts 1,587 hits against 18,560 misses (8%), while spt4
proactive, whose decisions hold for a whole Hello version, hits 14,440
times against 5,560 misses in the same scenario (see
``docs/PERFORMANCE.md`` and ``benchmarks/bench_decide.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.csr import csr_bfs
from repro.sim.world import NetworkWorld, WorldSnapshot

__all__ = ["FloodResult", "directed_bfs", "flood"]


@dataclass(frozen=True)
class FloodResult:
    """Outcome of one flood probe.

    Attributes
    ----------
    source:
        Originating node.
    reached:
        Boolean mask over nodes (source included).
    transmissions:
        Number of nodes that forwarded (every reached node forwards once).
    snapshot:
        The snapshot the flood ran over (None when built by hand); the
        metrics of the same instant read it instead of taking another.
    """

    source: int
    reached: np.ndarray
    transmissions: int
    snapshot: WorldSnapshot | None = field(default=None, repr=False, compare=False)

    @property
    def delivery_ratio(self) -> float:
        """Fraction of *other* nodes the flood reached — the paper's
        connectivity-ratio sample (1.0 means everyone got the packet)."""
        n = self.reached.shape[0]
        if n <= 1:
            return 1.0
        return float((self.reached.sum() - 1) / (n - 1))


def directed_bfs(adjacency: np.ndarray, source: int) -> np.ndarray:
    """Reachable-set mask by BFS over a dense directed boolean adjacency.

    Vectorized frontier expansion: each round ORs the out-neighborhoods of
    the current frontier, so the cost is O(diameter * n^2 / word-size).
    :func:`flood` runs :func:`~repro.geometry.csr.csr_bfs` on the
    snapshot's CSR form instead; this serves callers that hold a matrix
    (CDS broadcast).
    """
    n = adjacency.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[source] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = adjacency[frontier].any(axis=0) & ~reached
        reached |= nxt
        frontier = nxt
    return reached


def flood(
    world: NetworkWorld,
    source: int,
    physical_neighbor_mode: bool | None = None,
) -> FloodResult:
    """Run one instantaneous flood probe from *source* at the current time.

    Honors the manager's packet-recomputation semantics; the per-node
    standing decisions are updated exactly as real packet handling would
    update them.
    """
    manager = world.manager
    pn_mode = (
        manager.physical_neighbor_mode
        if physical_neighbor_mode is None
        else physical_neighbor_mode
    )
    if manager.recompute_on_packet:
        version = None
        if manager.synchronized_versions:
            # The packet carries the source's latest *complete* version:
            # the one before the Hello it most recently sent (everyone's
            # Hellos of that version have arrived by now).
            src = world.nodes[source]
            own = src.table.newest_advertised(src.next_version - 2)
            if own is None:
                own = src.table.newest_advertised()
            version = None if own is None else own.version
        world.redecide_all(version=version)
    snap = world.snapshot()
    reached = csr_bfs(snap.effective_directed_csr(pn_mode), source)
    transmissions = int(reached.sum())
    world.channel.stats.data_transmissions += transmissions
    return FloodResult(
        source=source, reached=reached, transmissions=transmissions, snapshot=snap
    )
