"""Per-node simulation state.

A :class:`SimNode` owns exactly the state a real node would: its neighbor
table (Hello history), its latest topology control decision, and its Hello
version counter.  Positions live in the mobility model; the node never
reads them directly — the Hello process samples them on its behalf at send
time, which is precisely the information boundary the paper studies.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.manager import NodeDecision
from repro.core.tables import NeighborTable

__all__ = ["SimNode"]


@dataclass
class SimNode:
    """State of one simulated node.

    Attributes
    ----------
    node_id:
        Index in the world (0-based).
    table:
        Hello history and view factory.
    next_version:
        Next Hello version this node will stamp (baseline mode counts from
        1; synchronized modes overwrite with the epoch number).
    hellos_sent:
        Diagnostics counter.
    settle:
        Adopts the decisions waiting in the world's decision lane (None
        for a node outside a world); called before :attr:`decision` is
        read or set.
    """

    node_id: int
    table: NeighborTable
    next_version: int = 1
    hellos_sent: int = 0

    #: packet-time decisions adopted: redecisions and forwarders' (view-sync / proactive)
    packet_decisions: int = field(default=0, repr=False)
    settle: Callable[[], None] | None = field(default=None, repr=False, compare=False)
    _decision: NodeDecision | None = field(default=None, init=False, repr=False)

    @property
    def decision(self) -> NodeDecision | None:
        """Latest topology control decision (None until the first Hello).

        A decision gathered at a Hello is selected when it is first read:
        reading (or assigning) settles every decision the world has
        gathered so far.
        """
        if self.settle is not None:
            self.settle()
        return self._decision

    @decision.setter
    def decision(self, decision: NodeDecision | None) -> None:
        if self.settle is not None:
            self.settle()
        self._decision = decision

    @property
    def logical_neighbors(self) -> frozenset[int]:
        """Current logical neighbor set (empty before the first decision)."""
        decision = self.decision
        return decision.logical_neighbors if decision else frozenset()

    @property
    def extended_range(self) -> float:
        """Current extended transmission range (0 before the first decision)."""
        decision = self.decision
        return decision.extended_range if decision else 0.0

    @property
    def actual_range(self) -> float:
        """Current actual (pre-buffer) transmission range."""
        decision = self.decision
        return decision.actual_range if decision else 0.0
