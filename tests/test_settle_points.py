"""Settle points change nothing: deferred decisions equal eager ones.

A Hello-time decision is gathered at the Hello and selected when it
settles: when a standing decision is read or assigned, at a snapshot, or
at a packet-time redecision.  The reference world settles every decision
as soon as it is gathered (:func:`settle_every_gather`).  Both worlds
must run the same: equal results, counters and telemetry counters, and
equal decisions (``decided_at`` included) whenever a decision is read,
including from engine callbacks between two Hellos and from packets
forwarded inside engine events.  The reference adopts every decision,
while the deferred world drops those that nothing read, so only the
range changes differ: each one the deferred world reports is a range
the reference held at that instant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import build_world, run_once
from repro.core.consistency import available_mechanisms
from repro.core.manager import MobilitySensitiveTopologyControl, NodeDecision
from repro.sim.packets import UnicastTraffic
from repro.sim.world import NetworkWorld
from repro.telemetry import Telemetry
from test_golden_digests import FAULTS, SEED, cell_spec, digest

#: Read instants of the callback probes, between Hellos; several fall
#: between two flood probes of ``run_once``.
READ_TIMES = np.arange(0.31, 4.0, 0.23)


def settle_every_gather(monkeypatch) -> None:
    """Make every world settle each Hello-time decision as soon as it is
    gathered, so no decision waits and none is dropped unread."""
    decide_node = NetworkWorld.decide_node

    def decide_and_settle(self, *args, **kwargs):
        try:
            decide_node(self, *args, **kwargs)
        finally:
            self._settle()
        assert not self._pending

    monkeypatch.setattr(NetworkWorld, "decide_node", decide_and_settle)


def range_changes(telemetry: Telemetry) -> list[dict]:
    """The ``range_change`` events of a run, in decision order."""
    events = [e.as_dict() for e in telemetry.events if e.kind == "range_change"]
    return sorted(events, key=lambda e: (e["t"], e["node"]))


def record_adoptions(monkeypatch) -> set[tuple[int, float, float]]:
    """Make every world record ``(node, decision instant, extended
    range)`` of each decision it adopts into the returned set."""
    adopted: set[tuple[int, float, float]] = set()
    adopt = NetworkWorld._adopt

    def recorded(self, node, decision, t):
        adopted.add((node.node_id, decision.decided_at, decision.extended_range))
        adopt(self, node, decision, t)

    monkeypatch.setattr(NetworkWorld, "_adopt", recorded)
    return adopted


def read_decisions(mechanism: str, faults) -> list[list[NodeDecision | None]]:
    """Every node's standing decision, read from engine callbacks at
    :data:`READ_TIMES` of a world that runs no flood probe."""
    world = build_world(cell_spec("rng", mechanism), seed=SEED, faults=faults)
    reads = []
    for t in READ_TIMES:
        world.engine.schedule_at(
            float(t), lambda: reads.append([node.decision for node in world.nodes])
        )
    world.run_until(4.0)
    return reads


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("mechanism", available_mechanisms())
class TestSettlePoints:
    def test_run_once_is_unchanged(self, mechanism, faulted, monkeypatch):
        faults = FAULTS if faulted else None
        spec = cell_spec("rng", mechanism)
        deferred_tel, eager_tel = Telemetry(), Telemetry()
        deferred = run_once(spec, seed=SEED, faults=faults, telemetry=deferred_tel)
        settle_every_gather(monkeypatch)
        adopted = record_adoptions(monkeypatch)
        settled = run_once(spec, seed=SEED, faults=faults, telemetry=eager_tel)
        assert digest(deferred) == digest(settled)
        deferred_counts = deferred_tel.registry.counters_dict()
        eager_counts = eager_tel.registry.counters_dict()
        assert deferred_counts.pop("range_changes") <= eager_counts.pop("range_changes")
        assert deferred_counts == eager_counts
        # A range change is reported at its decision's instant, whenever
        # the decision settles: the reference adopted a decision of the
        # new range at that instant, and the old range is the one the
        # deferred world last reported for the node.
        last: dict[int, float] = {}
        for e in range_changes(deferred_tel):
            node, t, change = e["node"], e["t"], e["data"]
            assert (node, t, change["new"]) in adopted, e
            assert change["old"] == last.get(node), e
            last[node] = change["new"]
        assert last

    def test_reads_between_hellos_are_unchanged(self, mechanism, faulted, monkeypatch):
        faults = FAULTS if faulted else None
        deferred = read_decisions(mechanism, faults)
        settle_every_gather(monkeypatch)
        settled = read_decisions(mechanism, faults)
        assert deferred == settled
        assert any(d is not None for d in deferred[-1])


def unicast_paths(mechanism: str) -> list[tuple]:
    world = build_world(cell_spec("rng", mechanism), seed=SEED)
    world.run_until(2.0)
    traffic = UnicastTraffic(world)
    for source in range(0, 30, 3):
        traffic.start_cbr(source, 29 - source, interval=0.25, count=6)
    world.run_until(4.0)
    return [
        (r.source, r.destination, r.path, r.delivered_at, r.dropped_at, r.drop_reason)
        for r in traffic.records
    ]


@pytest.mark.parametrize("mechanism", ["view-sync", "baseline"])
def test_unicast_packets_read_the_same_decisions(mechanism, monkeypatch):
    deferred = unicast_paths(mechanism)
    settle_every_gather(monkeypatch)
    assert unicast_paths(mechanism) == deferred
    assert any(len(path) > 2 for _, _, path, *_ in deferred)


def test_assigned_decision_outranks_pending_ones():
    world = build_world(cell_spec("rng", "baseline"), seed=SEED)
    world.run_until(2.95)
    assert world._pending, "some Hello-time decisions wait to be settled"
    node = world.nodes[0]
    mine = NodeDecision(
        owner=0, logical_neighbors=frozenset(), actual_range=0.0,
        extended_range=0.0, decided_at=world.engine.now,
    )
    node.decision = mine
    assert not world._pending
    assert node.decision is mine
    snap = world.snapshot()
    assert snap.extended_ranges[0] == 0.0
    assert snap.logical_csr.degrees()[0] == 0


def test_the_reference_settles_every_gather(monkeypatch):
    settles = []
    settle = MobilitySensitiveTopologyControl.settle

    def counted(self, gathered):
        settles.append(len(gathered))
        return settle(self, gathered)

    monkeypatch.setattr(MobilitySensitiveTopologyControl, "settle", counted)
    settle_every_gather(monkeypatch)
    world = build_world(cell_spec("rng", "baseline"), seed=SEED)
    world.run_until(2.95)
    # No snapshot and no redecision ran: one settle per Hello-time gather.
    assert len(settles) == sum(node.hellos_sent for node in world.nodes)
    assert set(settles) == {1}
