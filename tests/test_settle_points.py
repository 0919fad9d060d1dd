"""Settle points change nothing: deferred decisions equal eager ones.

A Hello-time decision is gathered at the Hello and selected when it
settles: when a standing decision is read or assigned, at a snapshot, at
a packet-time redecision, or once ``_REDECIDE_CHUNK`` decisions wait.
With that bound patched to 1 every decision settles as it is gathered.
Both worlds must run the same: equal results, counters and telemetry
counters, and equal decisions (``decided_at`` included) whenever a
decision is read, including from engine callbacks between two Hellos
and from packets forwarded inside engine events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import build_world, run_once
from repro.core.consistency import available_mechanisms
from repro.core.manager import NodeDecision
from repro.sim import world as world_module
from repro.sim.packets import UnicastTraffic
from repro.telemetry import Telemetry
from test_golden_digests import FAULTS, SEED, cell_spec, digest

#: Read instants of the callback probes, between Hellos; several fall
#: between two flood probes of ``run_once``.
READ_TIMES = np.arange(0.31, 4.0, 0.23)


def eager(monkeypatch) -> None:
    """Settle every decision as soon as it is gathered."""
    monkeypatch.setattr(world_module, "_REDECIDE_CHUNK", 1)


def range_changes(telemetry: Telemetry) -> list[dict]:
    """The ``range_change`` events of a run, in decision order."""
    events = [e.as_dict() for e in telemetry.events if e.kind == "range_change"]
    return sorted(events, key=lambda e: (e["t"], e["node"]))


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
        eager(monkeypatch)
        settled = run_once(spec, seed=SEED, faults=faults, telemetry=eager_tel)
        assert digest(deferred) == digest(settled)
        assert (
            deferred_tel.registry.counters_dict() == eager_tel.registry.counters_dict()
        )
        # A range change is reported at its decision's instant, whenever
        # the decision settles.
        assert range_changes(deferred_tel) == range_changes(eager_tel)

    def test_reads_between_hellos_are_unchanged(self, mechanism, faulted, monkeypatch):
        faults = FAULTS if faulted else None
        deferred = read_decisions(mechanism, faults)
        eager(monkeypatch)
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
    eager(monkeypatch)
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
