"""Golden digests of hop-by-hop packet forwarding.

:class:`~repro.sim.packets.UnicastTraffic` asks the world for a fresh
decision at every forwarder under packet-recomputing mechanisms
(``world.decide_node(holder, phase="packet")``), a route that ``run_once``
never takes,
so the cells of ``test_golden_digests.py`` do not reach it.  Each cell
here runs a few CBR flows through a live n = 30 world for 4 s, from the
first instant on (proactive forwarders that have not advertised yet
cannot decide), and hashes every packet's path, hops, delivery time and
drop reason.

To regenerate the pins, run this file as a script and write its output
over ``tests/golden/packets.json``, then say so in the change log::

    PYTHONPATH=src python tests/test_golden_packets.py > tests/golden/packets.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiment import build_world
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.sim.packets import PacketRecord, UnicastTraffic
from repro.telemetry import Telemetry
from test_golden_digests import SEED, cell_spec

PINS_PATH = Path(__file__).resolve().parent / "golden" / "packets.json"

#: cell name -> mechanism of an rng world
CELLS = {"rng-view-sync-unicast": "view-sync", "rng-proactive-unicast": "proactive"}


def unicast_traffic(mechanism: str, telemetry: Telemetry | None = None) -> UnicastTraffic:
    """Ten CBR flows of eight packets each, node ``s`` to ``29 - s``
    every 0.4 s from t = 0, forwarded until t = 4 s."""
    world = build_world(cell_spec("rng", mechanism), seed=SEED, telemetry=telemetry)
    traffic = UnicastTraffic(world)
    for source in range(0, 30, 3):
        traffic.start_cbr(source, 29 - source, interval=0.4, count=8)
    world.run_until(4.0)
    return traffic


def unicast_records(mechanism: str) -> list[PacketRecord]:
    """The packet records of :func:`unicast_traffic`."""
    return unicast_traffic(mechanism).records


def packet_digest(records: list[PacketRecord]) -> str:
    """sha256 over each record's path, hops, delivery time and drop reason."""
    rows = [[r.path, r.hops, r.delivered_at, r.drop_reason] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_reproduces_pinned_digest(cell):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    records = unicast_records(CELLS[cell])
    assert packet_digest(records) == pinned[cell]
    assert any(len(r.path) > 2 for r in records)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_decision_cache_changes_no_packet(cell, monkeypatch):
    cached = packet_digest(unicast_records(CELLS[cell]))
    monkeypatch.setattr(
        MobilitySensitiveTopologyControl, "decision_cache_default", False
    )
    assert packet_digest(unicast_records(CELLS[cell])) == cached


def test_forwarders_decide_in_the_packet_phase():
    """A forwarder's decision is a packet-time one: the Hello phase
    counts one decision per Hello sent, and the forwarders' decisions
    count in ``packet_decisions``."""
    telemetry = Telemetry()
    world = unicast_traffic(CELLS["rng-view-sync-unicast"], telemetry).world
    counters = telemetry.registry.counters_dict()
    hello_phase = sum(
        value for key, value in counters.items()
        if key.startswith("decision_cache{") and "phase=hello" in key
    )
    assert hello_phase == counters["hello_sent"]
    assert sum(node.packet_decisions for node in world.nodes) > 0


def test_every_cell_is_pinned():
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert set(pinned) == set(CELLS)


if __name__ == "__main__":
    print(json.dumps(
        {cell: packet_digest(unicast_records(m)) for cell, m in sorted(CELLS.items())},
        indent=1, sort_keys=True,
    ))
