"""Golden telemetry counters: what an armed run counts, pinned per cell.

Four golden-grid scenarios run with a :class:`~repro.telemetry.Telemetry`
collector armed, and the counter series below must reproduce
``tests/golden/telemetry_counters.json`` exactly.  They cover the
decision paths that telemetry counts: Hello-time and packet-time
decisions (view-sync), versioned decisions that hit the cache
(proactive), rounds under outages and delayed Hellos (faulted
reactive) and conservative decisions (weak), and the waiting decisions
each run drops unread.  Span timings and span
counts are left out: they describe how the program is cut into calls,
not what it decided.  Arming the collector changes no decision: an
armed and a disarmed run select the same rows and give the same digest.

To regenerate the pins, run this file as a script and write its output
over the JSON file, then say so in the change log::

    PYTHONPATH=src python tests/test_golden_telemetry.py > tests/golden/telemetry_counters.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.experiment import RunResult, run_once
from repro.core.consistency import ConsistencyMechanism
from repro.telemetry import Telemetry
from test_golden_digests import FAULTS, SEED, Cell, cell_spec, digest

PINS_PATH = Path(__file__).resolve().parent / "golden" / "telemetry_counters.json"

#: Counter series that are pinned; every label combination of each.
SERIES = ("decision_cache", "range_changes", "hello_sent", "snapshots", "decisions_dropped")

CELLS = {
    "rng-view-sync": Cell("rng", "view-sync"),
    "spt4-proactive": Cell("spt4", "proactive"),
    "rng-reactive-faulted": Cell("rng", "reactive", FAULTS),
    "rng-weak": Cell("rng", "weak"),
}


def cell_run(cell: str, telemetry: Telemetry | None = None) -> RunResult:
    """One cell's run at :data:`SEED`, armed with *telemetry* if given."""
    c = CELLS[cell]
    return run_once(
        cell_spec(c.protocol, c.mechanism, c.n_nodes, c.spec, **c.config),
        seed=SEED,
        faults=c.faults,
        telemetry=telemetry,
    )


def counters(cell: str) -> dict[str, float]:
    """The pinned counter series of one armed run at :data:`SEED`."""
    telemetry = Telemetry()
    cell_run(cell, telemetry)
    return {
        key: value
        for key, value in telemetry.registry.counters_dict().items()
        if key.partition("{")[0] in SERIES
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_armed_counters_reproduce_pins(cell):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    got = counters(cell)
    assert {key.partition("{")[0] for key in got} == set(SERIES)
    assert got == pinned[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_arming_selects_the_same_rows(cell, monkeypatch):
    rows = []
    select = ConsistencyMechanism.select

    def counted(self, protocol, views):
        rows.append(views.owners.size)
        return select(self, protocol, views)

    monkeypatch.setattr(ConsistencyMechanism, "select", counted)
    disarmed = cell_run(cell)
    disarmed_rows = sum(rows)
    rows.clear()
    armed = cell_run(cell, Telemetry())
    assert sum(rows) == disarmed_rows
    assert digest(armed) == digest(disarmed)


def test_every_cell_is_pinned():
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert set(pinned) == set(CELLS)


if __name__ == "__main__":
    print(json.dumps({cell: counters(cell) for cell in sorted(CELLS)},
                     indent=1, sort_keys=True))
