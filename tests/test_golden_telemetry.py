"""Golden telemetry counters: what an armed run counts, pinned per cell.

Four golden-grid scenarios run with a :class:`~repro.telemetry.Telemetry`
collector armed, and the counter series below must reproduce
``tests/golden/telemetry_counters.json`` exactly.  They cover the
decision paths that telemetry counts: Hello-time and packet-time
decisions (view-sync), versioned decisions that hit the cache
(proactive), rounds under outages and delayed Hellos (faulted
reactive) and conservative decisions (weak).  Span timings and span
counts are left out: they describe how the program is cut into calls,
not what it decided.

To regenerate the pins, run this file as a script and write its output
over the JSON file, then say so in the change log::

    PYTHONPATH=src python tests/test_golden_telemetry.py > tests/golden/telemetry_counters.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.experiment import run_once
from repro.telemetry import Telemetry
from test_golden_digests import FAULTS, SEED, Cell, cell_spec

PINS_PATH = Path(__file__).resolve().parent / "golden" / "telemetry_counters.json"

#: Counter series that are pinned; every label combination of each.
SERIES = ("decision_cache", "range_changes", "hello_sent", "snapshots")

CELLS = {
    "rng-view-sync": Cell("rng", "view-sync"),
    "spt4-proactive": Cell("spt4", "proactive"),
    "rng-reactive-faulted": Cell("rng", "reactive", FAULTS),
    "rng-weak": Cell("rng", "weak"),
}


def counters(cell: str) -> dict[str, float]:
    """The pinned counter series of one armed run at :data:`SEED`."""
    c = CELLS[cell]
    telemetry = Telemetry()
    run_once(
        cell_spec(c.protocol, c.mechanism, c.n_nodes, c.spec, **c.config),
        seed=SEED,
        faults=c.faults,
        telemetry=telemetry,
    )
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


def test_every_cell_is_pinned():
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert set(pinned) == set(CELLS)


if __name__ == "__main__":
    print(json.dumps({cell: counters(cell) for cell in sorted(CELLS)},
                     indent=1, sort_keys=True))
