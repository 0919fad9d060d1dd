"""Golden digests: pinned end-to-end behaviour of small paper cells.

Each cell runs one ``run_once`` and hashes its six per-sample series plus
``RunStats.as_dict()`` (the surface of the end-to-end benchmark's
digests).  A refactor that claims to preserve behaviour must reproduce
every digest in ``tests/golden/digests.json`` bit for bit.

The pinned values change only when behaviour is meant to change.  To
regenerate them, run this file as a script and write its output over the
JSON file, then say so in the change log::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden/digests.json
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, RunResult, run_once
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"

#: world seed of every cell
SEED = 1000

#: cell name -> (protocol, mechanism)
CELLS = {
    "rng-view-sync": ("rng", "view-sync"),
    "rng-baseline": ("rng", "baseline"),
    "rng-proactive": ("rng", "proactive"),
    "rng-reactive": ("rng", "reactive"),
    "rng-gossip": ("rng", "gossip"),
    # Recorded when spt4 still decided from a Hello-built versioned view;
    # pins proactive versioned decisions of condition 2.
    "spt4-proactive": ("spt4", "proactive"),
    # Hello-time decisions of conditions 2 and 3 (a batch of one).
    "mst-baseline": ("mst", "baseline"),
    "spt2-baseline": ("spt2", "baseline"),
    # Packet-time decide_many of conditions 2 and 3.
    "mst-view-sync": ("mst", "view-sync"),
    "spt4-view-sync": ("spt4", "view-sync"),
    # gabriel has no batched selection: pins the LocalView versioned route.
    "gabriel-proactive": ("gabriel", "proactive"),
}


def cell_spec(protocol: str, mechanism: str) -> ExperimentSpec:
    """n=30 at the paper's density (8100 m^2 per node), 20 m/s, 4 s,
    10 samples/s after a 2 s warmup, 10 m buffer."""
    side = math.sqrt(30 * 8100.0)
    return ExperimentSpec(
        protocol=protocol,
        mechanism=mechanism,
        buffer_width=10.0,
        mean_speed=20.0,
        config=ScenarioConfig(
            n_nodes=30,
            area=Area(side, side),
            duration=4.0,
            warmup=2.0,
            sample_rate=10.0,
        ),
    )


def digest(result: RunResult) -> str:
    """sha256 over the six per-sample series and the run's counters."""
    h = hashlib.sha256()
    for series in (
        result.delivery_ratios,
        result.mean_actual_ranges,
        result.mean_extended_ranges,
        result.mean_logical_degrees,
        result.mean_physical_degrees,
        result.strict_connected,
    ):
        h.update(np.ascontiguousarray(series).tobytes())
    h.update(json.dumps(result.stats.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def cell_digest(cell: str) -> str:
    """Digest of one cell's run at :data:`SEED`."""
    return digest(run_once(cell_spec(*CELLS[cell]), seed=SEED))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_reproduces_pinned_digest(cell):
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert cell_digest(cell) == pinned[cell]


def test_every_cell_is_pinned():
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(pinned) == set(CELLS)


if __name__ == "__main__":
    print(json.dumps({cell: cell_digest(cell) for cell in sorted(CELLS)},
                     indent=1, sort_keys=True))
