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
from typing import NamedTuple

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, RunResult, run_once
from repro.faults import (
    ClockSkew,
    DeliveryDelay,
    FaultSchedule,
    HelloIntervalScale,
    HelloLossBurst,
    NodeOutage,
    PositionNoise,
)
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"

#: world seed of every cell
SEED = 1000

#: Fault schedule of every ``-faulted`` cell.  Inside the 2-4 s window
#: at n=30 each seam fires: loss drops, a suppressed sender, receptions
#: blocked at a down receiver, delayed deliveries overtaken by fresher
#: Hellos (stale discards) and noisy advertised positions.
FAULTS = FaultSchedule(
    (
        HelloLossBurst(2.0, 3.0, probability=0.3),
        NodeOutage(2.5, 3.2, node=3),
        DeliveryDelay(1.5, 3.5, delay=0.4, senders=(1, 2, 5, 8)),
        DeliveryDelay(2.2, 2.7, delay=1.3, receivers=(0, 10, 11, 12)),
        PositionNoise(2.0, 4.0, amplitude=5.0, nodes=(4, 7)),
        HelloIntervalScale(2.0, 3.0, node=6, factor=2.0),
        ClockSkew(node=9, offset=0.05),
    )
)

LOG_DISTANCE = {"propagation": "log-distance"}


class Cell(NamedTuple):
    """One pinned run: a protocol, a mechanism, and what is armed."""

    protocol: str
    mechanism: str
    faults: FaultSchedule | None = None
    #: ScenarioConfig overrides
    config: dict = {}


CELLS = {
    "rng-view-sync": Cell("rng", "view-sync"),
    "rng-baseline": Cell("rng", "baseline"),
    "rng-proactive": Cell("rng", "proactive"),
    "rng-reactive": Cell("rng", "reactive"),
    "rng-gossip": Cell("rng", "gossip"),
    # Recorded when spt4 still decided from a Hello-built versioned view;
    # pins proactive versioned decisions of condition 2.
    "spt4-proactive": Cell("spt4", "proactive"),
    # Hello-time decisions of conditions 2 and 3 (a batch of one).
    "mst-baseline": Cell("mst", "baseline"),
    "spt2-baseline": Cell("spt2", "baseline"),
    # Packet-time decide_many of conditions 2 and 3.
    "mst-view-sync": Cell("mst", "view-sync"),
    "spt4-view-sync": Cell("spt4", "view-sync"),
    # gabriel has no batched selection: pins the LocalView versioned route.
    "gabriel-proactive": Cell("gabriel", "proactive"),
    # Weak consistency: conservative selection on multi-version views.
    "rng-weak": Cell("rng", "weak"),
    "mst-weak": Cell("mst", "weak"),
    "spt4-weak": Cell("spt4", "weak"),
    # Every fault seam on the Hello route, under four mechanisms.
    "rng-view-sync-faulted": Cell("rng", "view-sync", FAULTS),
    "rng-gossip-faulted": Cell("rng", "gossip", FAULTS),
    "rng-weak-faulted": Cell("rng", "weak", FAULTS),
    "spt4-proactive-faulted": Cell("spt4", "proactive", FAULTS),
    # A non-unit-disk model: the receiver oracle's keyed predicate.
    "rng-view-sync-logdist": Cell("rng", "view-sync", config=LOG_DISTANCE),
    "rng-view-sync-logdist-faulted": Cell(
        "rng", "view-sync", FAULTS, config=LOG_DISTANCE
    ),
}


def cell_spec(protocol: str, mechanism: str, **config) -> ExperimentSpec:
    """n=30 at the paper's density (8100 m^2 per node), 20 m/s, 4 s,
    10 samples/s after a 2 s warmup, 10 m buffer; *config* overrides
    further :class:`ScenarioConfig` fields."""
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
            **config,
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
    c = CELLS[cell]
    spec = cell_spec(c.protocol, c.mechanism, **c.config)
    return digest(run_once(spec, seed=SEED, faults=c.faults))


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
