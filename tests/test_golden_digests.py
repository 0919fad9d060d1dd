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

import functools
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from repro.analysis import experiment
from repro.analysis.experiment import ExperimentSpec, RunResult, run_once
from repro.core.manager import MobilitySensitiveTopologyControl
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
from repro.mobility.static import StaticPlacement
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

#: Fault schedule of ``rng-proactive-outage0``: node 3 is down over its
#: first two epochs and node 5's clock runs 1.5 s ahead, so they first
#: advertise epochs 3 and 2 while the others start at 0 or 1.
OUTAGE0 = FaultSchedule((NodeOutage(0.0, 2.2, node=3), ClockSkew(node=5, offset=1.5)))

#: Fault schedule of ``rng-gossip-loss``: nine in ten Hello deliveries
#: lost over the whole run, so most pairs are first written by a gossip
#: merge and direct Hellos race relayed copies of the same versions.
LOSS = FaultSchedule((HelloLossBurst(0.0, 4.0, probability=0.9),))

LOG_DISTANCE = {"propagation": "log-distance"}
SINR = {"propagation": "sinr"}


class Cell(NamedTuple):
    """One pinned run: a protocol, a mechanism, and what is armed."""

    protocol: str
    mechanism: str
    faults: FaultSchedule | None = None
    #: ScenarioConfig overrides
    config: dict = {}
    #: ExperimentSpec overrides (buffer width, physical-neighbor mode)
    spec: dict = {}
    n_nodes: int = 30
    #: static nodes on the :func:`lattice_placement` grid instead of
    #: random waypoint
    lattice: bool = False


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
    # Recorded when gabriel still decided from a Hello-built LocalView;
    # pins versioned decisions of the per-row removal predicate.
    "gabriel-proactive": Cell("gabriel", "proactive"),
    # Recorded when every protocol below still decided from a Hello-built
    # LocalView: latest views at Hello time (baseline) and at packet time
    # (view-sync, blocks of the predicate loop for gabriel), versioned
    # views (proactive, reactive), conservative selection (weak), and a
    # composite.
    "gabriel-view-sync": Cell("gabriel", "view-sync"),
    "yao-view-sync": Cell("yao", "view-sync"),
    "cbtc-baseline": Cell("cbtc", "baseline"),
    "kneigh-proactive": Cell("kneigh", "proactive"),
    "xtc-view-sync": Cell("xtc", "view-sync"),
    "none-reactive": Cell("none", "reactive"),
    "enclosure-view-sync": Cell("enclosure", "view-sync"),
    "enclosure-weak": Cell("enclosure", "weak"),
    "spt-region-baseline": Cell("spt-region", "baseline"),
    "rng&spt2-proactive": Cell("rng&spt2", "proactive"),
    # Weak consistency: conservative selection on multi-version views.
    "rng-weak": Cell("rng", "weak"),
    "mst-weak": Cell("mst", "weak"),
    "spt4-weak": Cell("spt4", "weak"),
    # Recorded when weak consistency still decided from a Hello-built
    # multi-version view: the per-row predicate (gabriel), the identity
    # protocol's newest positions (none), the composite's farthest pair,
    # and rings of depth 5 that are only partly filled in a 4 s run.
    "gabriel-weak": Cell("gabriel", "weak"),
    "none-weak": Cell("none", "weak"),
    "rng&spt2-weak": Cell("rng&spt2", "weak"),
    "rng-weak-k5": Cell("rng", "weak", config={"history_depth": 5}),
    # Every fault seam on the Hello route, under four mechanisms.
    "rng-view-sync-faulted": Cell("rng", "view-sync", FAULTS),
    "rng-gossip-faulted": Cell("rng", "gossip", FAULTS),
    # Gossip under heavy loss with three peers per round: merges of many
    # senders at one receiver, new pairs opened by merges, and the
    # strictly-newer rule against direct Hellos.  No loss burst at n=30
    # in 4 s makes a view go silent for two rounds while peers are in
    # range (every exchange ships the peer's own advertisement), so no
    # mayday fires here; tests/test_gossip.py drives that path.
    "rng-gossip-loss": Cell(
        "rng", "gossip", LOSS, spec={"mechanism_kwargs": {"fanout": 3}}
    ),
    "rng-weak-faulted": Cell("rng", "weak", FAULTS),
    "spt4-proactive-faulted": Cell("spt4", "proactive", FAULTS),
    # A non-unit-disk model: the receiver oracle's keyed predicate.
    "rng-view-sync-logdist": Cell("rng", "view-sync", config=LOG_DISTANCE),
    "rng-view-sync-logdist-faulted": Cell(
        "rng", "view-sync", FAULTS, config=LOG_DISTANCE
    ),
    # n=100: more than one packet-time redecision block per probe, so the
    # order owners are cut into blocks is pinned.
    "rng-view-sync-n100": Cell("rng", "view-sync", n_nodes=100),
    "spt4-proactive-n100": Cell("spt4", "proactive", n_nodes=100),
    # Weak at n=100: the first settle of the 2.0 s probe holds about 200
    # rows, several selection blocks of wide rows whose rings are filled
    # to different depths.
    "rng-weak-n100": Cell("rng", "weak", n_nodes=100),
    "spt4-weak-n100": Cell("spt4", "weak", n_nodes=100),
    # Physical-neighbor forwarding, and no buffer zone at all.
    "rng-view-sync-pn": Cell("rng", "view-sync", spec={"physical_neighbor_mode": True}),
    "rng-baseline-buf0": Cell("rng", "baseline", spec={"buffer_width": 0.0}),
    # The stochastic model: keyed reception draws decide the snapshot's
    # in-range edges, alone and under physical-neighbor forwarding.
    "rng-view-sync-sinr": Cell("rng", "view-sync", config=SINR),
    "spt4-baseline-sinr-pn": Cell(
        "spt4", "baseline", config=SINR, spec={"physical_neighbor_mode": True}
    ),
    # Exact cost ties: on the lattice distinct links have equal costs and
    # Gabriel's a^2 + b^2 = d^2 holds exactly, so every removal condition
    # is decided by the (cost, min id, max id) order, on intervals (weak)
    # and on single versions (MST's tie rows).
    "rng-weak-lattice": Cell("rng", "weak", lattice=True),
    "mst-weak-lattice": Cell("mst", "weak", lattice=True),
    "spt4-weak-lattice": Cell("spt4", "weak", lattice=True),
    "gabriel-weak-lattice": Cell("gabriel", "weak", lattice=True),
    "enclosure-weak-lattice": Cell("enclosure", "weak", lattice=True),
    "mst-baseline-lattice": Cell("mst", "baseline", lattice=True),
    # Receiver lookups answered ahead of their Hellos.  Proactive nodes
    # whose first advertised epochs differ (one down over its first two
    # epochs, one clock a second and a half ahead), so the first
    # Hello-time decision of each comes at a different epoch.
    "rng-proactive-outage0": Cell("rng", "proactive", OUTAGE0),
    # Every fault seam under synchronized rounds.
    "rng-reactive-faulted": Cell("rng", "reactive", FAULTS),
    # Hellos on the air for 5 ms: the collision window sees each Hello
    # in send order, with its receivers known beforehand.
    "rng-baseline-collisions": Cell("rng", "baseline", config={"hello_tx_duration": 0.005}),
    # Three times the paper's speed at n=100: the stale receiver grid is
    # rebuilt four times in 4 s, so lookups straddle rebuilds.
    "rng-baseline-n100": Cell("rng", "baseline", n_nodes=100, spec={"mean_speed": 60.0}),
    # Rings of depth 1: every newer Hello evicts the entry a pending
    # versioned decision reads, so its members are read before the write.
    "rng-proactive-k1": Cell("rng", "proactive", config={"history_depth": 1}),
    "rng-reactive-k1": Cell("rng", "reactive", config={"history_depth": 1}),
    # The same at n=100, where many versioned reads wait at once and
    # Hellos evict what they read between any two reads of the store.
    "rng-proactive-k1-n100": Cell(
        "rng", "proactive", n_nodes=100, config={"history_depth": 1}
    ),
    # Clocks up to 0.9 s apart: while a node's epoch-e decision waits,
    # late neighbors' epoch-(e-1) Hellos arrive at it, so writes change
    # what waiting versioned reads read, and the reads are answered first.
    "rng-proactive-skew": Cell(
        "rng", "proactive", config={"history_depth": 2, "max_clock_skew": 0.9}
    ),
    # Gossip merges write many senders at one receiver between Hello
    # deliveries, and at depth 1 each merge or delivery evicts the last.
    # Gossip decides from the newest entries only, so the digest is
    # rng-gossip's: the depth changes what the store keeps, not what it
    # reads.
    "rng-gossip-k1": Cell("rng", "gossip", config={"history_depth": 1}),
    # Fig. 9's fastest point at n=100: local SPT paths over several hops,
    # and every probe's redecision settles the Hello-time decisions.
    "spt2-view-sync-n100": Cell("spt2", "view-sync", n_nodes=100, spec={"mean_speed": 160.0}),
    # The same point under MST: packet-time decisions of condition 3
    # over the local minimum-spanning-tree path costs.
    "mst-view-sync-n100": Cell("mst", "view-sync", n_nodes=100, spec={"mean_speed": 160.0}),
}

#: spacing of the lattice placement, the paper's 8100 m^2 per node
LATTICE_SPACING = 90.0


def cell_spec(
    protocol: str,
    mechanism: str,
    n_nodes: int = 30,
    spec: dict | None = None,
    **config,
) -> ExperimentSpec:
    """*n_nodes* at the paper's density (8100 m^2 per node), 20 m/s, 4 s,
    10 samples/s after a 2 s warmup, 10 m buffer; *spec* overrides
    further :class:`ExperimentSpec` fields and *config* further
    :class:`ScenarioConfig` fields."""
    side = math.sqrt(n_nodes * 8100.0)
    fields = {"buffer_width": 10.0, "mean_speed": 20.0, **(spec or {})}
    return ExperimentSpec(
        protocol=protocol,
        mechanism=mechanism,
        **fields,
        config=ScenarioConfig(
            n_nodes=n_nodes,
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


def lattice_placement(spec: ExperimentSpec, rng: np.random.Generator) -> StaticPlacement:
    """Static nodes on a square lattice of :data:`LATTICE_SPACING` with
    integer coordinates, row by row from the area's corner."""
    cfg = spec.config
    columns = math.isqrt(cfg.n_nodes - 1) + 1
    node = np.arange(cfg.n_nodes)
    positions = LATTICE_SPACING * np.stack((node % columns, node // columns), axis=1)
    return StaticPlacement(cfg.area, cfg.n_nodes, cfg.duration, positions=positions)


def cell_run(cell: str) -> RunResult:
    """One cell's run at :data:`SEED`."""
    c = CELLS[cell]
    spec = cell_spec(c.protocol, c.mechanism, c.n_nodes, c.spec, **c.config)
    if not c.lattice:
        return run_once(spec, seed=SEED, faults=c.faults)
    with mock.patch.object(experiment, "build_mobility", lattice_placement):
        return run_once(spec, seed=SEED, faults=c.faults)


@functools.cache
def cached_cell_run(cell: str) -> RunResult:
    """:func:`cell_run`, kept for the tests that read the same run."""
    return cell_run(cell)


def cell_digest(cell: str) -> str:
    """Digest of one cell's run at :data:`SEED`."""
    return digest(cell_run(cell))


SERIES = (
    "delivery_ratios",
    "mean_actual_ranges",
    "mean_extended_ranges",
    "mean_logical_degrees",
    "mean_physical_degrees",
    "strict_connected",
)

CACHE_COUNTERS = (
    "decision_cache_hits",
    "decision_cache_misses",
    "decision_cache_uncacheable",
)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_reproduces_pinned_digest(cell):
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert digest(cached_cell_run(cell)) == pinned[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_decision_cache_changes_nothing_but_its_counters(cell, monkeypatch):
    cached = cached_cell_run(cell)
    monkeypatch.setattr(
        MobilitySensitiveTopologyControl, "decision_cache_default", False
    )
    uncached = cell_run(cell)
    for name in SERIES:
        np.testing.assert_array_equal(
            getattr(uncached, name), getattr(cached, name), err_msg=name
        )
    zeroed = dict.fromkeys(CACHE_COUNTERS, 0)
    assert replace(uncached.stats, **zeroed) == replace(cached.stats, **zeroed)
    assert uncached.stats.cache_info() == zeroed


def test_every_cell_is_pinned():
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(pinned) == set(CELLS)


if __name__ == "__main__":
    print(json.dumps({cell: cell_digest(cell) for cell in sorted(CELLS)},
                     indent=1, sort_keys=True))
