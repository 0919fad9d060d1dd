"""The audit and the freshness oracle over the neighbor store's columns,
against their Hello-built references.

:func:`repro.core.audit.audit_world` and
:func:`repro.faults.oracles.freshness_oracle` read each pair's ring
columns and the store's versioned members; the references in
``neighbor_oracles`` rebuild every pair's Hellos and check them one by
one.  Both must return the same findings, text included:

- on every golden cell, after the probe at its midpoint (a settle point:
  the probe's snapshot selects every waiting decision) and after its
  last probe;
- at every sampling instant of the cases of three fuzz campaigns, the
  ones CI runs (``--seed 0``, ``--seed 13 --mechanism weak`` and
  ``--seed 21 --mechanism proactive --mechanism view-sync``, 25 cases
  each);
- on small worlds with one deliberate violation each (a repeated or a
  decreasing version written through ``record_entries`` among them), so
  that an empty result cannot hide a port that checks nothing.

The port measures distances with ``np.hypot`` and the references with
``math.hypot``, which may differ in the last bit; no finding here sits
that close to its bound.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

import neighbor_oracles
from repro.analysis import experiment
from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.core.audit import audit_world
from repro.core.views import Hello
from repro.faults.fuzz import (
    MECHANISMS,
    _sample_times,
    build_fuzz_world,
    random_case,
)
from repro.faults.oracles import freshness_oracle
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.util.randomness import SeedSequenceFactory
from test_golden_digests import CELLS, SEED, cell_spec, lattice_placement


def assert_same_findings(world):
    """The port's and the reference's findings on *world* now, equal;
    returns them."""
    violations = audit_world(world)
    assert violations == neighbor_oracles.audit_world(world)
    findings = freshness_oracle(world)
    assert findings == neighbor_oracles.freshness_oracle(world)
    return violations, findings


# --------------------------------------------------------------------- #
# golden cells


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_cell_findings_match_the_reference(cell):
    c = CELLS[cell]
    spec = cell_spec(c.protocol, c.mechanism, c.n_nodes, c.spec, **c.config)
    probes = len(_sample_times(spec.config))
    checked = []
    flood = experiment.flood

    def probe(world, source):
        result = flood(world, source)
        if len(checked) in (probes // 2, probes - 1):
            assert_same_findings(world)
            checked.append(world.engine.now)
        else:
            checked.append(None)
        return result

    with mock.patch.object(experiment, "flood", probe):
        if c.lattice:
            with mock.patch.object(experiment, "build_mobility", lattice_placement):
                run_once(spec, seed=SEED, faults=c.faults)
        else:
            run_once(spec, seed=SEED, faults=c.faults)
    assert [t for t in checked if t is not None] == pytest.approx(
        [spec.config.warmup + (spec.config.duration - spec.config.warmup) / 2,
         spec.config.duration]
    )


# --------------------------------------------------------------------- #
# fuzz campaigns

#: (campaign seed, mechanism axis) of each campaign CI runs
CAMPAIGNS = {
    "seed0": (0, MECHANISMS),
    "seed13-weak": (13, ("weak",)),
    "seed21-proactive-view-sync": (21, ("proactive", "view-sync")),
}


@pytest.mark.parametrize("case_index", range(25))
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_fuzz_case_findings_match_the_reference(campaign, case_index):
    seed, mechanisms = CAMPAIGNS[campaign]
    rng = SeedSequenceFactory(seed).rng(f"fuzz-case-{case_index}")
    case = random_case(rng, index=case_index, mechanisms=mechanisms)
    world = build_fuzz_world(case)
    for t in _sample_times(case.spec.config):
        world.run_until(float(t))
        assert_same_findings(world)


# --------------------------------------------------------------------- #
# one deliberate violation each


def small_world(mechanism, speed=10.0):
    """15 nodes run to 5 s."""
    cfg = ScenarioConfig(
        n_nodes=15, area=Area(349.0, 349.0), normal_range=250.0,
        duration=10.0, warmup=2.0, sample_rate=1.0,
    )
    spec = ExperimentSpec(
        protocol="rng", mechanism=mechanism, buffer_width=10.0,
        mean_speed=speed, config=cfg,
    )
    world = build_world(spec, seed=3)
    world.run_until(5.0)
    return world


def flagged(world, invariant):
    """The port's findings of *invariant*, equal to the reference's and
    not empty."""
    violations, findings = assert_same_findings(world)
    found = [str(v) for v in violations if v.invariant == invariant]
    found += [str(f) for f in findings if f.oracle == invariant]
    assert found, invariant
    return found


def test_ghost_neighbor_is_flagged_by_both():
    world = small_world("baseline")
    node = world.nodes[0]
    node.decision = replace(
        node.decision, logical_neighbors=node.decision.logical_neighbors | {9999}
    )
    assert flagged(world, "ghost-neighbor") == [
        "node 0: ghost-neighbor — selected [9999] without any Hello on record"
    ]


@pytest.mark.parametrize("back", [5, 0])
def test_versions_that_do_not_increase_are_flagged_by_both(back):
    world = small_world("baseline")
    table = world.nodes[0].table
    sender = table.known_neighbors()[0]
    newest = int(table.newest([sender])[0][0])
    table.record_hellos([Hello(sender, newest - back, (0.0, 0.0), 4.9, 4.9)])
    found = flagged(world, "version-order")
    assert len(found) == 1 and f"for {sender}" in found[0]


def test_coverage_at_a_version_is_flagged_by_both():
    world = small_world("proactive")
    node = next(n for n in world.nodes if n.decision and n.decision.logical_neighbors)
    assert node.decision.version is not None
    node.decision = replace(node.decision, actual_range=1.0, extended_range=11.0)
    found = flagged(world, "range-coverage")
    assert found[0].startswith(f"node {node.node_id}: range-coverage — version-")


def test_range_coverage_under_weak_is_flagged_by_both():
    world = small_world("weak")
    node = next(n for n in world.nodes if n.decision and n.decision.logical_neighbors)
    node.decision = replace(node.decision, actual_range=1.0, extended_range=11.0)
    found = flagged(world, "range-coverage")
    assert all("(+slack)" in f for f in found)


def test_stale_neighbor_is_flagged_by_both():
    world = small_world("view-sync")
    node = next(n for n in world.nodes if n.decision and n.decision.logical_neighbors)
    node.decision = replace(node.decision, decided_at=world.engine.now + 60.0)
    found = flagged(world, "freshness")
    assert len(found) == len(node.decision.logical_neighbors)
    assert all(f"node {node.node_id} decided at" in f for f in found)

