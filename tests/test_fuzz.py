"""Tests for the differential fuzzer (repro.faults.fuzz).

The two load-bearing guarantees:

- shipped mechanisms survive a randomized fault campaign with zero
  oracle findings (soundness of both the stack and the oracles' slack
  accounting), and
- a deliberately broken mechanism (view synchronization without expiry
  filtering) is caught and shrunk to a minimal fault schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec
from repro.core.consistency import ViewSynchronization
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.faults.fuzz import (
    BrokenViewSync,
    FuzzCase,
    build_fuzz_world,
    fuzz,
    load_case,
    random_case,
    run_case,
    save_case,
    shrink_case,
)
from repro.faults.schedule import FaultSchedule, HelloLossBurst, NodeOutage
from repro.mobility.base import Area
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.util.errors import ConfigurationError
from repro.util.randomness import SeedSequenceFactory


def static_case(mechanism: str, schedule: FaultSchedule, seed: int = 11) -> FuzzCase:
    """A dense static scenario: stale views can only come from faults."""
    cfg = ScenarioConfig(
        n_nodes=14,
        area=Area(340.0, 340.0),
        duration=8.0,
        warmup=2.0,
        sample_rate=2.0,
    )
    spec = ExperimentSpec(
        protocol="rng", mechanism=mechanism, buffer_width=10.0,
        mean_speed=0.0, config=cfg,
    )
    return FuzzCase(spec=spec, schedule=schedule, seed=seed)


LONG_OUTAGE = FaultSchedule(
    events=(
        NodeOutage(node=2, start=2.0, end=7.5),
        HelloLossBurst(start=3.0, end=4.0, probability=0.5),
        NodeOutage(node=9, start=6.0, end=6.5),
    )
)


class TestCampaign:
    def test_shipped_mechanisms_survive_campaign(self):
        report = fuzz(runs=12, seed=0, differential=True)
        assert report.ok, [f.findings for f in report.failures]
        assert report.runs == 12

    def test_campaign_is_deterministic(self):
        a = fuzz(runs=4, seed=5, differential=False, shrink=False)
        b = fuzz(runs=5, seed=5, differential=False, shrink=False)
        # same seed => same case sequence, independent of run count
        assert a.seed == b.seed
        factory = SeedSequenceFactory(5)
        c1 = random_case(factory.rng("fuzz-case-0"), index=0)
        factory = SeedSequenceFactory(5)
        c2 = random_case(factory.rng("fuzz-case-0"), index=0)
        assert c1 == c2

    def test_versioned_decisions_under_gps_noise_audit_clean(self):
        # The eleventh case (gabriel + proactive, static nodes, 1.66 m of
        # GPS noise) was a false range-coverage finding while the audit
        # measured a versioned decision at the newest Hellos instead of
        # the version it read.
        report = fuzz(runs=11, seed=21, mechanisms=("proactive", "view-sync"))
        assert report.ok, [f.findings for f in report.failures]

    def test_deep_mode_runs_clean(self):
        report = fuzz(runs=3, seed=1, deep=True, differential=False)
        assert report.ok, [f.findings for f in report.failures]


class TestBrokenMechanismDetection:
    def test_broken_view_sync_caught_and_shrunk(self):
        case = static_case("broken-view-sync", LONG_OUTAGE)
        result = run_case(case)
        assert result.failed
        assert any("freshness" in f for f in result.findings)
        small = shrink_case(case)
        assert 1 <= len(small.schedule) <= 5
        assert run_case(small).failed
        # the surviving event is the long outage — the one fault whose
        # removal would mask the bug
        assert any(isinstance(e, NodeOutage) for e in small.schedule)

    def test_healthy_view_sync_passes_same_case(self):
        result = run_case(static_case("view-sync", LONG_OUTAGE))
        assert not result.failed, result.findings

    def test_broken_mechanism_passes_without_faults(self):
        # fault-free and static, nothing ever goes stale: the mutation is
        # observationally healthy, which is exactly why fuzzing needs
        # fault injection to expose it
        result = run_case(static_case("broken-view-sync", FaultSchedule()))
        assert not result.failed, result.findings

    def test_fuzz_campaign_finds_broken_mechanism(self, tmp_path):
        report = fuzz(
            runs=20,
            seed=3,
            differential=False,
            mechanisms=("broken-view-sync",),
            out_dir=tmp_path,
        )
        assert not report.ok
        assert report.saved, "failing cases must be serialized"
        for result in report.failures:
            assert len(result.case.schedule) <= 5
        replayed = load_case(report.saved[0])
        assert run_case(replayed).failed


class TestCaseSerialization:
    def test_json_round_trip(self):
        case = static_case("weak", LONG_OUTAGE)
        restored = FuzzCase.from_json(case.to_json())
        assert restored == case

    def test_save_load_with_findings(self, tmp_path):
        case = static_case("view-sync", LONG_OUTAGE, seed=3)
        path = save_case(case, tmp_path / "case.json", findings=["[x] boom"])
        assert load_case(path) == case

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            FuzzCase.from_dict({"format": "other/9"})

    def test_replay_reproduces_run_bit_identically(self):
        case = static_case("view-sync", LONG_OUTAGE, seed=21)
        replay = FuzzCase.from_json(case.to_json())
        a, b = build_fuzz_world(case), build_fuzz_world(replay)
        a.run_until(8.0)
        b.run_until(8.0)
        assert np.array_equal(a.positions(8.0), b.positions(8.0))
        assert a.channel.stats.as_dict() == b.channel.stats.as_dict()
        assert a.fault_stats() == b.fault_stats()


class TestBrokenViewSyncUnit:
    def test_matches_real_mechanism_on_fresh_views(self):
        fresh = static_case("view-sync", FaultSchedule(), seed=8)
        broken = static_case("broken-view-sync", FaultSchedule(), seed=8)
        a, b = build_fuzz_world(fresh), build_fuzz_world(broken)
        a.run_until(6.0)
        b.run_until(6.0)
        decisions_a = [
            (n.node_id, n.decision and n.decision.logical_neighbors)
            for n in a.nodes
        ]
        decisions_b = [
            (n.node_id, n.decision and n.decision.logical_neighbors)
            for n in b.nodes
        ]
        assert decisions_a == decisions_b

    def test_never_cached(self):
        case = static_case("broken-view-sync", FaultSchedule(), seed=8)
        world = build_fuzz_world(case)
        world.run_until(6.0)
        assert world.manager.cache_hits == 0
        assert world.manager.cache_misses == 0
        assert world.manager.cache_uncacheable > 0

    def test_packet_time_decisions_run_the_mutation(self):
        # Neighbor 1 fell silent 5 s ago, past the 1 s expiry: the real
        # mechanism drops it, the mutation keeps it at packet time too.
        table = NeighborTable(0, normal_range=100.0, expiry=1.0)
        table.record_hello(Hello(1, 1, (30.0, 0.0), 0.0, 0.0))
        own = (0.0, 0.0)
        protocol = RngProtocol()
        (broken,) = MobilitySensitiveTopologyControl(protocol, BrokenViewSync()).decide_many(
            [table], 5.0, [own]
        )
        (healthy,) = MobilitySensitiveTopologyControl(
            protocol, ViewSynchronization()
        ).decide_many([table], 5.0, [own])
        assert broken.logical_neighbors == frozenset({1})
        assert healthy.logical_neighbors == frozenset()

    def test_registered_name(self):
        assert BrokenViewSync.name == "broken-view-sync"
        assert BrokenViewSync.cacheable is False
