"""Tests for the repro.api facade and the typed RunStats results API."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    ExperimentSpec,
    FaultSchedule,
    RunStats,
    ScenarioConfig,
    Telemetry,
    run_once,
    simulate,
)
from repro.mobility.base import Area


def _spec() -> ExperimentSpec:
    cfg = ScenarioConfig(
        n_nodes=12, area=Area(350.0, 350.0), normal_range=200.0,
        duration=6.0, warmup=2.0, sample_rate=1.0,
    )
    return ExperimentSpec(protocol="rng", mean_speed=10.0, config=cfg)


class TestFacade:
    def test_every_advertised_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_facade_names_are_the_home_module_objects(self):
        from repro.analysis.experiment import RunStats as home_run_stats
        from repro.sim.trace import TraceRecorder as home_recorder
        from repro.telemetry import MetricsRegistry as home_registry

        assert api.RunStats is home_run_stats
        assert api.TraceRecorder is home_recorder
        assert api.MetricsRegistry is home_registry
        assert api.FaultSchedule is FaultSchedule

    def test_simulate_matches_run_once(self):
        a = simulate(_spec(), seed=9)
        b = run_once(_spec(), seed=9)
        assert np.array_equal(a.delivery_ratios, b.delivery_ratios)
        assert a.stats == b.stats

    def test_simulate_threads_faults_and_telemetry(self):
        from repro.faults.schedule import NodeOutage

        telemetry = Telemetry()
        schedule = FaultSchedule(events=(NodeOutage(node=1, start=2.0, end=5.0),))
        result = simulate(_spec(), seed=2, faults=schedule, telemetry=telemetry)
        assert result.stats.faults_armed
        assert result.stats.fault_suppressed_sends > 0
        assert result.stats.telemetry is not None


class TestRunStats:
    def test_frozen_and_typed(self):
        stats = simulate(_spec(), seed=1).stats
        assert isinstance(stats, RunStats)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.hello_messages = 0
        assert isinstance(stats.hello_messages, int)
        assert stats.hello_messages > 0

    def test_as_dict_spells_channel_and_cache_counters(self):
        legacy = simulate(_spec(), seed=1).stats.as_dict()
        # the pre-1.1 dict shape: exactly the channel + cache counters
        assert set(legacy) == {
            "hello_messages", "data_transmissions", "sync_messages",
            "deliveries", "hello_losses", "collisions",
            "decision_cache_hits", "decision_cache_misses",
            "decision_cache_uncacheable",
        }

    def test_fault_keys_only_when_armed(self):
        from repro.faults.schedule import NodeOutage

        clean = simulate(_spec(), seed=2).stats
        assert not clean.faults_armed
        assert not any(k.startswith("fault_") for k in clean.as_dict())
        faulted = simulate(
            _spec(), seed=2,
            faults=FaultSchedule(events=(NodeOutage(node=1, start=2.0, end=5.0),)),
        ).stats
        assert faulted.faults_armed
        assert "fault_suppressed_sends" in faulted.as_dict()

    def test_untraced_run_has_no_summary(self):
        assert simulate(_spec(), seed=1).stats.telemetry is None
