"""Tests for process-parallel repetition execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import (
    ExperimentSpec,
    default_workers,
    run_repetitions,
    run_repetitions_many,
)
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

TINY = ScenarioConfig(
    n_nodes=10,
    area=Area(285.0, 285.0),
    normal_range=250.0,
    duration=5.0,
    warmup=2.0,
    sample_rate=1.0,
)


class TestParallelRepetitions:
    def test_parallel_matches_sequential_exactly(self):
        spec = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)
        seq = run_repetitions(spec, repetitions=3, base_seed=50, workers=1)
        par = run_repetitions(spec, repetitions=3, base_seed=50, workers=3)
        assert seq.connectivity.mean == par.connectivity.mean
        assert seq.transmission_range.mean == par.transmission_range.mean
        assert seq.logical_degree.mean == par.logical_degree.mean

    def test_single_repetition_stays_in_process(self):
        spec = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)
        agg = run_repetitions(spec, repetitions=1, base_seed=50, workers=8)
        assert agg.n_repetitions == 1

    def test_workers_capped_at_repetitions(self):
        spec = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)
        agg = run_repetitions(spec, repetitions=2, base_seed=50, workers=16)
        assert agg.n_repetitions == 2


class TestDefaultWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='many'"):
            assert default_workers() == 1

    def test_valid_env_does_not_warn(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_nonpositive_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_spec_is_picklable(self):
        import pickle

        spec = ExperimentSpec(
            protocol="yao", protocol_kwargs={"k": 7},
            mechanism="gossip", mechanism_kwargs={"fanout": 3},
            config=TINY,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.protocol_kwargs == {"k": 7}


class TestWorkerFailureNaming:
    def test_parallel_failure_names_spec_and_seed(self):
        from repro.util.errors import WorkUnitError

        bad = ExperimentSpec(
            protocol="yao", protocol_kwargs={"k": -1},
            mean_speed=10.0, config=TINY,
        )
        with pytest.raises(WorkUnitError) as excinfo:
            run_repetitions(bad, repetitions=2, base_seed=50, workers=2)
        assert excinfo.value.label == bad.describe()
        assert excinfo.value.seed in (50, 51)
        assert "seed" in str(excinfo.value)

    def test_parallel_failure_names_first_unit_in_seed_order(self):
        from repro.util.errors import WorkUnitError

        bad = ExperimentSpec(
            protocol="yao", protocol_kwargs={"k": -1},
            mean_speed=10.0, config=TINY,
        )
        good = bad.with_(protocol="rng", protocol_kwargs={})
        for _ in range(3):
            with pytest.raises(WorkUnitError) as excinfo:
                run_repetitions_many(
                    [good, bad], repetitions=3, base_seed=50, workers=3
                )
            assert excinfo.value.label == bad.describe()
            assert excinfo.value.seed == 50
