"""Propagation-model seam: the differential test battery.

Three contracts are pinned here:

1. **Unit-disk bit-identity.**  The seam must cost the default nothing:
   an explicit ``propagation="unit-disk"`` config collapses to the
   historical code path (``_propagation is None`` at every seam), and —
   the sharper differential — a ``LogDistance(sigma_db=0)`` world, which
   routes through the *model* code path with an identity range factor,
   reproduces the unit-disk world bit for bit across mechanism × loss.

2. **The receiver oracle under a model.**  The Hello route's stale-grid
   query widens to the model's superset radius, every rejected
   within-range candidate is counted, and results are reproducible at
   any worker count.

3. **Oracle adaptation.**  ``theorem5_slack`` widens by exactly
   ``2 v_max · staleness_allowance`` for stochastic models and not at
   all for deterministic ones; the static-connectivity oracle stands
   down for every non-unit-disk model.

Plus the keyed-hash algebra (symmetry, subset stability, superset-radius
containment) and the validation surface (NaN/negative parameters die at
construction with :class:`ConfigurationError`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neighbor_oracles import history_of
from repro.analysis.experiment import ExperimentSpec, run_repetitions
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import make_mechanism
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.faults.oracles import static_connectivity_oracle, theorem5_slack
from repro.geometry.points import pairwise_distances
from repro.mobility import Area, RandomWaypoint
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.propagation import (
    UNIT_DISK,
    LogDistance,
    ProbabilisticSINR,
    PropagationModel,
    UnitDisk,
    available_propagation_models,
    make_propagation,
)
from repro.sim.radio import IdealChannel
from repro.sim.world import NetworkWorld
from repro.telemetry import Telemetry
from repro.util.errors import ConfigurationError
from repro.util.randomness import SeedSequenceFactory

from propagation_oracles import in_range_matrix

MECHANISMS = ("baseline", "view-sync", "proactive", "reactive", "weak")
MODELS = ("log-distance", "sinr")


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        n_nodes=10,
        area=Area(300.0, 300.0),
        normal_range=150.0,
        duration=5.0,
        sample_rate=2.0,
        warmup=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _world(
    cfg: ScenarioConfig,
    mechanism: str = "view-sync",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> NetworkWorld:
    seeds = SeedSequenceFactory(seed)
    mobility = RandomWaypoint(
        cfg.area, cfg.n_nodes, cfg.duration, mean_speed=8.0, rng=seeds.rng("m")
    )
    manager = MobilitySensitiveTopologyControl(
        RngProtocol(),
        mechanism=make_mechanism(mechanism),
        buffer_policy=BufferZonePolicy(width=20.0, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed, telemetry=telemetry)


def _assert_twins_identical(a: NetworkWorld, b: NetworkWorld) -> None:
    """Every decision-relevant observable must match bit for bit."""
    now = a.engine.now
    assert now == b.engine.now
    assert a.channel.stats.as_dict() == b.channel.stats.as_dict()
    for na, nb in zip(a.nodes, b.nodes):
        ta, tb = na.table, nb.table
        assert na.hellos_sent == nb.hellos_sent
        assert ta.mutations == tb.mutations
        assert ta.hellos_received == tb.hellos_received
        assert ta.known_neighbors() == tb.known_neighbors()
        for neighbor in ta.known_neighbors():
            assert history_of(ta, neighbor) == history_of(tb, neighbor)
        assert ta.own_history == tb.own_history


# --------------------------------------------------------------------- #
# 1. unit-disk bit-identity


class TestUnitDiskSeamCollapse:
    def test_default_config_collapses_to_historical_path(self):
        world = _world(_config())
        assert isinstance(world.propagation, UnitDisk)
        assert world._propagation is None
        assert world.channel.propagation is None
        assert world._oracle.propagation is None
        assert world.snapshot().propagation is None

    def test_explicit_unit_disk_is_the_same_collapse(self):
        world = _world(_config(propagation="unit-disk"))
        assert world.propagation is UNIT_DISK
        assert world._propagation is None

    def test_non_unit_disk_model_is_bound_and_threaded(self):
        world = _world(_config(propagation="log-distance"))
        model = world._propagation
        assert isinstance(model, LogDistance)
        assert world.propagation is model
        assert world.channel.propagation is model
        assert world.snapshot().propagation is model

    def test_stats_dict_shapes(self):
        # Unit-disk runs keep the legacy RunStats dict shape (no
        # propagation keys); ChannelStats always carries the counter.
        from repro.analysis.experiment import RunStats

        unit = _world(_config())
        unit.run_until(3.0)
        stats = RunStats.from_world(unit)
        assert "propagation" not in stats.as_dict()
        assert "propagation_losses" not in stats.as_dict()
        assert unit.channel.stats.as_dict()["propagation_losses"] == 0

        shadowed = _world(_config(propagation="log-distance"))
        shadowed.run_until(3.0)
        stats = RunStats.from_world(shadowed)
        assert stats.as_dict()["propagation"] == "log-distance"
        assert stats.as_dict()["propagation_losses"] == stats.propagation_losses

    def test_spec_canonical_json_unchanged_for_unit_disk(self):
        # Orchestrator unit ids hash the canonical spec JSON; the seam
        # must not perturb any pre-existing unit-disk id.
        spec = ExperimentSpec(config=_config())
        assert "propagation" not in spec.as_dict()["config"]
        shadowed = ExperimentSpec(
            config=_config(propagation="log-distance",
                           propagation_params={"sigma_db": 6}),
        )
        cfg = shadowed.as_dict()["config"]
        assert cfg["propagation"] == "log-distance"
        assert cfg["propagation_params"] == {"sigma_db": 6.0}
        rebuilt = ExperimentSpec.from_json(shadowed.to_json())
        assert rebuilt.to_json() == shadowed.to_json()


class TestSigmaZeroEquivalence:
    """LogDistance(sigma_db=0) runs the model code path with an identity
    range factor — it must reproduce the unit-disk world bit for bit.
    This is the live stand-in for the pre-change trace comparison: any
    divergence introduced by the seam's model path shows up here.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        mechanism=st.sampled_from(MECHANISMS),
        seed=st.integers(0, 2**16),
    )
    def test_twin_identity(self, mechanism, seed):
        cfg0 = _config()
        cfg1 = _config(propagation="log-distance",
                       propagation_params={"sigma_db": 0.0})
        unit = _world(cfg0, mechanism, seed)
        model = _world(cfg1, mechanism, seed)
        assert model._propagation is not None  # genuinely on the model path
        unit.run_until(cfg0.duration)
        model.run_until(cfg1.duration)
        _assert_twins_identical(unit, model)
        assert model.channel.stats.propagation_losses == 0

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), loss=st.sampled_from([0.1, 0.3]))
    def test_twin_identity_under_loss(self, seed, loss):
        # The i.i.d. loss RNG consumes draws positionally: identical
        # receiver arrays are the only way the twins can agree.
        cfg0 = _config(hello_loss_rate=loss)
        cfg1 = _config(hello_loss_rate=loss, propagation="log-distance",
                       propagation_params={"sigma_db": 0.0})
        unit = _world(cfg0, "baseline", seed)
        model = _world(cfg1, "baseline", seed)
        unit.run_until(cfg0.duration)
        model.run_until(cfg1.duration)
        assert unit.channel.stats.hello_losses > 0
        _assert_twins_identical(unit, model)

    def test_snapshot_predicates_agree(self):
        cfg1 = _config(propagation="log-distance",
                       propagation_params={"sigma_db": 0.0})
        unit = _world(_config(), "view-sync", 9)
        model = _world(cfg1, "view-sync", 9)
        unit.run_until(4.0)
        model.run_until(4.0)
        su, sm = unit.snapshot(), model.snapshot()
        assert np.array_equal(su.in_range_csr().to_dense(), sm.in_range_csr().to_dense())
        assert np.array_equal(su.original_csr().to_dense(), sm.original_csr().to_dense())


# --------------------------------------------------------------------- #
# 2. the receiver oracle under a model


class TestBatchedPipelineContract:
    """The batched Hello route under a non-unit-disk model: the oracle's
    stale-grid query widens to the model's superset radius, the exact
    filter is the bound model's keyed predicate, and every rejected
    within-range candidate reaches the channel counters and telemetry.
    """

    def test_batched_construction_is_not_an_error(self):
        # The superset query composes with the model, it does not
        # conflict: the oracle holds the world's bound model.
        world = _world(_config(propagation="sinr"))
        assert world._oracle.propagation is world._propagation

    def test_oracle_query_radius_is_widened(self):
        cfg = _config(propagation="log-distance")
        world = _world(cfg)
        oracle = world._oracle
        assert oracle._query_radius == pytest.approx(
            world._propagation.query_radius(cfg.normal_range)
        )
        assert oracle._query_radius > cfg.normal_range

    def test_telemetry_counts_propagation_drops(self):
        tel = Telemetry()
        cfg = _config(propagation="sinr")
        world = _world(cfg, "baseline", 5, telemetry=tel)
        world.run_until(cfg.duration)
        lost = world.channel.stats.propagation_losses
        assert lost > 0
        counter = tel.registry.counter("hello_dropped", reason="propagation")
        assert counter.value == lost


class TestWorkerDeterminism:
    @pytest.mark.parametrize("model", MODELS)
    def test_repetitions_identical_at_1_and_4_workers(self, model):
        cfg = _config(n_nodes=12, duration=4.0, propagation=model)
        spec = ExperimentSpec(
            protocol="rng", mechanism="view-sync",
            buffer_width=20.0, mean_speed=8.0, config=cfg,
        )
        one = run_repetitions(spec, repetitions=4, base_seed=50, workers=1)
        four = run_repetitions(spec, repetitions=4, base_seed=50, workers=4)
        assert one.row() == four.row()


# --------------------------------------------------------------------- #
# 3. keyed-hash algebra


class TestModelAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        model_name=st.sampled_from(MODELS),
        now=st.floats(0.0, 100.0, allow_nan=False),
        n=st.integers(2, 40),
    )
    def test_subset_stability(self, seed, model_name, now, n):
        # Verdicts for a candidate set must equal the restriction of the
        # verdicts for any superset — the property that makes candidate
        # generation strategy (grid vs dense vs stale-grid) irrelevant.
        model = make_propagation(model_name).bind(seed)
        rng = np.random.default_rng(seed)
        cand = np.arange(1, n + 1, dtype=np.intp)
        d = rng.uniform(0.0, 400.0, size=n)
        full = model.accept(0, cand, d, 150.0, now)
        pick = rng.random(n) < 0.5
        sub = model.accept(0, cand[pick], d[pick], 150.0, now)
        assert np.array_equal(full[pick], sub)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        model_name=st.sampled_from(MODELS),
        now=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_accept_contained_in_query_radius(self, seed, model_name, now):
        model = make_propagation(model_name).bind(seed)
        cand = np.arange(1, 60, dtype=np.intp)
        d = np.linspace(1.0, 600.0, cand.size)
        ok = model.accept(0, cand, d, 150.0, now)
        assert np.all(d[ok] <= model.query_radius(150.0) + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), a=st.integers(0, 500), b=st.integers(0, 500))
    def test_log_distance_symmetry(self, seed, a, b):
        model = LogDistance(sigma_db=6.0).bind(seed)
        d = np.array([140.0])
        ab = model.accept(a, np.array([b], dtype=np.intp), d, 150.0, 0.0)
        ba = model.accept(b, np.array([a], dtype=np.intp), d, 150.0, 0.0)
        assert np.array_equal(ab, ba)

    def test_log_distance_time_invariant_sinr_not(self):
        cand = np.arange(1, 200, dtype=np.intp)
        d = np.linspace(1.0, 300.0, cand.size)
        ld = LogDistance().bind(3)
        assert np.array_equal(
            ld.accept(0, cand, d, 150.0, 1.0), ld.accept(0, cand, d, 150.0, 88.0)
        )
        sinr = ProbabilisticSINR().bind(3)
        assert not np.array_equal(
            sinr.accept(0, cand, d, 150.0, 1.0), sinr.accept(0, cand, d, 150.0, 2.0)
        )
        # ... but identical at the same instant (pure keyed function).
        assert np.array_equal(
            sinr.accept(0, cand, d, 150.0, 1.0), sinr.accept(0, cand, d, 150.0, 1.0)
        )

    def test_dense_matrix_matches_accept(self):
        # The dense oracle predicate and the channel's per-sender
        # accept are the same verdict, row by row.
        n = 15
        rng = np.random.default_rng(8)
        pos = rng.uniform(0.0, 300.0, size=(n, 2))
        diff = pos[:, np.newaxis, :] - pos[np.newaxis, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        ranges = np.full(n, 150.0)
        for name in MODELS:
            model = make_propagation(name).bind(21)
            dense = in_range_matrix(model, dist, ranges, 2.5)
            for u in range(n):
                others = np.array([v for v in range(n) if v != u], dtype=np.intp)
                row = model.accept(u, others, dist[u, others], 150.0, 2.5)
                assert np.array_equal(dense[u, others], row), name

    def test_unit_disk_reference_semantics(self):
        model = UnitDisk()
        d = np.array([10.0, 150.0, 150.0 + 1e-9])
        assert model.query_radius(150.0) == 150.0
        assert model.accept(0, np.arange(1, 4), d, 150.0, 0.0).tolist() == [
            True, True, False,
        ]

    def test_sinr_probability_law(self):
        model = ProbabilisticSINR(midpoint=0.8, steepness=8.0, cutoff=1.2)
        r = 100.0
        p = model.success_probability(np.array([0.0, 80.0, 120.0 + 1e-9]), r)
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.5)
        assert p[2] == 0.0  # hard zero past cutoff

    def test_bind_changes_realisation_deterministically(self):
        cand = np.arange(1, 400, dtype=np.intp)
        d = np.linspace(1.0, 280.0, cand.size)
        a = LogDistance(sigma_db=6.0).bind(1).accept(0, cand, d, 150.0, 0.0)
        b = LogDistance(sigma_db=6.0).bind(2).accept(0, cand, d, 150.0, 0.0)
        c = LogDistance(sigma_db=6.0).bind(1).accept(0, cand, d, 150.0, 0.0)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestSnapshotModelConsistency:
    @pytest.mark.parametrize("model", MODELS)
    def test_dense_and_csr_in_range_agree(self, model):
        cfg = _config(propagation=model)
        world = _world(cfg, "view-sync", 17)
        world.run_until(4.0)
        snap = world.snapshot()
        # Independent oracle: the bound model's dense predicate over the
        # full distance matrix, not the snapshot's superset-radius route.
        expected = in_range_matrix(
            world._propagation,
            pairwise_distances(snap.positions),
            snap.extended_ranges,
            snap.time,
        )
        np.fill_diagonal(expected, False)
        assert expected.any()
        assert np.array_equal(snap.in_range_csr().to_dense(), expected)

    def test_deterministic_model_original_topology_is_mutual_subset(self):
        cfg = _config(propagation="log-distance")
        world = _world(cfg, "view-sync", 23)
        world.run_until(4.0)
        snap = world.snapshot()
        adj = snap.original_csr().to_dense()
        assert np.array_equal(adj, adj.T)
        assert not np.any(adj & (pairwise_distances(snap.positions) > cfg.normal_range))


# --------------------------------------------------------------------- #
# 4. oracle adaptation


class TestOracleAdaptation:
    def _built(self, propagation: str, **cfg_over) -> NetworkWorld:
        cfg = _config(propagation=propagation, **cfg_over)
        return _world(cfg, "view-sync", 31)

    def test_theorem5_slack_widens_only_for_stochastic_models(self):
        unit = self._built("unit-disk")
        shadow = self._built("log-distance")
        stochastic = self._built("sinr")
        base = theorem5_slack(unit)
        assert theorem5_slack(shadow) == pytest.approx(base)
        v_max = stochastic.mobility.max_speed()
        widened = theorem5_slack(stochastic)
        assert widened == pytest.approx(
            base + 2.0 * v_max * stochastic.config.max_hello_interval
        )
        assert widened > base

    def test_static_connectivity_oracle_stands_down_off_unit_disk(self):
        for model in MODELS:
            cfg = _config(propagation=model, duration=8.0)
            seeds = SeedSequenceFactory(7)
            from repro.mobility import StaticPlacement

            mobility = StaticPlacement(cfg.area, cfg.n_nodes, cfg.duration,
                                       rng=seeds.rng("m"))
            manager = MobilitySensitiveTopologyControl(
                RngProtocol(), mechanism=make_mechanism("view-sync"),
                buffer_policy=BufferZonePolicy(width=20.0, cap=cfg.normal_range),
            )
            world = NetworkWorld(cfg, mobility, manager, seed=7)
            world.run_until(cfg.duration)
            assert static_connectivity_oracle(world) == []


# --------------------------------------------------------------------- #
# 5. validation surface


class TestValidation:
    def test_registry_lists_all_models(self):
        assert available_propagation_models() == [
            "log-distance", "sinr", "unit-disk",
        ]

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown propagation model"):
            make_propagation("two-ray-ground")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            make_propagation("log-distance", gamma=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_invalid_path_loss_exponent_via_check_non_negative(self, bad):
        with pytest.raises(ConfigurationError, match="path_loss_exponent"):
            LogDistance(path_loss_exponent=bad)

    def test_zero_path_loss_exponent_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly positive"):
            LogDistance(path_loss_exponent=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma_db"):
            LogDistance(sigma_db=-2.0)

    def test_sinr_cutoff_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="cutoff"):
            ProbabilisticSINR(cutoff=0.9)

    def test_sinr_midpoint_above_cutoff_rejected(self):
        with pytest.raises(ConfigurationError, match="midpoint"):
            ProbabilisticSINR(midpoint=1.3, cutoff=1.2)

    def test_scenario_config_validates_at_construction(self):
        with pytest.raises(ConfigurationError, match="path_loss_exponent"):
            _config(propagation="log-distance",
                    propagation_params={"path_loss_exponent": float("nan")})

    def test_loss_rng_error_names_both_alternatives(self):
        # The teaching error must point at the FaultSchedule route AND
        # the propagation seam.
        with pytest.raises(ValueError) as exc:
            IdealChannel(hello_loss_rate=0.2)
        message = str(exc.value)
        assert "FaultSchedule" in message
        assert "propagation" in message
        assert "docs/PROPAGATION.md" in message

    def test_make_propagation_returns_shared_unit_disk(self):
        assert make_propagation("unit-disk") is UNIT_DISK

    def test_repr_names_the_class(self):
        assert repr(UnitDisk()) == "UnitDisk()"
        assert "LogDistance" in repr(LogDistance())
        assert "ProbabilisticSINR" in repr(ProbabilisticSINR())

    def test_base_class_methods_are_abstract(self):
        base = PropagationModel()
        with pytest.raises(NotImplementedError):
            base.query_radius(250.0)
        with pytest.raises(NotImplementedError):
            base.accept(0, np.array([1]), np.array([1.0]), 250.0, 0.0)

    def test_unit_disk_in_range_matrix_reference(self):
        # The fast paths special-case the unit disk, so pin the
        # reference method they are supposed to implement.
        dist = np.array([[0.0, 3.0], [3.0, 0.0]])
        out = in_range_matrix(UnitDisk(), dist, np.array([3.0, 2.0]), 0.0)
        assert out.tolist() == [[True, True], [False, True]]
