"""Tests for the write-stamp decision cache.

Two layers:

- manager-level invalidation semantics on hand-built tables — every input
  the mechanisms declare must flip a hit into a miss when it changes;
- world-level equivalence — simulations at every mechanism x protocol pair
  must produce bit-identical metrics with the cache on and off, and
  packet-time recomputation between Hello generations must be all hits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_hello
from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.analysis.scales import Scale
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import (
    BaselineConsistency,
    ConsistencyMechanism,
    ProactiveConsistency,
    ViewSynchronization,
    available_mechanisms,
    make_mechanism,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import NeighborTable
from repro.protocols.rng import RngProtocol
from repro.telemetry import Telemetry

TINY = Scale(
    name="tiny",
    n_nodes=16,
    area_side=360.0,  # 8100 m^2 per node, the paper's density
    duration=4.0,
    sample_rate=1.0,
    warmup=2.0,
    repetitions=1,
)


def make_table(owner: int = 0, expiry: float = 2.5) -> NeighborTable:
    table = NeighborTable(owner, normal_range=100.0, expiry=expiry)
    table.record_own(make_hello(owner, (0.0, 0.0), version=1, sent_at=0.0))
    table.record_hello(make_hello(1, (30.0, 0.0), version=1, sent_at=0.0))
    table.record_hello(make_hello(2, (0.0, 40.0), version=1, sent_at=0.0))
    return table


def make_manager(mechanism=None, **kwargs) -> MobilitySensitiveTopologyControl:
    return MobilitySensitiveTopologyControl(
        RngProtocol(), mechanism=mechanism or ViewSynchronization(), **kwargs
    )


class TestCacheHits:
    def test_identical_inputs_hit(self):
        manager = make_manager()
        table = make_table()
        position = (1.0, 1.0)
        first = manager.decide(table, 1.0, position)
        second = manager.decide(table, 1.0, position)
        assert manager.cache_misses == 1
        assert manager.cache_hits == 1
        assert first == second

    def test_hit_refreshes_decided_at_only(self):
        manager = make_manager()
        table = make_table()
        position = (1.0, 1.0)
        first = manager.decide(table, 1.0, position)
        later = manager.decide(table, 1.5, position)
        assert manager.cache_hits == 1
        assert later.decided_at == 1.5
        assert later.logical_neighbors == first.logical_neighbors
        assert later.actual_range == first.actual_range
        assert later.extended_range == first.extended_range

    def test_view_sync_ignores_current_position_drift(self):
        # view-sync decides from the *advertised* own position, so a moving
        # node still hits between Hello generations (the redecide_all case)
        manager = make_manager()
        table = make_table()
        manager.decide(table, 1.0, (1.0, 0.0))
        manager.decide(table, 1.2, (5.0, 0.0))
        assert manager.cache_hits == 1

    def test_disabled_cache_never_counts(self):
        manager = make_manager(decision_cache=False)
        table = make_table()
        position = (1.0, 1.0)
        manager.decide(table, 1.0, position)
        manager.decide(table, 1.0, position)
        assert manager.cache_info() == {
            "decision_cache_hits": 0,
            "decision_cache_misses": 0,
            "decision_cache_uncacheable": 0,
        }

    def test_uncacheable_mechanism_counts(self):
        class Opaque(BaselineConsistency):
            cacheable = False

        manager = make_manager(mechanism=Opaque())
        table = make_table()
        position = (0.0, 0.0)
        manager.decide(table, 1.0, position)
        manager.decide(table, 1.0, position)
        assert manager.cache_uncacheable == 2
        assert manager.cache_hits == 0


class TestCacheInvalidation:
    def test_new_hello_misses(self):
        manager = make_manager()
        table = make_table()
        position = (1.0, 1.0)
        manager.decide(table, 1.0, position)
        table.record_hello(make_hello(1, (35.0, 0.0), version=2, sent_at=1.1))
        manager.decide(table, 1.2, position)
        assert manager.cache_hits == 0
        assert manager.cache_misses == 2

    def test_expired_entry_misses(self):
        manager = make_manager()
        table = make_table()
        position = (1.0, 1.0)
        first = manager.decide(table, 1.0, position)
        assert 1 in first.logical_neighbors or 2 in first.logical_neighbors
        # no mutation — neighbors expire purely by time passing (> 2.5 s)
        stale = manager.decide(table, 4.0, position)
        assert manager.cache_hits == 0
        assert manager.cache_misses == 2
        assert stale.logical_neighbors == frozenset()

    def test_buffer_width_change_misses(self):
        manager = make_manager()
        table = make_table()
        position = (1.0, 1.0)
        narrow = manager.decide(table, 1.0, position)
        manager.buffer_policy = BufferZonePolicy(width=10.0, cap=250.0)
        wide = manager.decide(table, 1.0, position)
        assert manager.cache_hits == 0
        assert manager.cache_misses == 2
        assert wide.extended_range == pytest.approx(narrow.extended_range + 10.0)

    def test_version_override_misses(self):
        manager = make_manager(mechanism=ProactiveConsistency())
        table = make_table()
        table.record_own(make_hello(0, (2.0, 0.0), version=2, sent_at=1.0))
        table.record_hello(make_hello(1, (32.0, 0.0), version=2, sent_at=1.0))
        table.record_hello(make_hello(2, (0.0, 42.0), version=2, sent_at=1.0))
        position = (2.0, 0.0)
        manager.decide(table, 1.5, position, version=1)
        manager.decide(table, 1.5, position, version=2)
        assert manager.cache_misses == 2
        manager.decide(table, 1.5, position, version=2)
        assert manager.cache_hits == 1

    def test_baseline_misses_when_own_position_moves(self):
        manager = make_manager(mechanism=BaselineConsistency())
        table = make_table()
        manager.decide(table, 1.0, (0.0, 0.0))
        manager.decide(table, 1.2, (3.0, 0.0))
        assert manager.cache_misses == 2

    def test_expiry_is_exact_in_both_directions_of_time(self):
        # Neighbor 1 was heard at 0.0, neighbor 2 at 1.0; expiry 2.5.  The
        # stamp holds while the live set is the one the decision read,
        # whichever way time moves, and falls as soon as it differs.
        manager = make_manager()
        table = NeighborTable(0, normal_range=100.0, expiry=2.5)
        table.record_own(make_hello(0, (0.0, 0.0), version=1, sent_at=0.0))
        table.record_hello(make_hello(1, (30.0, 0.0), version=1, sent_at=0.0))
        table.record_hello(make_hello(2, (0.0, 40.0), version=1, sent_at=1.0))
        position = (0.0, 0.0)
        manager.decide(table, 2.0, position)  # both live
        for now, hit in ((2.5, True), (1.0, True), (2.6, False), (2.0, True),
                         (3.6, False)):
            before = manager.cache_hits
            manager.decide(table, now, position)
            assert (manager.cache_hits > before) is hit, now
            if not hit:
                manager.decide(table, 2.0, position)  # restore the both-live stamp

    def test_decide_many_hits_like_decide(self):
        # Same stamps, same counters and the same event stream, in owner
        # order: one decide per owner and one decide_many.
        owners = (0, 3, 4, 5, 6)
        tables = [make_table(owner) for owner in owners]
        positions = [(1.0, 1.0)] * len(owners)
        single, batched = make_manager(), make_manager()
        for manager in (single, batched):
            for table, position in zip(tables, positions):
                manager.decide(table, 1.0, position)
            manager.attach_telemetry(Telemetry())
        tables[1].record_hello(make_hello(1, (35.0, 0.0), version=2, sent_at=1.1))
        tables[3].record_hello(make_hello(1, (35.0, 0.0), version=2, sent_at=1.1))
        want = [single.decide(t, 1.2, p) for t, p in zip(tables, positions)]
        assert batched.decide_many(tables, 1.2, positions) == want
        assert batched.cache_info() == single.cache_info()
        assert single.cache_hits == 3 and single.cache_misses == 7

        def trace(manager):
            return [
                (e.kind, e.as_dict()["node"], e.as_dict().get("outcome"))
                for e in manager._telemetry.events
            ]

        assert trace(batched) == trace(single)
        assert [kind for kind, _, _ in trace(single)] == [
            "decision_cache_hit",
            "decision_cache_miss",
            "decision_cache_hit",
            "decision_cache_miss",
            "decision_cache_hit",
        ]

    def test_mechanisms_opt_in_to_the_cache(self):
        class Timed(ConsistencyMechanism):
            baseline = BaselineConsistency()

            def resolve(self, table, position, version):
                return self.baseline.resolve(table, position, None)

            def members(self, tables, now, versions):
                return self.baseline.members(tables, now, versions)

            def select(self, protocol, views):
                return self.baseline.select(protocol, views)

        assert not Timed.cacheable
        for name in available_mechanisms():
            assert make_mechanism(name).cacheable, name
        manager = make_manager(mechanism=Timed())
        table = make_table()
        position = (0.0, 0.0)
        manager.decide(table, 1.0, position)
        manager.decide_many([table], 1.0, [position])
        assert manager.cache_uncacheable == 2
        assert manager.cache_hits == manager.cache_misses == 0

    def test_versioned_views_ignore_the_expiry_window(self):
        manager = make_manager(mechanism=ProactiveConsistency())
        table = make_table(expiry=1.0)
        manager.decide(table, 0.5, None, version=1)
        manager.decide(table, 50.0, None, version=1)
        assert manager.cache_hits == 1

    def test_two_tables_same_owner_do_not_alias(self):
        manager = make_manager()
        a, b = make_table(), make_table()
        position = (1.0, 1.0)
        manager.decide(a, 1.0, position)
        manager.decide(b, 1.0, position)
        assert manager.cache_hits == 0
        assert manager.cache_misses == 2


def _world_decisions(world) -> list:
    return [
        (
            node.node_id,
            None
            if node.decision is None
            else (
                node.decision.logical_neighbors,
                node.decision.actual_range,
                node.decision.extended_range,
            ),
        )
        for node in world.nodes
    ]


class TestWorldLevelCache:
    def test_redecide_all_between_hellos_is_all_hits(self):
        spec = ExperimentSpec(
            protocol="rng",
            mechanism="view-sync",
            mean_speed=20.0,
            config=TINY.config(),
        )
        world = build_world(spec, seed=5)
        world.run_until(2.5)
        world.redecide_all()  # warm: standing results enter the cache
        baseline = _world_decisions(world)
        hits_before = world.manager.cache_hits
        misses_before = world.manager.cache_misses
        world.redecide_all()
        assert world.manager.cache_hits == hits_before + len(world.nodes)
        assert world.manager.cache_misses == misses_before
        assert _world_decisions(world) == baseline

    @pytest.mark.parametrize(
        "mechanism", ["baseline", "view-sync", "proactive", "reactive", "weak"]
    )
    @pytest.mark.parametrize("protocol", ["rng", "spt2", "mst"])
    def test_run_once_identical_cache_on_and_off(
        self, mechanism, protocol, monkeypatch
    ):
        spec = ExperimentSpec(
            protocol=protocol,
            mechanism=mechanism,
            buffer_width=10.0,
            mean_speed=20.0,
            config=TINY.config(),
        )
        cached = run_once(spec, seed=9)
        monkeypatch.setattr(
            MobilitySensitiveTopologyControl, "decision_cache_default", False
        )
        uncached = run_once(spec, seed=9)
        assert np.array_equal(cached.delivery_ratios, uncached.delivery_ratios)
        assert np.array_equal(cached.mean_actual_ranges, uncached.mean_actual_ranges)
        assert np.array_equal(
            cached.mean_extended_ranges, uncached.mean_extended_ranges
        )
        assert np.array_equal(cached.mean_logical_degrees, uncached.mean_logical_degrees)
        assert np.array_equal(
            cached.mean_physical_degrees, uncached.mean_physical_degrees
        )
        assert np.array_equal(cached.strict_connected, uncached.strict_connected)
        for key, value in uncached.stats.as_dict().items():
            if not key.startswith("decision_cache_"):
                assert cached.stats.as_dict()[key] == value
        assert uncached.stats.decision_cache_hits == 0
        assert uncached.stats.decision_cache_misses == 0


class TestCacheUnderHelloLoss:
    """Property: lossy channels must not perturb cache equivalence.

    Hello loss changes *when* tables mutate, which is exactly the input
    the stamps must pin; if any stamp missed a loss-dependent input, the
    cached run would diverge from the uncached one.  Hypothesis drives mechanism x protocol under randomized nonzero
    ``hello_loss_rate`` and seeds, asserting bit-identical decisions.
    """

    @staticmethod
    def _final_decisions(mechanism, protocol, loss_rate, seed, cache_enabled):
        spec = ExperimentSpec(
            protocol=protocol,
            mechanism=mechanism,
            buffer_width=10.0,
            mean_speed=20.0,
            config=TINY.config(hello_loss_rate=loss_rate),
        )
        world = build_world(spec, seed=seed)
        world.manager.decision_cache_enabled = cache_enabled
        states = []
        for t in (2.0, 3.0, 4.0):
            world.run_until(t)
            world.redecide_all()
            states.append(_world_decisions(world))
        return states, world.channel.stats.as_dict()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        mechanism=st.sampled_from(
            ["baseline", "view-sync", "proactive", "reactive", "weak"]
        ),
        protocol=st.sampled_from(["rng", "spt2", "mst"]),
        loss_rate=st.floats(min_value=0.05, max_value=0.6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_cache_on_off_bit_identical_under_loss(
        self, mechanism, protocol, loss_rate, seed
    ):
        cached, cached_stats = self._final_decisions(
            mechanism, protocol, loss_rate, seed, cache_enabled=True
        )
        uncached, uncached_stats = self._final_decisions(
            mechanism, protocol, loss_rate, seed, cache_enabled=False
        )
        assert cached == uncached
        # the channel itself (losses included) must be untouched by caching
        assert cached_stats == uncached_stats
        assert cached_stats["hello_losses"] > 0, "loss rate must actually bite"
