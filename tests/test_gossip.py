"""Anti-entropy gossip mechanism: digest/merge primitives, registry wiring,
world integration, determinism, mayday recovery, telemetry and overhead.

The property-based half (merge algebra, cache twins, fuzz oracle smoke)
lives in ``tests/test_property_gossip.py``; this file pins the concrete
contracts:

- the pure digest layer (:mod:`repro.gossip.digest`) — age filters,
  strictly-newer deltas, monotone merge, owner authority;
- the ``gossip`` registry entry, :func:`available_mechanisms`, and the
  :class:`ConfigurationError` surface for bad mechanism parameters;
- the world only arms a :class:`GossipEngine` when the mechanism is
  gossip, and ``RunStats.as_dict()`` grows gossip keys only then (every
  other mechanism's dict — and its pinned digests — stay byte-identical);
- same-seed runs are bit-identical, scalar and batched Hello pipelines
  agree, and exported stores are byte-equal across backends and worker
  counts;
- mayday recovery fires when a view goes silent while peers are in range;
- ``gossip_exchange`` / ``gossip_mayday`` are schema-valid event kinds and
  :meth:`EventLog.kind_counts` totals survive ring-buffer eviction.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.analysis.overhead_study import (
    STUDY_MECHANISMS,
    generate_overhead_study,
)
from repro.analysis.scales import Scale
from repro.core.consistency import (
    GossipConsistency,
    available_mechanisms,
    make_mechanism,
)
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.faults.fuzz import MECHANISMS as FUZZ_MECHANISMS
from repro.gossip import entries_newer_than, merge_entries, view_digest
from repro.metrics.overhead import measure_overhead
from repro.mobility.base import Area
from repro.orchestrator import OrchestrationContext, RunStore
from repro.sim.config import ScenarioConfig
from repro.telemetry import Telemetry
from repro.telemetry.events import EVENT_KINDS, EventLog, TelemetryEvent
from repro.telemetry.export import write_jsonl
from repro.telemetry.schema import validate_jsonl
from repro.util.errors import ConfigurationError, ViewError

TINY = ScenarioConfig(
    n_nodes=10,
    area=Area(285.0, 285.0),
    normal_range=250.0,
    duration=5.0,
    warmup=2.0,
    sample_rate=1.0,
)

GOSSIP_SPEC = ExperimentSpec(
    protocol="rng", mechanism="gossip", mean_speed=10.0, config=TINY
)


def _hello(sender: int, version: int, sent_at: float = 0.0) -> Hello:
    return Hello(
        sender=sender,
        version=version,
        position=(float(sender), float(version)),
        sent_at=sent_at,
        timestamp=sent_at,
    )


def _table(owner: int = 0) -> NeighborTable:
    return NeighborTable(owner, normal_range=250.0, history_depth=3, expiry=2.5)


# --------------------------------------------------------------------- #
# pure digest layer


class TestDigestLayer:
    def test_digest_includes_own_and_live_neighbors(self):
        table = _table(0)
        table.record_own(_hello(0, 4, sent_at=1.0))
        table.record_hello(_hello(1, 2, sent_at=1.0))
        table.record_hello(_hello(2, 7, sent_at=1.2))
        assert view_digest(table, now=1.5, removal_age=2.5) == {0: 4, 1: 2, 2: 7}

    def test_digest_age_filters_silent_peers(self):
        table = _table(0)
        table.record_hello(_hello(1, 2, sent_at=0.0))
        table.record_hello(_hello(2, 7, sent_at=9.0))
        assert view_digest(table, now=10.0, removal_age=2.5) == {2: 7}

    def test_empty_table_empty_digest(self):
        assert view_digest(_table(0), now=0.0, removal_age=2.5) == {}

    def test_entries_newer_than_strictly_newer_only(self):
        table = _table(0)
        table.record_own(_hello(0, 4, sent_at=1.0))
        table.record_hello(_hello(1, 2, sent_at=1.0))
        table.record_hello(_hello(2, 7, sent_at=1.0))
        # Peer already has version 4 of node 0 and version 3 of node 2;
        # only node 1 (unknown) and node 2 (older) are owed.
        delta = entries_newer_than(table, {0: 4, 2: 3}, now=1.5, removal_age=2.5)
        assert [(h.sender, h.version) for h in delta] == [(1, 2), (2, 7)]

    def test_entries_newer_than_empty_digest_ships_full_view(self):
        table = _table(0)
        table.record_own(_hello(0, 4, sent_at=1.0))
        table.record_hello(_hello(1, 2, sent_at=1.0))
        delta = entries_newer_than(table, {}, now=1.5, removal_age=2.5)
        assert [(h.sender, h.version) for h in delta] == [(0, 4), (1, 2)]

    def test_entries_newer_than_never_relays_expired(self):
        table = _table(0)
        table.record_hello(_hello(1, 2, sent_at=0.0))
        assert entries_newer_than(table, {}, now=10.0, removal_age=2.5) == ()

    def test_merge_records_only_strictly_newer(self):
        table = _table(0)
        table.record_hello(_hello(1, 3, sent_at=0.0))
        merged = merge_entries(
            table, (_hello(1, 2), _hello(1, 3), _hello(1, 5), _hello(2, 1))
        )
        assert merged == 2
        assert [h.version for h in table.history_of(1)] == [3, 5]
        assert [h.version for h in table.history_of(2)] == [1]

    def test_merge_skips_entries_about_the_owner(self):
        table = _table(0)
        assert merge_entries(table, (_hello(0, 9),)) == 0
        assert table.history_of(0) == ()

    def test_merge_is_idempotent(self):
        table = _table(0)
        entries = (_hello(1, 2), _hello(2, 7))
        assert merge_entries(table, entries) == 2
        assert merge_entries(table, entries) == 0
        assert view_digest(table, now=0.0, removal_age=2.5) == {1: 2, 2: 7}

    def test_merge_preserves_ascending_versions(self):
        table = _table(0)
        merge_entries(table, (_hello(1, 5),))
        merge_entries(table, (_hello(1, 2), _hello(1, 8)))
        versions = [h.version for h in table.history_of(1)]
        assert versions == sorted(versions) == [5, 8]


# --------------------------------------------------------------------- #
# registry


class TestRegistry:
    def test_available_mechanisms_sorted_and_complete(self):
        assert available_mechanisms() == (
            "baseline",
            "gossip",
            "proactive",
            "reactive",
            "view-sync",
            "weak",
        )

    def test_fuzzer_axis_derived_from_registry(self):
        assert FUZZ_MECHANISMS == available_mechanisms()

    def test_make_mechanism_gossip(self):
        mech = make_mechanism("gossip", fanout=3, interval=0.5)
        assert isinstance(mech, GossipConsistency)
        assert mech.name == "gossip"
        assert mech.fanout == 3
        assert mech.interval == 0.5
        assert not mech.recompute_on_packet

    def test_unknown_name_still_view_error(self):
        with pytest.raises(ViewError):
            make_mechanism("telepathy")

    def test_bad_parameters_name_the_accepted_ones(self):
        with pytest.raises(ConfigurationError) as err:
            make_mechanism("gossip", fanout=2, bogus=1, worse=2)
        message = str(err.value)
        assert "bogus" in message and "worse" in message
        assert "fanout" in message and "interval" in message

    def test_bad_parameters_for_parameterless_mechanism(self):
        with pytest.raises(ConfigurationError) as err:
            make_mechanism("view-sync", fanout=2)
        assert "fanout" in str(err.value)

    def test_staleness_bound(self):
        mech = make_mechanism("gossip", fanout=2, interval=0.5)
        # fanout+1 = 3 informed-set growth per round: 27 nodes need
        # ceil(log3 27) = 3 rounds, +1 for the round in flight.
        assert mech.staleness_bound(27) == pytest.approx(4 * 0.5)
        assert mech.staleness_bound(1) == mech.staleness_bound(2)
        big = make_mechanism("gossip")
        assert big.staleness_bound(1000) == pytest.approx(
            (math.ceil(math.log(1000) / math.log(3)) + 1) * 1.0
        )


# --------------------------------------------------------------------- #
# world wiring


class TestWorldWiring:
    def test_engine_armed_only_for_gossip(self):
        gossip = build_world(GOSSIP_SPEC, seed=3)
        other = build_world(GOSSIP_SPEC.with_(mechanism="view-sync"), seed=3)
        assert gossip.gossip is not None
        assert other.gossip is None
        assert other.gossip_stats() == {}

    def test_counters_advance(self):
        world = build_world(GOSSIP_SPEC, seed=3)
        world.run_until(4.0)
        stats = world.gossip_stats()
        assert stats["gossip_rounds"] > 0
        assert stats["gossip_messages"] > 0
        assert stats["gossip_merged"] > 0

    def test_run_stats_keys_conditional_on_mechanism(self):
        gossip = run_once(GOSSIP_SPEC, seed=3)
        other = run_once(GOSSIP_SPEC.with_(mechanism="view-sync"), seed=3)
        assert gossip.stats.gossip_armed
        assert "gossip_rounds" in gossip.stats.as_dict()
        assert not other.stats.gossip_armed
        assert not any(k.startswith("gossip") for k in other.stats.as_dict())

    def test_same_seed_bit_identical(self):
        a = run_once(GOSSIP_SPEC, seed=5)
        b = run_once(GOSSIP_SPEC, seed=5)
        assert a.stats.as_dict() == b.stats.as_dict()
        assert (a.delivery_ratios == b.delivery_ratios).all()
        assert (a.strict_connected == b.strict_connected).all()

    def test_scalar_and_batched_pipelines_agree(self):
        scalar = build_world(GOSSIP_SPEC, seed=5, hello_pipeline="scalar")
        batched = build_world(GOSSIP_SPEC, seed=5, hello_pipeline="batched")
        scalar.run_until(4.0)
        batched.run_until(4.0)
        assert scalar.gossip_stats() == batched.gossip_stats()
        assert (
            scalar.channel.stats.as_dict() == batched.channel.stats.as_dict()
        )
        now = scalar.engine.now
        for s, b in zip(scalar.nodes, batched.nodes):
            assert s.table.live_view_token(now)[1:] == b.table.live_view_token(now)[1:]

    def test_mayday_fires_when_view_stays_silent(self):
        # Near-total Hello loss: tables essentially only fill through
        # gossip, so views start silent while peers are in range — the
        # mayday path must fire and recover views from peers' own records.
        config = ScenarioConfig(
            n_nodes=8,
            area=Area(200.0, 200.0),
            normal_range=250.0,
            duration=4.0,
            warmup=1.0,
            sample_rate=1.0,
            hello_loss_rate=0.99,
        )
        spec = ExperimentSpec(
            protocol="rng",
            mechanism="gossip",
            mechanism_kwargs={"interval": 0.2, "mayday_after": 0.1},
            mean_speed=1.0,
            config=config,
        )
        tel = Telemetry()
        world = build_world(spec, seed=11, telemetry=tel)
        world.run_until(3.0)
        assert world.gossip.maydays > 0
        # Recovery worked: merged entries gave at least one node a view.
        assert world.gossip.merged > 0
        assert tel.events.kind_counts().get("gossip_mayday", 0) > 0

    def test_engine_staleness_bound_delegates_to_mechanism(self):
        world = build_world(GOSSIP_SPEC, seed=3)
        mech = world.manager.mechanism
        assert world.gossip.staleness_bound() == mech.staleness_bound(
            world.config.n_nodes
        )

    def test_two_node_world_gossips_with_its_only_peer(self):
        # peers <= fanout: the round takes every peer instead of sampling.
        config = ScenarioConfig(
            n_nodes=2,
            area=Area(100.0, 100.0),
            normal_range=250.0,
            duration=4.0,
            warmup=1.0,
            sample_rate=1.0,
        )
        spec = GOSSIP_SPEC.with_(config=config)
        world = build_world(spec, seed=2)
        world.run_until(3.0)
        assert world.gossip.rounds > 0
        assert world.gossip.messages > 0
        # Nothing to merge: with one peer, every entry gossip could relay
        # already arrived by direct Hello first (merge is strictly-newer).
        assert world.gossip.merged == 0

    def test_down_nodes_neither_round_nor_answer(self):
        # Outage windows overlap in-flight exchanges and maydays, so every
        # node-down guard in the engine fires; the run must stay
        # deterministic and complete (near-total Hello loss keeps the
        # mayday path busy at the same time).
        from repro.faults.schedule import FaultSchedule, NodeOutage

        config = ScenarioConfig(
            n_nodes=8,
            area=Area(200.0, 200.0),
            normal_range=250.0,
            duration=4.0,
            warmup=1.0,
            sample_rate=1.0,
            hello_loss_rate=0.99,
        )
        spec = ExperimentSpec(
            protocol="rng",
            mechanism="gossip",
            mechanism_kwargs={"interval": 0.2, "mayday_after": 0.1},
            mean_speed=1.0,
            config=config,
        )
        sched = FaultSchedule(
            events=(
                NodeOutage(node=0, start=0.0, end=2.0),
                NodeOutage(node=1, start=0.5, end=3.0),
                NodeOutage(node=2, start=1.0, end=1.5),
            )
        )

        def stats_of(seed):
            world = build_world(spec, seed, faults=sched)
            world.run_until(3.5)
            return world.gossip_stats()

        first = stats_of(11)
        assert first["gossip_rounds"] > 0
        assert first == stats_of(11)

    def test_overhead_report_gossip_rate(self):
        world = build_world(GOSSIP_SPEC, seed=3)
        world.run_until(4.0)
        report = measure_overhead(world)
        assert report.gossip_rate > 0.0
        assert report.row()["gossip_per_node_s"] == report.gossip_rate
        quiet = build_world(GOSSIP_SPEC.with_(mechanism="view-sync"), seed=3)
        quiet.run_until(4.0)
        assert measure_overhead(quiet).gossip_rate == 0.0


# --------------------------------------------------------------------- #
# export determinism across backends / worker counts


class TestExportDeterminism:
    def test_export_bytes_identical_across_backends(self, tmp_path):
        specs = [GOSSIP_SPEC]
        exports = []
        for name, kwargs in (
            ("queue1", {"backend": "queue", "workers": 1}),
            ("queue2", {"backend": "queue", "workers": 2}),
            ("inproc", {"backend": "inprocess"}),
        ):
            store = RunStore(tmp_path / f"{name}.db")
            with OrchestrationContext(store=store, **kwargs) as ctx:
                ctx.run_spec_batch(specs, repetitions=2, base_seed=90)
            out = tmp_path / f"{name}.jsonl"
            store.export_jsonl(out, deterministic=True)
            exports.append(out.read_bytes())
        assert exports[0] == exports[1] == exports[2]


# --------------------------------------------------------------------- #
# telemetry: taxonomy, schema, eviction-proof tallies


class TestGossipTelemetry:
    def test_new_kinds_in_taxonomy(self):
        assert "gossip_exchange" in EVENT_KINDS
        assert "gossip_mayday" in EVENT_KINDS

    def test_gossip_run_emits_schema_valid_events(self, tmp_path):
        tel = Telemetry()
        world = build_world(GOSSIP_SPEC, seed=3, telemetry=tel)
        world.run_until(4.0)
        counts = tel.events.kind_counts()
        assert counts.get("gossip_exchange", 0) > 0
        path = tmp_path / "gossip.jsonl"
        write_jsonl(path, tel)
        assert validate_jsonl(path) == []

    def test_mayday_event_schema_valid(self, tmp_path):
        tel = Telemetry()
        tel.event("gossip_mayday", t=1.25, node=3, peers=4)
        path = tmp_path / "mayday.jsonl"
        write_jsonl(path, tel)
        assert validate_jsonl(path) == []

    def test_kind_counts_survive_ring_buffer_eviction(self):
        log = EventLog(maxsize=4)
        for i in range(9):
            log.append(TelemetryEvent(kind="gossip_exchange", t=float(i), node=i))
        log.append(TelemetryEvent(kind="gossip_mayday", t=9.0, node=9))
        assert len(log) == 4  # only the newest four retained
        assert log.kind_counts() == {"gossip_exchange": 9, "gossip_mayday": 1}
        assert log.recorded == 10
        assert log.dropped == 6


# --------------------------------------------------------------------- #
# overhead study figure


class TestOverheadStudy:
    def test_rows_cover_the_mechanism_axis(self):
        scale = Scale(
            name="tiny",
            n_nodes=10,
            area_side=285.0,
            duration=5.0,
            sample_rate=1.0,
            repetitions=1,
        )
        result = generate_overhead_study(scale, base_seed=42, workers=1)
        rows = result.rows()
        assert [r["mechanism"] for r in rows] == list(STUDY_MECHANISMS)
        by_mech = {r["mechanism"]: r for r in rows}
        assert by_mech["gossip"]["gossip_per_node_s"] > 0.0
        for name in ("baseline", "view-sync", "proactive", "reactive"):
            assert by_mech[name]["gossip_per_node_s"] == 0.0
        for row in rows:
            assert row["control_per_node_s"] == pytest.approx(
                row["hello_per_node_s"]
                + row["sync_per_node_s"]
                + row["gossip_per_node_s"]
            )
        assert not result.series
        assert "gossip" in result.format()
