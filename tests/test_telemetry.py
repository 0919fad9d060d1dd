"""Tests for repro.telemetry: registry, spans, events, exporters, seams."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, run_once
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.telemetry import (
    EVENT_KINDS,
    NULL_TELEMETRY,
    EventLog,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    TelemetryEvent,
    TelemetrySummary,
    current_telemetry,
    summary_table,
    use_telemetry,
    validate_jsonl,
    write_jsonl,
    write_phase_timings,
)
from repro.telemetry.export import PHASES_SCHEMA, SCHEMA
from repro.telemetry.registry import Counter, Gauge, Histogram
from repro.telemetry.schema import main as schema_main
from repro.telemetry.schema import validate_records


# --------------------------------------------------------------------- #
# registry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_and_inc_both_ways(self):
        g = Gauge()
        g.set(10.0)
        g.inc(-3.0)
        assert g.value == 7.0


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == 2.5
        assert h.std == pytest.approx(math.sqrt(1.25))

    def test_empty_histogram(self):
        h = Histogram()
        assert math.isnan(h.mean) and math.isnan(h.std)
        assert h.as_dict() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "sumsq": 0.0,
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("drops", reason="loss").inc(2)
        reg.counter("drops", reason="fault").inc(5)
        assert reg.counter("drops", reason="loss").value == 2
        assert reg.counters_dict() == {
            "drops{reason=fault}": 5.0,
            "drops{reason=loss}": 2.0,
        }

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1.0

    def test_rows_sorted_counters_then_gauges_then_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        reg.gauge("g").set(2.0)
        reg.counter("z").inc()
        reg.counter("a").inc()
        kinds = [type(inst).__name__ for _, _, inst in reg.rows()]
        names = [name for name, _, _ in reg.rows()]
        assert kinds == ["Counter", "Counter", "Gauge", "Histogram"]
        assert names == ["a", "z", "g", "h"]

    def test_len_counts_every_series(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1)
        reg.histogram("c").observe(1)
        assert len(reg) == 3


# --------------------------------------------------------------------- #
# events


class TestEventLog:
    def test_appends_and_iterates_in_order(self):
        log = EventLog(maxsize=10)
        for i in range(3):
            log.append(TelemetryEvent(kind="hello_sent", t=float(i)))
        assert [e.t for e in log] == [0.0, 1.0, 2.0]
        assert log.recorded == 3 and log.dropped == 0

    def test_ring_buffer_evicts_oldest_but_keeps_exact_tallies(self):
        log = EventLog(maxsize=2)
        for i in range(5):
            log.append(TelemetryEvent(kind="hello_sent", t=float(i)))
        assert len(log) == 2
        assert [e.t for e in log] == [3.0, 4.0]
        assert log.recorded == 5 and log.dropped == 3
        assert log.kind_counts() == {"hello_sent": 5}

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            EventLog(maxsize=0)

    def test_tally_records_one_summarizing_event(self):
        log = EventLog(maxsize=10)
        log.append(TelemetryEvent(kind="hello_received", t=1.0), tally=5)
        assert len(log) == 1
        # Kind totals advance by the tally; the 4 unretained occurrences
        # use the absorb_counts recorded-but-not-retained accounting.
        assert log.kind_counts() == {"hello_received": 5}
        assert log.recorded == 5 and log.dropped == 4

    def test_tally_validated(self):
        log = EventLog(maxsize=10)
        with pytest.raises(ValueError, match="tally"):
            log.append(TelemetryEvent(kind="hello_received", t=1.0), tally=0)

    def test_tally_composes_with_ring_eviction(self):
        log = EventLog(maxsize=1)
        log.append(TelemetryEvent(kind="hello_received", t=0.0), tally=3)
        log.append(TelemetryEvent(kind="hello_received", t=1.0), tally=2)
        assert [e.t for e in log] == [1.0]
        assert log.recorded == 5
        # 2 + 1 unretained tallies plus the one evicted event object.
        assert log.dropped == 4
        assert log.kind_counts() == {"hello_received": 5}

    def test_event_as_dict_inlines_data(self):
        event = TelemetryEvent(
            kind="hello_dropped", t=1.5, node=3, data=(("count", 2), ("reason", "loss"))
        )
        assert event.as_dict() == {
            "kind": "hello_dropped", "t": 1.5, "node": 3,
            "data": {"count": 2, "reason": "loss"},
        }

    def test_run_level_event_omits_node_and_data(self):
        assert TelemetryEvent(kind="run_start", t=0.0).as_dict() == {
            "kind": "run_start", "t": 0.0,
        }


# --------------------------------------------------------------------- #
# telemetry facade: spans, summary, null twin


class TestSpans:
    def test_span_counts_and_times(self):
        tel = Telemetry()
        with tel.span("outer"):
            pass
        with tel.span("outer"):
            pass
        stats = tel.spans["outer"]
        assert stats.count == 2
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.max_s

    def test_nested_spans_attribute_child_time_to_self(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                x = 0
                for i in range(20000):
                    x += i
        outer, inner = tel.spans["outer"], tel.spans["inner"]
        # outer's self time excludes the inner span entirely
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
        assert inner.self_s == pytest.approx(inner.total_s)

    def test_span_survives_exceptions(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("risky"):
                raise RuntimeError("boom")
        assert tel.spans["risky"].count == 1


class TestTelemetrySummary:
    def _populated(self) -> Telemetry:
        tel = Telemetry(max_events=4)
        tel.count("hello_sent", 3)
        tel.count("hello_dropped", 2, reason="loss")
        tel.gauge("pending", 7)
        tel.observe("latency", 0.5)
        with tel.span("decide"):
            pass
        for i in range(6):
            tel.event("hello_sent", t=float(i), node=i)
        return tel

    def test_summary_covers_every_instrument_kind(self):
        s = self._populated().summary()
        assert dict(s.counters) == {"hello_sent": 3.0, "hello_dropped{reason=loss}": 2.0}
        assert dict(s.gauges) == {"pending": 7.0}
        assert "latency" in dict(s.histograms)
        assert "decide" in dict(s.spans)
        assert dict(s.event_counts) == {"hello_sent": 6}
        assert s.events_recorded == 6 and s.events_dropped == 2

    def test_summary_is_hashable_and_literal_eval_safe(self):
        import ast

        s = self._populated().summary()
        hash(s)  # frozen tuples all the way down
        round_tripped = ast.literal_eval(repr(s.as_dict()))
        assert round_tripped == s.as_dict()


class TestEventBatch:
    def test_summary_event_carries_data_and_tally(self):
        tel = Telemetry()
        tel.event_batch("hello_received", 7, t=1.5, sender=3, version=2, count=7)
        (event,) = list(tel.events)
        assert event.kind == "hello_received" and event.t == 1.5
        assert dict(event.data) == {"sender": 3, "version": 2, "count": 7}
        assert tel.events.kind_counts() == {"hello_received": 7}

    def test_batch_of_one_equals_plain_event(self):
        a, b = Telemetry(), Telemetry()
        a.event("hello_received", t=2.0, node=1, sender=0)
        b.event_batch("hello_received", 1, t=2.0, node=1, sender=0)
        assert list(a.events) == list(b.events)
        assert a.events.kind_counts() == b.events.kind_counts()


class TestAbsorbMergeExactness:
    def test_merged_histogram_std_is_exact(self):
        whole = Telemetry()
        for v in (1.0, 2.0, 7.0, 9.0, 100.0):
            whole.observe("latency", v)
        parent = Telemetry()
        left, right = Telemetry(), Telemetry()
        for v in (1.0, 2.0):
            left.observe("latency", v)
        for v in (7.0, 9.0, 100.0):
            right.observe("latency", v)
        parent.absorb(left.summary())
        parent.absorb(right.summary())
        merged = parent.registry.histogram("latency")
        reference = whole.registry.histogram("latency")
        assert merged.sumsq == reference.sumsq
        assert merged.std == reference.std

    def test_absorb_tolerates_summaries_without_sumsq(self):
        # Stored summaries written before sumsq existed fall back to the
        # documented lower bound (spread folded at the worker's mean).
        worker = Telemetry()
        worker.observe("latency", 2.0)
        worker.observe("latency", 4.0)
        summary = worker.summary()
        trimmed = summary.as_dict()
        for name, stats in trimmed["histograms"].items():
            stats.pop("sumsq")
        parent = Telemetry()
        parent.absorb(TelemetrySummary.from_dict(trimmed))
        hist = parent.registry.histogram("latency")
        assert hist.count == 2 and hist.total == 6.0
        assert hist.sumsq == 2 * 3.0**2  # count * mean^2, the lower bound

    def test_sourced_gauge_merge_is_order_independent(self):
        summaries = []
        for seed, depth in [(3, 5.0), (1, 9.0), (2, 7.0)]:
            worker = Telemetry()
            worker.gauge("depth", depth)
            summaries.append((seed, worker.summary()))
        forward, backward = Telemetry(), Telemetry()
        for seed, summary in summaries:
            forward.absorb(summary, source=seed)
        for seed, summary in reversed(summaries):
            backward.absorb(summary, source=seed)
        # max (source, value) pair wins: seed 3 carries depth 5.0.
        assert forward.registry.gauge("depth").value == 5.0
        assert backward.registry.gauge("depth").value == 5.0

    def test_unsourced_gauge_merge_stays_last_writer(self):
        a, b = Telemetry(), Telemetry()
        a.gauge("depth", 5.0)
        b.gauge("depth", 2.0)
        parent = Telemetry()
        parent.absorb(a.summary())
        parent.absorb(b.summary())
        assert parent.registry.gauge("depth").value == 2.0


class TestNullTelemetry:
    def test_disabled_and_records_nothing(self):
        tel = NullTelemetry()
        assert not tel.enabled
        tel.count("x")
        tel.gauge("y", 1.0)
        tel.observe("z", 2.0)
        tel.event("hello_sent", t=0.0)
        tel.event_batch("hello_received", 4, t=0.0)
        with tel.span("phase"):
            pass
        s = tel.summary()
        assert s.counters == () and s.spans == ()
        assert s.events_recorded == 0

    def test_null_span_is_shared(self):
        tel = NullTelemetry()
        assert tel.span("a") is tel.span("b")

    def test_module_singleton(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)


class TestRuntime:
    def test_use_telemetry_installs_and_restores(self):
        assert current_telemetry() is None
        tel = Telemetry()
        with use_telemetry(tel) as installed:
            assert installed is tel
            assert current_telemetry() is tel
        assert current_telemetry() is None

    def test_nesting_restores_outer(self):
        outer, inner = Telemetry(), Telemetry()
        with use_telemetry(outer):
            with use_telemetry(inner):
                assert current_telemetry() is inner
            assert current_telemetry() is outer


# --------------------------------------------------------------------- #
# exporters + schema


def _traced_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.count("hello_sent", 4)
    tel.count("hello_dropped", 1, reason="fault")
    tel.gauge("pending", 3)
    tel.observe("latency", 0.25)
    with tel.span("engine_run"):
        pass
    tel.event("hello_sent", t=1.0, node=0, version=2, receivers=3)
    tel.event("fault", t=2.0, node=1, action="hello_drops", count=1)
    return tel


class TestJsonlExport:
    def test_written_stream_is_schema_valid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        lines = write_jsonl(path, _traced_telemetry(), meta={"seed": 1})
        assert lines == len(path.read_text().splitlines())
        assert validate_jsonl(path) == []

    def test_header_and_summary_bracket_the_stream(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, _traced_telemetry())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["record"] == "header"
        assert records[0]["schema"] == SCHEMA
        assert records[-1]["record"] == "summary"
        kinds = {r["record"] for r in records}
        assert kinds == {"header", "metric", "span", "event", "summary"}

    def test_append_creates_multi_block_file(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        write_jsonl(path, _traced_telemetry(), meta={"run": 1})
        write_jsonl(path, _traced_telemetry(), meta={"run": 2}, append=True)
        assert validate_jsonl(path) == []
        headers = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["record"] == "header"
        ]
        assert [h["meta"]["run"] for h in headers] == [1, 2]

    def test_phase_timings_artifact(self, tmp_path):
        path = tmp_path / "phases.json"
        doc = write_phase_timings(path, _traced_telemetry(), meta={"cmd": "run"})
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert doc["schema"] == PHASES_SCHEMA
        assert set(doc["phases"]) == {"engine_run"}
        assert set(doc["phases"]["engine_run"]) == {
            "count", "total_s", "self_s", "mean_s", "min_s", "max_s",
        }


class TestSummaryTable:
    def test_contains_all_sections(self):
        text = summary_table(_traced_telemetry(), title="unit")
        assert text.startswith("unit\n====")
        assert "hello_dropped{reason=fault}" in text
        assert "engine_run" in text
        assert "event kind" in text
        assert "events retained: 2 / recorded 2 (dropped 0)" in text

    def test_empty_telemetry_says_so(self):
        assert "(no telemetry recorded)" in summary_table(Telemetry())


class TestSchemaValidation:
    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "summary"}\n')
        errors = validate_jsonl(path)
        assert any("must start with a header" in e for e in errors)

    def test_rejects_wrong_schema_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"record": "header", "schema": "other/9"}\n'
            '{"record": "summary", "events_recorded": 0, "events_dropped": 0, '
            '"event_counts": {}}\n'
        )
        errors = validate_jsonl(path)
        assert any("schema must be" in e for e in errors)

    def test_rejects_unknown_event_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"record": "header", "schema": SCHEMA, "meta": {}}) + "\n"
            + json.dumps({"record": "event", "kind": "meteor_strike", "t": 1.0}) + "\n"
            + json.dumps(
                {"record": "summary", "events_recorded": 1, "events_dropped": 0,
                 "event_counts": {"meteor_strike": 1}}
            ) + "\n"
        )
        errors = validate_jsonl(path)
        assert any("unknown event kind 'meteor_strike'" in e for e in errors)

    def test_rejects_invalid_json_and_missing_summary(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"record": "header", "schema": SCHEMA, "meta": {}}) + "\n"
            "not json\n"
        )
        errors = validate_jsonl(path)
        assert any("invalid JSON" in e for e in errors)
        assert any("end with a summary" in e for e in errors)

    def test_empty_file_is_invalid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_jsonl(path) == ["file contains no records"]

    def test_empty_block_is_a_noop(self):
        errors: list[str] = []
        validate_records([], errors)
        assert errors == []

    def test_malformed_metric_records(self):
        header = (1, {"record": "header", "schema": SCHEMA})
        summary = (9, {"record": "summary", "events_recorded": 0,
                       "events_dropped": 0, "event_counts": {}})
        errors: list[str] = []
        validate_records(
            [
                header,
                (2, {"record": "metric", "kind": "thermometer"}),
                (3, {"record": "metric", "kind": "counter", "name": "",
                     "labels": {"k": 1}, "value": "high"}),
                (4, {"record": "metric", "kind": "histogram", "name": "h",
                     "value": {"count": 1}}),
                (5, {"record": "metric", "kind": "histogram", "name": "h",
                     "value": {"count": "x", "total": 0, "min": 0, "max": 0,
                               "mean": 0}}),
                summary,
            ],
            errors,
        )
        joined = "\n".join(errors)
        assert "metric kind must be one of" in joined
        assert "non-empty string 'name'" in joined
        assert "labels must map strings to strings" in joined
        assert "value must be numeric" in joined
        assert "histogram value must have keys" in joined
        assert "histogram fields must be numeric" in joined

    def test_malformed_span_and_event_records(self):
        header = (1, {"record": "header", "schema": SCHEMA})
        summary = (9, {"record": "summary", "events_recorded": "zero",
                       "events_dropped": 0})
        errors: list[str] = []
        validate_records(
            [
                header,
                (2, {"record": "span", "name": "", "count": "many"}),
                (3, {"record": "event", "kind": "", "t": "noon",
                     "node": "alice", "data": []}),
                (4, {"record": "header", "schema": SCHEMA}),
                (5, {"record": "confetti"}),
                summary,
            ],
            errors,
        )
        joined = "\n".join(errors)
        assert "span needs a non-empty string 'name'" in joined
        assert "span missing fields" in joined
        assert "span field 'count' must be numeric" in joined
        assert "event needs a non-empty string 'kind'" in joined
        assert "event needs a numeric time 't'" in joined
        assert "event 'node' must be an integer" in joined
        assert "event 'data' must be an object" in joined
        assert "unexpected header inside a block" in joined
        assert "unknown record type 'confetti'" in joined
        assert "summary needs integer 'events_recorded'" in joined
        assert "summary needs an 'event_counts' object" in joined

    def test_non_object_lines_and_blank_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"record": "header", "schema": SCHEMA, "meta": {}}) + "\n"
            "\n"
            "[1, 2, 3]\n"
            + json.dumps(
                {"record": "summary", "events_recorded": 0, "events_dropped": 0,
                 "event_counts": {}}
            ) + "\n"
        )
        errors = validate_jsonl(path)
        assert errors == ["line 3: each line must be a JSON object"]

    def test_module_entry_point_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_jsonl(good, _traced_telemetry())
        assert schema_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "summary"}\n')
        assert schema_main([str(bad)]) == 1
        assert schema_main([]) == 2


# --------------------------------------------------------------------- #
# simulator seams


def _tiny_spec(**config_overrides) -> ExperimentSpec:
    cfg = ScenarioConfig(
        n_nodes=12, area=Area(350.0, 350.0), normal_range=200.0,
        duration=6.0, warmup=2.0, sample_rate=1.0, **config_overrides,
    )
    return ExperimentSpec(protocol="rng", mean_speed=10.0, config=cfg)


class TestWorldSeams:
    def test_armed_run_collects_traffic_and_phases(self):
        tel = Telemetry()
        result = run_once(_tiny_spec(), seed=3, telemetry=tel)
        counters = tel.registry.counters_dict()
        assert counters["hello_sent"] == result.stats.hello_messages
        assert counters["hello_received"] == result.stats.deliveries
        assert {"hello_emit", "decide", "engine_run", "snapshot"} <= set(tel.spans)
        kinds = tel.events.kind_counts()
        assert kinds["hello_sent"] == result.stats.hello_messages
        assert set(kinds) <= EVENT_KINDS

    def test_run_lifecycle_events(self):
        tel = Telemetry()
        run_once(_tiny_spec(), seed=3, telemetry=tel)
        kinds = tel.events.kind_counts()
        assert kinds["run_start"] == 1
        assert kinds["run_end"] == 1
        # one flood probe per sample: duration 6, warmup 2, rate 1 -> 5
        assert kinds["flood"] == 5
        assert tel.registry.counters_dict()["floods"] == 5

    def test_armed_and_disarmed_runs_are_bit_identical(self):
        plain = run_once(_tiny_spec(), seed=5)
        traced = run_once(_tiny_spec(), seed=5, telemetry=Telemetry())
        assert np.array_equal(plain.delivery_ratios, traced.delivery_ratios)
        assert np.array_equal(plain.mean_extended_ranges, traced.mean_extended_ranges)
        assert np.array_equal(plain.strict_connected, traced.strict_connected)
        assert plain.stats.as_dict() == traced.stats.as_dict()

    def test_null_telemetry_treated_as_disarmed(self):
        result = run_once(_tiny_spec(), seed=5, telemetry=NullTelemetry())
        assert result.stats.telemetry is None

    def test_ambient_collector_reaches_run_once(self):
        tel = Telemetry()
        with use_telemetry(tel):
            result = run_once(_tiny_spec(), seed=3)
        assert result.stats.telemetry is not None
        assert tel.registry.counters_dict()["hello_sent"] > 0

    def test_explicit_argument_beats_ambient(self):
        ambient, explicit = Telemetry(), Telemetry()
        with use_telemetry(ambient):
            run_once(_tiny_spec(), seed=3, telemetry=explicit)
        assert len(ambient.registry) == 0
        assert len(explicit.registry) > 0

    def test_loss_and_collision_drops_reach_the_dropped_series(self):
        tel = Telemetry()
        result = run_once(
            _tiny_spec(hello_loss_rate=0.3, hello_tx_duration=0.05),
            seed=4,
            telemetry=tel,
        )
        counters = tel.registry.counters_dict()
        assert counters["hello_dropped{reason=loss}"] == result.stats.hello_losses
        assert counters["hello_dropped{reason=collision}"] == result.stats.collisions

    def test_fault_seams_trace_fault_events(self):
        from repro.faults.schedule import FaultSchedule, NodeOutage

        tel = Telemetry()
        schedule = FaultSchedule(events=(NodeOutage(node=0, start=2.0, end=6.0),))
        result = run_once(_tiny_spec(), seed=4, faults=schedule, telemetry=tel)
        counters = tel.registry.counters_dict()
        assert (
            counters["fault_events{action=suppressed_sends}"]
            == result.stats.fault_suppressed_sends
            > 0
        )
        assert tel.events.kind_counts()["fault"] > 0

    def test_fault_event_counts_equal_run_stats(self):
        from repro.faults.schedule import (
            DeliveryDelay,
            FaultSchedule,
            HelloLossBurst,
            NodeOutage,
            PositionNoise,
        )

        schedule = FaultSchedule(events=(
            HelloLossBurst(2.0, 3.0, probability=0.3),
            NodeOutage(2.5, 3.5, node=3),
            DeliveryDelay(1.5, 3.5, delay=0.4, senders=(1, 2, 5, 8)),
            DeliveryDelay(2.2, 2.7, delay=1.3, receivers=(0, 9, 10, 11)),
            PositionNoise(2.0, 4.0, amplitude=5.0, nodes=(4, 7)),
        ))
        tel = Telemetry()
        result = run_once(_tiny_spec(), seed=4, faults=schedule, telemetry=tel)
        counters = tel.registry.counters_dict()
        stats = result.stats.as_dict()
        for key, value in stats.items():
            if key.startswith("fault_"):
                action = key[len("fault_"):]
                assert value > 0, key
                assert counters[f"fault_events{{action={action}}}"] == value
        # Every delivery is either recorded, blocked or discarded.
        assert counters["hello_received"] == (
            stats["deliveries"]
            - stats["fault_blocked_receptions"]
            - stats["fault_stale_discards"]
        )


MECHANISMS = ("baseline", "view-sync", "proactive", "reactive", "weak")


class TestCacheCounterIdentity:
    """stats cache fields == manager.cache_info() == telemetry counters."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_across_mechanisms(self, mechanism):
        self._check(ExperimentSpec(
            protocol="rng", mechanism=mechanism, buffer_width=20.0,
            mean_speed=10.0, config=_tiny_spec().config,
        ))

    @pytest.mark.parametrize("protocol", ("rng", "gabriel", "mst"))
    def test_across_protocols(self, protocol):
        self._check(ExperimentSpec(
            protocol=protocol, mechanism="view-sync", buffer_width=20.0,
            mean_speed=10.0, config=_tiny_spec().config,
        ))

    @staticmethod
    def _check(spec: ExperimentSpec) -> None:
        tel = Telemetry()
        result = run_once(spec, seed=6, telemetry=tel)
        counters = tel.registry.counters_dict()
        info = result.stats.cache_info()

        def total(outcome: str) -> float:
            return sum(
                counters.get(f"decision_cache{{outcome={outcome},phase={phase}}}", 0)
                for phase in ("hello", "packet")
            )

        assert total("hit") == info["decision_cache_hits"]
        assert total("miss") == info["decision_cache_misses"]
        assert total("uncacheable") == info["decision_cache_uncacheable"]
        # every decision_cache series carries a phase
        assert all(
            "phase=" in key for key in counters if key.startswith("decision_cache")
        )
        # and the frozen summary in stats.telemetry agrees with both
        summary_counters = dict(result.stats.telemetry.counters)
        for key, value in counters.items():
            if key.startswith("decision_cache"):
                assert summary_counters[key] == value

    def test_packet_phase_is_counted_apart(self):
        # view-sync re-decides at every probe: both phases see decisions,
        # and the packet phase serves hits between Hello generations.
        tel = Telemetry()
        run_once(ExperimentSpec(
            protocol="rng", mechanism="view-sync", buffer_width=20.0,
            mean_speed=10.0, config=_tiny_spec().config,
        ), seed=6, telemetry=tel)
        counters = tel.registry.counters_dict()
        assert counters.get("decision_cache{outcome=miss,phase=hello}", 0) > 0
        assert counters.get("decision_cache{outcome=miss,phase=packet}", 0) > 0
        assert counters.get("decision_cache{outcome=hit,phase=packet}", 0) > 0


class TestBatchedPipelineTelemetry:
    """Per-batch hello_received aggregation keeps totals exactly equal."""

    @staticmethod
    def _run() -> Telemetry:
        from repro.core.manager import MobilitySensitiveTopologyControl
        from repro.mobility import RandomWaypoint
        from repro.protocols import RngProtocol
        from repro.sim.world import NetworkWorld
        from repro.util.randomness import SeedSequenceFactory

        cfg = ScenarioConfig(
            n_nodes=12, area=Area(350.0, 350.0), normal_range=200.0,
            duration=6.0, warmup=2.0, sample_rate=1.0,
        )
        seeds = SeedSequenceFactory(9)
        mobility = RandomWaypoint(
            cfg.area, cfg.n_nodes, cfg.duration, mean_speed=10.0,
            rng=seeds.rng("m"),
        )
        tel = Telemetry()
        world = NetworkWorld(
            cfg, mobility, MobilitySensitiveTopologyControl(RngProtocol()),
            seed=9, telemetry=tel,
        )
        world.run_until(cfg.duration)
        return tel

    def test_batched_receptions_are_summarized_not_per_receiver(self):
        tel = self._run()
        received = [e for e in tel.events if e.kind == "hello_received"]
        assert received  # retained summaries exist...
        # ...and each carries its receiver count; with no ring eviction in
        # a run this small the counts total the exact per-kind tally.
        counts = [dict(e.data)["count"] for e in received]
        assert all(c >= 1 for c in counts)
        assert sum(counts) == tel.events.kind_counts()["hello_received"]
        assert sum(counts) == tel.registry.counters_dict()["hello_received"]
