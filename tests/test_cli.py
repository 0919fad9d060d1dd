"""Tests for repro.cli: argument parsing and end-to-end command runs."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "quick" and args.command == "table1"

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--scale", "galactic"])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--protocol", "mst", "--mechanism", "weak", "--buffer", "10",
             "--speed", "40", "--pn"]
        )
        assert args.protocol == "mst"
        assert args.mechanism == "weak"
        assert args.buffer == 10.0
        assert args.pn

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "pigeon"])


class TestMain:
    def test_run_command_prints_summary(self, capsys):
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "connectivity" in out
        assert "rng+baseline" in out

    def test_unicast_subcommand(self, capsys):
        code = main(["unicast", "--scale", "smoke", "--speed", "10"])
        out = capsys.readouterr().out
        assert code == 0 and "GFG/GPSR" in out

    def test_lifetime_subcommand(self, capsys):
        code = main(["lifetime", "--scale", "smoke", "--budget", "1e7"])
        out = capsys.readouterr().out
        assert code == 0 and "lifetime" in out

    def test_equivalence_subcommand(self, capsys):
        code = main(["equivalence", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0 and "v_over_R" in out

    def test_table1_smoke_with_csv(self, capsys, tmp_path, monkeypatch):
        # swap the smoke scale in for an even smaller one via --scale smoke
        csv_path = tmp_path / "t1.csv"
        code = main(["table1", "--scale", "smoke", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "artifact" in header


class TestTelemetryFlag:
    def test_run_with_telemetry_writes_valid_jsonl_and_phases(self, capsys, tmp_path):
        from repro.telemetry import validate_jsonl

        path = tmp_path / "out.jsonl"
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "1",
                "--telemetry", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert validate_jsonl(path) == []
        assert "telemetry — run" in out
        assert "hello_sent" in out
        phases = tmp_path / "out.jsonl.phases.json"
        assert phases.exists()
        import json

        doc = json.loads(phases.read_text())
        assert "engine_run" in doc["phases"]

    def test_one_worker_run_keeps_event_stream(self, capsys, tmp_path):
        """A 1-worker ``run --telemetry`` streams every retained event.

        The reference traces the same seeds straight into one ambient
        collector (how a 1-worker run traced before every sweep went
        through an orchestration context); the CLI's in-process units
        trace per unit and forward their events, so the JSONL must hold
        the same record kinds and the same per-kind event records.
        """
        import json
        from collections import Counter

        from repro.analysis.experiment import ExperimentSpec, run_once
        from repro.analysis.scales import Scale
        from repro.telemetry import Telemetry, use_telemetry, write_jsonl

        path = tmp_path / "cli.jsonl"
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "2",
                "--seed", "7", "--workers", "1", "--telemetry", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        scale = Scale(
            name="custom", n_nodes=12, duration=5.0, sample_rate=1.0,
            repetitions=2,
        )
        spec = ExperimentSpec(
            protocol="rng", mean_speed=5.0,
            config=scale.config(propagation="unit-disk", propagation_params={}),
        )
        reference = Telemetry()
        with use_telemetry(reference):
            for seed in (7, 8):
                run_once(spec, seed=seed)
        ref_path = tmp_path / "reference.jsonl"
        write_jsonl(ref_path, reference)

        def tally(jsonl):
            records = [json.loads(line) for line in jsonl.read_text().splitlines()]
            kinds = Counter(r["record"] for r in records)
            events = Counter(r["kind"] for r in records if r["record"] == "event")
            summary = [r for r in records if r["record"] == "summary"][0]
            return kinds, events, summary

        kinds, events, summary = tally(path)
        ref_kinds, ref_events, ref_summary = tally(ref_path)
        assert kinds == ref_kinds
        assert events == ref_events
        assert events["run_start"] == 2 and events["flood"] > 0
        assert summary == ref_summary

    def test_telemetry_multi_worker_merges(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "2",
                "--workers", "2", "--telemetry", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "forcing --workers 1" not in out
        assert "parent-side events only" in out
        assert "hello_sent" in out  # worker counters merged into the summary
        assert path.exists()

    def test_figures_accept_telemetry(self, capsys, tmp_path):
        from repro.telemetry import validate_jsonl

        path = tmp_path / "fig.jsonl"
        code = main(["table1", "--scale", "smoke", "--telemetry", str(path)])
        assert code == 0
        assert validate_jsonl(path) == []
        assert "telemetry — table1" in capsys.readouterr().out
