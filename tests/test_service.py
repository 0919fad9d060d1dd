"""Endpoint tests for the async HTTP experiment service.

A real :class:`BackgroundServer` binds a loopback port and the stdlib
:class:`ServiceClient` drives it — the same path ``repro submit`` takes.
The suite pins the service determinism contract: a campaign export is
byte-identical to a cold in-process run of the same specs and seed.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiment import ExperimentSpec
from repro.mobility.base import Area
from repro.orchestrator import OrchestrationContext, RunStore
from repro.service import (
    BackgroundServer,
    ExperimentService,
    ServiceClient,
    ServiceError,
    summary_records,
)
from repro.sim.config import ScenarioConfig
from repro.telemetry import Telemetry
from repro.telemetry.schema import validate_jsonl
from repro.telemetry.runtime import use_telemetry

TINY = ScenarioConfig(
    n_nodes=10,
    area=Area(285.0, 285.0),
    normal_range=250.0,
    duration=5.0,
    warmup=2.0,
    sample_rate=1.0,
)

SPEC = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)

SPEC_DOCS = [
    json.loads(SPEC.to_json()),
    json.loads(SPEC.with_(mean_speed=5.0).to_json()),
]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    service = ExperimentService(
        data_dir=tmp_path_factory.mktemp("service-data"),
        default_backend="inprocess",
        default_workers=1,
    )
    background = BackgroundServer(service).start()
    yield background
    background.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout=30.0)


@pytest.fixture(scope="module")
def finished_campaign(client):
    """One completed two-spec campaign shared by the read-only tests."""
    doc = client.submit({
        "specs": SPEC_DOCS, "repetitions": 2, "base_seed": 50,
        "backend": "inprocess", "workers": 1,
    })
    return client.wait(doc["id"], timeout=300.0)


class TestHealthAndErrors:
    def test_healthz(self, client):
        doc = client.health()
        assert doc["status"] == "ok"

    def test_unknown_campaign_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.campaign("c9999")
        assert err.value.status == 404

    def test_bad_method_405(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("PUT", "/campaigns")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_malformed_json_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST", "/campaigns", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("document,fragment", [
        ({}, "specs"),
        ({"specs": []}, "specs"),
        ({"specs": [{"mean_speed": "fast"}]}, "bad experiment spec"),
        ({"specs": SPEC_DOCS, "backend": "cloud"}, "unknown backend"),
        ({"specs": SPEC_DOCS, "store": "../sneaky.db"}, "plain filename"),
        ({"specs": SPEC_DOCS, "store": ".hidden.db"}, "plain filename"),
        ({"specs": SPEC_DOCS, "repetitions": 0}, "repetitions"),
    ])
    def test_submit_validation_400(self, client, document, fragment):
        with pytest.raises(ServiceError) as err:
            client.submit(document)
        assert err.value.status == 400
        assert fragment in str(err.value)


class TestCampaignLifecycle:
    def test_done_with_tallies_and_aggregates(self, finished_campaign):
        doc = finished_campaign
        assert doc["state"] == "done"
        assert doc["executed_units"] + doc["resumed_units"] == 4
        assert doc["quarantined_units"] == 0
        assert [a["runs"] for a in doc["aggregates"]] == [2, 2]
        assert all(0.0 <= a["connectivity"] <= 1.0 for a in doc["aggregates"])

    def test_campaign_listed(self, client, finished_campaign):
        ids = [c["id"] for c in client.campaigns()]
        assert finished_campaign["id"] in ids

    def test_events_stream_is_schema_valid(
        self, client, finished_campaign, tmp_path
    ):
        lines = list(client.events(finished_campaign["id"]))
        assert lines, "finished campaign must still replay a final snapshot"
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert validate_jsonl(path) == []
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert records[0]["schema"] == "repro-telemetry/1"
        assert records[-1]["record"] == "summary"

    def test_export_byte_identical_to_cold_run(
        self, client, finished_campaign, tmp_path
    ):
        """The service determinism contract: an HTTP campaign's
        deterministic export matches a cold local run, byte for byte.

        The cold run arms telemetry like the service does, so both
        sides embed the (deterministic) per-run counters; the export
        itself sheds the wall-clock span timings.
        """
        service_export = client.export(
            finished_campaign["id"], deterministic=True
        )
        specs = [ExperimentSpec.from_dict(d) for d in SPEC_DOCS]
        store = RunStore(tmp_path / "cold.db")
        with use_telemetry(Telemetry()), OrchestrationContext(store=store) as ctx:
            ctx.run_spec_batch(specs, repetitions=2, base_seed=50)
        store.export_jsonl(tmp_path / "cold.jsonl", deterministic=True)
        store.close()
        assert service_export == (tmp_path / "cold.jsonl").read_bytes()

    def test_queue_backend_campaign_matches_local(
        self, client, finished_campaign
    ):
        """Same campaign through the multi-process queue backend — the
        export must match the in-process campaign's."""
        doc = client.submit({
            "specs": SPEC_DOCS, "repetitions": 2, "base_seed": 50,
            "backend": "queue", "workers": 2,
        })
        finished = client.wait(doc["id"], timeout=300.0)
        assert finished["state"] == "done"
        assert client.export(doc["id"]) == client.export(
            finished_campaign["id"]
        )

    def test_max_units_interrupts_then_store_reuse_resumes(self, client):
        first = client.submit({
            "specs": SPEC_DOCS, "repetitions": 2, "base_seed": 50,
            "max_units": 1, "store": "resumable.db",
        })
        interrupted = client.wait(first["id"], timeout=300.0)
        assert interrupted["state"] == "interrupted"
        assert interrupted["executed_units"] == 1

        second = client.submit({
            "specs": SPEC_DOCS, "repetitions": 2, "base_seed": 50,
            "store": "resumable.db",
        })
        finished = client.wait(second["id"], timeout=300.0)
        assert finished["state"] == "done"
        assert finished["resumed_units"] == 1
        assert finished["executed_units"] == 3

    def test_cancel_reaches_terminal_state(self, client):
        doc = client.submit({
            "specs": SPEC_DOCS, "repetitions": 3, "base_seed": 900,
        })
        cancelled = client.cancel(doc["id"])
        assert cancelled["id"] == doc["id"]
        finished = client.wait(doc["id"], timeout=300.0)
        # Cooperative: in-flight units drain, so a fast campaign may
        # legitimately finish before the flag lands.
        assert finished["state"] in ("cancelled", "done")
        if finished["state"] == "cancelled":
            assert finished["executed_units"] < 6

    def test_export_before_store_exists_409(self, client, server):
        record = server.service.submit({
            "specs": SPEC_DOCS[:1], "repetitions": 1, "base_seed": 1,
        })
        # Point the record at a store path that was never created.
        record.finished.wait(timeout=300.0)
        record.store_path = record.store_path.with_name("never-made.db")
        with pytest.raises(ServiceError) as err:
            client.export(record.campaign_id)
        assert err.value.status == 409


class TestSummaryRecords:
    def test_block_is_schema_valid(self, tmp_path):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            telemetry.count("units_done")
            telemetry.observe("unit_seconds", 1.5)
            telemetry.gauge("progress", 0.5)
        records = summary_records(
            telemetry.summary(), {"campaign": "c0001", "state": "running"}
        )
        path = tmp_path / "block.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert validate_jsonl(path) == []
        header, summary = records[0], records[-1]
        assert header["record"] == "header"
        assert header["meta"]["campaign"] == "c0001"
        assert summary["record"] == "summary"
        names = {
            r["name"] for r in records if r.get("record") == "metric"
        }
        assert {"units_done", "unit_seconds", "progress"} <= names
