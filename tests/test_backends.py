"""Conformance suite for the pluggable execution backends.

Every backend must honour the same contract: bit-identical results to a
cold run, resume from a checkpoint, cooperative cancel with
``CampaignInterrupted`` semantics, and quarantine of failing units.  The
QueueBackend additionally gets lease-reclaim coverage (a stalled
worker's units flow back to the pool) and the store v1→v2 migration is
pinned here.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec
from repro.mobility.base import Area
from repro.orchestrator import OrchestrationContext, RunStore, WorkUnit
from repro.orchestrator.backend import (
    BackendCapabilities,
    InProcessBackend,
    QueueBackend,
    UnitOutcome,
    available_backends,
    default_backend,
    make_backend,
)
from repro.orchestrator.runner import CampaignInterrupted
from repro.orchestrator.store import STORE_SCHEMA_VERSION
from repro.sim.config import ScenarioConfig
from repro.util.errors import ConfigurationError, OrchestrationError

TINY = ScenarioConfig(
    n_nodes=10,
    area=Area(285.0, 285.0),
    normal_range=250.0,
    duration=5.0,
    warmup=2.0,
    sample_rate=1.0,
)

SPEC = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)
SPECS = [SPEC, SPEC.with_(mean_speed=5.0)]

#: A spec whose every unit fails (invalid protocol parameter).
BROKEN = SPEC.with_(protocol="yao", protocol_kwargs={"k": -1})


def _cold_reference():
    with OrchestrationContext() as ctx:
        return ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)


def _series(grouped):
    return [
        [run.delivery_ratios.tolist() for run in batch] for batch in grouped
    ]


@pytest.fixture(scope="module")
def cold():
    return _series(_cold_reference())


class TestRegistry:
    def test_taxonomy(self):
        assert available_backends() == ("inprocess", "queue")

    def test_unknown_name_teaches_choices(self):
        with pytest.raises(ConfigurationError, match="inprocess, queue"):
            make_backend("threads")

    def test_removed_local_backend_is_unknown(self):
        with pytest.raises(ConfigurationError, match="'local'"):
            OrchestrationContext(backend="local").run_spec_batch(
                [SPEC], repetitions=1, base_seed=50
            )

    def test_default_follows_effective_fan_out(self):
        assert default_backend(workers=1, n_units=8) == "inprocess"
        assert default_backend(workers=8, n_units=1) == "inprocess"
        assert default_backend(workers=2, n_units=8) == "queue"

    def test_queue_requires_store(self):
        with pytest.raises(ConfigurationError, match="store"):
            make_backend("queue")

    def test_capabilities_shape(self):
        caps = InProcessBackend().capabilities()
        assert isinstance(caps, BackendCapabilities)
        assert caps.name == "inprocess"
        assert not caps.writes_store
        assert not caps.parallel


class TestBitIdentity:
    """Same results from every backend, any worker count, with or
    without a store — seeds define runs, schedulers never do."""

    def test_inprocess_matches_cold(self, cold):
        with OrchestrationContext(backend="inprocess") as ctx:
            got = ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert _series(got) == cold

    def test_storeless_pooled_matches_cold(self, cold):
        """Two workers and no store: the default queue backend runs on
        a throw-away store."""
        with OrchestrationContext(workers=2) as ctx:
            got = ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert _series(got) == cold
        assert ctx.store is None

    def test_queue_inline_matches_cold(self, cold, tmp_path):
        store = RunStore(tmp_path / "queue.db")
        with OrchestrationContext(backend="queue", workers=0, store=store) as ctx:
            got = ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert _series(got) == cold
        store.close()

    def test_queue_two_workers_matches_cold(self, cold, tmp_path):
        store = RunStore(tmp_path / "queue2.db")
        with OrchestrationContext(backend="queue", workers=2, store=store) as ctx:
            got = ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert _series(got) == cold
        store.close()

    def test_exports_byte_identical_across_backends(self, tmp_path):
        """The acceptance contract: queue × 2 workers and inprocess
        settle on byte-identical deterministic exports."""
        qstore = RunStore(tmp_path / "q.db")
        with OrchestrationContext(backend="queue", workers=2, store=qstore) as ctx:
            ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        qstore.export_jsonl(tmp_path / "q.jsonl", deterministic=True)
        qstore.close()
        lstore = RunStore(tmp_path / "l.db")
        with OrchestrationContext(backend="inprocess", store=lstore) as ctx:
            ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        lstore.export_jsonl(tmp_path / "l.jsonl", deterministic=True)
        lstore.close()
        assert (
            (tmp_path / "q.jsonl").read_bytes()
            == (tmp_path / "l.jsonl").read_bytes()
        )


@pytest.mark.parametrize("backend,workers", [
    ("inprocess", 1), ("queue", 0), ("queue", 2),
])
class TestResume:
    def test_interrupt_then_resume_is_bit_identical(
        self, cold, tmp_path, backend, workers
    ):
        store = RunStore(tmp_path / "resume.db")
        first = OrchestrationContext(
            store=store, max_units=2, backend=backend, workers=workers
        )
        with pytest.raises(CampaignInterrupted, match="resume"):
            with first:
                first.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert first.executed_units == 2
        assert store.counts()["done"] == 2

        second = OrchestrationContext(
            store=store, backend=backend, workers=workers
        )
        with second:
            got = second.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert second.resumed_units == 2
        assert second.executed_units == 2
        assert _series(got) == cold
        store.close()


@pytest.mark.parametrize("backend,workers", [
    ("inprocess", 1), ("queue", 0), ("queue", 2),
])
class TestQuarantine:
    def test_failing_units_quarantine_not_abort(
        self, tmp_path, backend, workers
    ):
        """The batch still runs every unit; the all-broken spec is the
        one that raises, but the healthy spec's work is checkpointed."""
        store = RunStore(tmp_path / "quarantine.db")
        ctx = OrchestrationContext(
            store=store, retries=0, backend=backend, workers=workers
        )
        with ctx, pytest.raises(OrchestrationError, match="quarantined"):
            ctx.run_spec_batch([SPEC, BROKEN], repetitions=2, base_seed=50)
        counts = store.counts()
        assert counts["done"] == 2
        assert counts["quarantined"] == 2
        assert len(ctx.quarantined) == 2
        assert all("run failed" in str(q) or q.error for q in ctx.quarantined)
        store.close()


class TestCancel:
    def test_inprocess_cancel_between_polls(self):
        backend = InProcessBackend()
        ctx = OrchestrationContext(backend=backend)
        done_units = []
        original_poll = backend.poll

        def poll_then_cancel(timeout=0.1):
            out = original_poll(timeout)
            done_units.extend(out)
            if len(done_units) >= 2:
                ctx.cancel()
            return out

        backend.poll = poll_then_cancel
        with ctx, pytest.raises(CampaignInterrupted, match="cancelled"):
            ctx.run_spec_batch(SPECS, repetitions=3, base_seed=50)
        assert ctx.cancelled
        assert 2 <= ctx.executed_units < 6

    def test_cancelled_campaign_resumes_to_identical_results(
        self, cold, tmp_path
    ):
        store = RunStore(tmp_path / "cancel.db")
        backend = InProcessBackend()
        ctx = OrchestrationContext(store=store, backend=backend)
        original_poll = backend.poll
        seen = []

        def poll_then_cancel(timeout=0.1):
            out = original_poll(timeout)
            seen.extend(out)
            if len(seen) >= 1:
                ctx.cancel()
            return out

        backend.poll = poll_then_cancel
        with ctx, pytest.raises(CampaignInterrupted):
            ctx.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert 0 < store.counts()["done"] < 4

        resumed = OrchestrationContext(store=store, backend="inprocess")
        with resumed:
            got = resumed.run_spec_batch(SPECS, repetitions=2, base_seed=50)
        assert _series(got) == cold
        store.close()

    def test_cancelled_queue_campaign_resumes_to_identical_results(
        self, tmp_path
    ):
        with OrchestrationContext() as ref:
            cold = _series(ref.run_spec_batch(SPECS, repetitions=3, base_seed=50))
        store = RunStore(tmp_path / "qresume.db")
        backend = QueueBackend(store=store, workers=2)
        ctx = OrchestrationContext(store=store, backend=backend)
        original_poll = backend.poll

        def poll_then_cancel(timeout=0.1):
            out = original_poll(timeout)
            if out:
                ctx.cancel()
            return out

        backend.poll = poll_then_cancel
        with ctx, pytest.raises(CampaignInterrupted, match="cancelled"):
            ctx.run_spec_batch(SPECS, repetitions=3, base_seed=50)
        checkpointed = store.counts()["done"]
        assert 0 < checkpointed < 6

        resumed = OrchestrationContext(store=store, backend="queue", workers=2)
        with resumed:
            got = resumed.run_spec_batch(SPECS, repetitions=3, base_seed=50)
        assert _series(got) == cold
        assert resumed.resumed_units == checkpointed
        assert resumed.executed_units == 6 - checkpointed
        store.close()

    def test_queue_cancel_is_scoped_to_its_batch(self, tmp_path):
        store = RunStore(tmp_path / "qshared.db")
        units = [
            WorkUnit(spec=SPEC, seed=seed, spec_json=SPEC.to_json())
            for seed in (1, 2, 3, 4)
        ]
        store.register(units)
        mine, theirs = units[:2], units[2:]
        cancelled = QueueBackend(store=store, workers=0)
        cancelled.submit_units({u.unit_id: {} for u in mine})
        cancelled.cancel()
        # A later batch on the same store runs to completion ...
        other = QueueBackend(store=store, workers=0)
        other.submit_units({u.unit_id: {} for u in theirs})
        while not other.done():
            other.poll()
        other.close()
        # ... and does not lift the cancel of the first one.
        assert cancelled.poll() == []
        assert cancelled.done()
        assert store.counts([u.unit_id for u in theirs])["done"] == 2
        assert store.counts([u.unit_id for u in mine])["pending"] == 2
        store.close()

    def test_queue_cancel_flags_store(self, tmp_path):
        store = RunStore(tmp_path / "qcancel.db")
        backend = QueueBackend(store=store, workers=0)
        backend.cancel()
        assert store.cancel_requested()
        assert backend.done()
        store.close()


class TestLeaseReclaim:
    def _register(self, store, n=3):
        units = [
            WorkUnit(spec=SPEC, seed=seed, spec_json=SPEC.to_json())
            for seed in range(n)
        ]
        store.register(units)
        return units

    def test_expired_lease_is_reclaimable(self, tmp_path):
        store = RunStore(tmp_path / "lease.db")
        self._register(store)
        first = store.claim_units("stalled", limit=2, lease_seconds=0.05)
        assert [r.attempts for r in first] == [1, 1]
        # While the lease is live, nobody else can claim those units.
        assert len(store.claim_units("thief", limit=5)) == 1
        time.sleep(0.1)
        reclaimed = store.claim_units("thief", limit=5, lease_seconds=60.0)
        assert sorted(r.unit_id for r in reclaimed) == sorted(
            r.unit_id for r in first
        )
        assert [r.attempts for r in reclaimed] == [2, 2]
        store.close()

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        store = RunStore(tmp_path / "beat.db")
        self._register(store, n=1)
        [row] = store.claim_units("owner", lease_seconds=0.1)
        for _ in range(3):
            time.sleep(0.06)
            store.heartbeat("owner", [row.unit_id], lease_seconds=0.1)
        assert store.claim_units("thief", limit=1) == []
        store.close()

    def test_crashed_worker_unit_quarantines_after_max_claims(self, tmp_path):
        store = RunStore(tmp_path / "crash.db")
        self._register(store, n=1)
        # Two claims that never report (a worker crashing mid-unit) ...
        for _ in range(2):
            claimed = store.claim_units(
                "crashy", lease_seconds=0.0, max_attempts=2
            )
            assert len(claimed) == 1
            time.sleep(0.01)
        # ... and the third claim attempt quarantines instead of leasing.
        assert store.claim_units("next", lease_seconds=0.0, max_attempts=2) == []
        assert store.counts()["quarantined"] == 1
        row = store.units(status="quarantined")[0]
        assert "lease reclaimed" in row.error
        store.close()

    def test_completion_clears_lease(self, tmp_path):
        store = RunStore(tmp_path / "clear.db")
        [unit] = self._register(store, n=1)
        store.claim_units("owner", lease_seconds=60.0)
        store.record_result(unit, {"series": {}}, attempts=1)
        # Row is done and unleased; nothing left to claim or steal.
        assert store.claim_units("thief", limit=5) == []
        assert store.counts()["done"] == 1
        store.close()

    def test_release_returns_unit_to_pool(self, tmp_path):
        store = RunStore(tmp_path / "release.db")
        self._register(store, n=1)
        [row] = store.claim_units("owner", lease_seconds=60.0)
        store.release_unit(row.unit_id)
        [again] = store.claim_units("other", lease_seconds=60.0)
        assert again.unit_id == row.unit_id
        assert again.attempts == 2
        store.close()


class TestStoreMigration:
    def _make_v1(self, path):
        """Build a store with the exact v1 layout (no lease columns)."""
        import sqlite3

        conn = sqlite3.connect(str(path))
        conn.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE units (
                unit_id TEXT PRIMARY KEY,
                kind TEXT NOT NULL,
                label TEXT NOT NULL,
                seed INTEGER NOT NULL,
                status TEXT NOT NULL,
                attempts INTEGER NOT NULL DEFAULT 0,
                spec_json TEXT NOT NULL,
                result_json TEXT,
                error TEXT,
                created_at TEXT NOT NULL DEFAULT (datetime('now')),
                updated_at TEXT NOT NULL DEFAULT (datetime('now'))
            );
            CREATE INDEX idx_units_status ON units (status);
            """
        )
        from repro.orchestrator.units import SCHEMA_VERSION

        conn.execute(
            "INSERT INTO meta VALUES ('store_schema_version', '1')"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('unit_schema_version', ?)",
            (SCHEMA_VERSION,),
        )
        conn.execute(
            "INSERT INTO units (unit_id, kind, label, seed, status, "
            "attempts, spec_json, result_json) VALUES "
            "('abc123', 'run', 'legacy', 7, 'done', 1, '{}', '{\"series\":{}}')"
        )
        conn.commit()
        conn.close()

    def test_v1_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "v1.db"
        self._make_v1(path)
        store = RunStore(path)
        # Version bumped, data intact, queue columns usable.
        row = store.get("abc123")
        assert row is not None and row.status == "done"
        assert store.claim_units("w", limit=5) == []
        store.close()
        import sqlite3

        conn = sqlite3.connect(str(path))
        version = conn.execute(
            "SELECT value FROM meta WHERE key='store_schema_version'"
        ).fetchone()[0]
        columns = {r[1] for r in conn.execute("PRAGMA table_info(units)")}
        conn.close()
        assert version == str(STORE_SCHEMA_VERSION)
        assert {"lease_owner", "lease_expires", "heartbeat_at"} <= columns

    def test_future_schema_still_refuses(self, tmp_path):
        path = tmp_path / "future.db"
        store = RunStore(path)
        store._conn.execute(
            "UPDATE meta SET value='99' WHERE key='store_schema_version'"
        )
        store._conn.commit()
        store.close()
        with pytest.raises(ConfigurationError, match="store schema"):
            RunStore(path)


class TestControlFlags:
    def test_round_trip_and_cancel(self, tmp_path):
        store = RunStore(tmp_path / "flags.db")
        assert store.get_control("cancel") is None
        assert not store.cancel_requested()
        store.set_control("note", "hello")
        assert store.get_control("note") == "hello"
        store.request_cancel()
        assert store.cancel_requested()
        # Control flags never collide with schema metadata.
        store.close()
        assert RunStore(tmp_path / "flags.db").cancel_requested()


class TestDeterministicExport:
    def test_deterministic_mode_omits_timestamps(self, tmp_path):
        import json

        store = RunStore(tmp_path / "det.db")
        unit = WorkUnit(spec=SPEC, seed=1, spec_json=SPEC.to_json())
        store.register([unit])
        store.record_result(unit, {"series": {}})
        store.export_jsonl(tmp_path / "det.jsonl", deterministic=True)
        store.export_jsonl(tmp_path / "wall.jsonl")
        det_rows = [
            json.loads(line)
            for line in (tmp_path / "det.jsonl").read_text().splitlines()
        ]
        wall_rows = [
            json.loads(line)
            for line in (tmp_path / "wall.jsonl").read_text().splitlines()
        ]
        assert "created_at" not in det_rows[1]
        assert "updated_at" not in det_rows[1]
        assert "created_at" in wall_rows[1]
        store.close()


class TestRemovedIn2:
    """The 2.0 removals: the old entry points are gone, not shimmed."""

    @pytest.mark.parametrize("module, name", [
        ("repro.api", "WorkerPool"),
        ("repro.api", "run_repetitions_many"),
        ("repro.orchestrator", "WorkerPool"),
        ("repro.orchestrator", "LocalPoolBackend"),
    ])
    def test_entry_point_is_gone(self, module, name):
        import importlib

        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    def test_pool_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.orchestrator.pool")

    def test_backoff_knob_is_gone(self):
        with pytest.raises(TypeError):
            OrchestrationContext(backoff=0.0)


class TestSubmitCampaign:
    def test_handle_runs_to_done(self, cold):
        from repro.api import submit_campaign

        handle = submit_campaign(SPECS, repetitions=2, base_seed=50)
        aggregates = handle.result(timeout=300)
        assert handle.done()
        status = handle.status()
        assert status.state == "done"
        assert status.executed_units == 4
        assert len(aggregates) == 2
        reference = _cold_reference()
        for aggregate, runs in zip(aggregates, reference):
            assert np.isclose(
                aggregate.connectivity.mean,
                float(np.mean([r.connectivity_ratio for r in runs])),
            )

    def test_cancel_then_resume(self, cold, tmp_path):
        from repro.api import submit_campaign

        class OnePollBackend(InProcessBackend):
            """Cancellable deterministically: each poll runs one unit."""

        backend = OnePollBackend()
        store_path = str(tmp_path / "handle.db")
        handle = submit_campaign(
            SPECS, repetitions=2, base_seed=50,
            backend=backend, store=store_path,
        )
        # Cooperative cancel: whatever is done stays checkpointed.
        handle.cancel()
        with pytest.raises((CampaignInterrupted, Exception)):
            handle.result(timeout=300)
        assert handle.status().state in ("cancelled", "done")

        resumed = submit_campaign(
            SPECS, repetitions=2, base_seed=50,
            backend="inprocess", store=store_path,
        )
        aggregates = resumed.result(timeout=300)
        assert resumed.status().state == "done"
        assert len(aggregates) == 2
        assert (
            resumed.status().executed_units
            + resumed.status().resumed_units
            == 4
        )
