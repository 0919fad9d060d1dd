"""The experiment service: campaigns over HTTP, backed by the fabric.

:class:`ExperimentService` owns a data directory of per-campaign
:class:`~repro.orchestrator.store.RunStore` databases and runs each
submitted campaign on its own thread through an
:class:`~repro.orchestrator.runner.OrchestrationContext` — so every
guarantee of the orchestration layer (content-hashed units, idempotent
checkpointing, resume, retry/quarantine, bit-identical results on any
backend) holds for service campaigns too.

Endpoints (all JSON unless noted):

- ``POST /campaigns`` — submit ``{"specs": [...], "repetitions": N,
  "base_seed": S, "backend": "inprocess"|"queue", ...}``; without a
  backend, ``inprocess`` runs when ``min(workers, units)`` is 1, else
  ``queue``.  Returns 201 with the campaign document.
- ``GET /campaigns`` / ``GET /campaigns/{id}`` — status.
- ``GET /campaigns/{id}/events`` — **chunked** live feed of
  ``repro-telemetry/1`` JSONL blocks: one header-to-summary block per
  progress snapshot while units settle, then a final block; each block
  validates against :mod:`repro.telemetry.schema` on its own.
- ``GET /campaigns/{id}/export?deterministic=1`` — the RunStore JSONL
  export (deterministic mode omits timestamps and orders by unit ID, so
  it is byte-comparable across backends and machines).
- ``DELETE /campaigns/{id}`` — cooperative cancel: in-flight units
  finish and checkpoint, the campaign ends in ``cancelled``
  (:class:`~repro.orchestrator.runner.CampaignInterrupted` semantics —
  resubmitting resumes from the store).

Thread-safety model: the campaign thread is the *only* writer of its
context, store, and telemetry; it publishes immutable
:class:`~repro.telemetry.core.TelemetrySummary` snapshots (plus plain
tallies) through atomic attribute assignment, and the event loop reads
only those snapshots.  Export/status handlers open their own read
connection to the WAL store, never the campaign thread's.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.experiment import ExperimentSpec
from repro.service.http import HttpError, Request, Response, Router
from repro.telemetry.core import Telemetry, TelemetrySummary
from repro.telemetry.export import SCHEMA as TELEMETRY_SCHEMA
from repro.telemetry.runtime import use_telemetry

__all__ = ["CampaignRecord", "ExperimentService", "summary_records"]

#: Campaign states (terminal: done / failed / cancelled / interrupted).
STATES = (
    "pending", "running", "done", "failed", "cancelled", "interrupted",
)


def summary_records(
    summary: TelemetrySummary, meta: dict | None = None
) -> list[dict]:
    """Render a frozen summary as one ``repro-telemetry/1`` block.

    The same record shapes :func:`repro.telemetry.export.write_jsonl`
    emits, built from a snapshot instead of a live collector — which is
    what lets the events endpoint stream schema-valid blocks without
    touching the campaign thread's mutable telemetry.
    """
    records: list[dict] = [
        {"record": "header", "schema": TELEMETRY_SCHEMA, "meta": dict(meta or {})}
    ]
    for name, value in summary.counters:
        records.append(
            {"record": "metric", "kind": "counter", "name": name, "value": value}
        )
    for name, value in summary.gauges:
        records.append(
            {"record": "metric", "kind": "gauge", "name": name, "value": value}
        )
    for name, stats in summary.histograms:
        records.append(
            {
                "record": "metric",
                "kind": "histogram",
                "name": name,
                "value": dict(stats),
            }
        )
    for name, stats in summary.spans:
        records.append({"record": "span", "name": name, **dict(stats)})
    records.append(
        {
            "record": "summary",
            "events_recorded": summary.events_recorded,
            "events_dropped": summary.events_dropped,
            "event_counts": dict(summary.event_counts),
        }
    )
    return records


def _render_block(summary: TelemetrySummary, meta: dict) -> bytes:
    lines = [
        json.dumps(record, sort_keys=True)
        for record in summary_records(summary, meta)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass
class CampaignRecord:
    """One submitted campaign and its live/terminal state."""

    campaign_id: str
    specs: list[ExperimentSpec]
    repetitions: int
    base_seed: int
    backend: str
    workers: int
    retries: int
    unit_timeout: float | None
    max_units: int | None
    resume: bool
    store_path: Path
    state: str = "pending"
    error: str | None = None
    # Published by the campaign thread, read by the event loop:
    snapshot: TelemetrySummary | None = None
    snapshot_seq: int = 0
    tallies: dict = field(default_factory=dict)
    aggregates: list[dict] = field(default_factory=list)
    finished: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None
    _context: object = None  # OrchestrationContext, set by the thread

    # ---------------------------------------------------------------- #

    def start(self) -> None:
        """Launch the campaign thread (the record's sole writer)."""
        self.thread = threading.Thread(
            target=self._run, name=f"repro-campaign-{self.campaign_id}",
            daemon=True,
        )
        self.state = "running"
        self.thread.start()

    def cancel(self) -> None:
        """Cooperatively stop the campaign (no-op once terminal)."""
        context = self._context
        if context is not None:
            context.cancel()
        elif self.state == "pending":  # pragma: no cover - tiny startup race
            self.state = "cancelled"

    def _publish(self, context, telemetry: Telemetry) -> None:
        self.tallies = {
            "executed_units": context.executed_units,
            "resumed_units": context.resumed_units,
            "quarantined_units": len(context.quarantined),
        }
        self.snapshot = telemetry.summary()
        self.snapshot_seq += 1

    def _run(self) -> None:
        # Everything that touches SQLite or mutable telemetry lives on
        # this thread; the event loop only sees published snapshots.
        from repro.orchestrator.runner import (
            CampaignInterrupted,
            OrchestrationContext,
        )
        from repro.orchestrator.store import RunStore

        telemetry = Telemetry()
        store = RunStore(self.store_path)
        context = OrchestrationContext(
            store=store,
            workers=self.workers,
            retries=self.retries,
            unit_timeout=self.unit_timeout,
            resume=self.resume,
            max_units=self.max_units,
            backend=self.backend,
            on_progress=lambda ctx: self._publish(ctx, telemetry),
        )
        self._context = context
        try:
            with use_telemetry(telemetry), context:
                grouped = context.run_spec_batch(
                    self.specs, self.repetitions, self.base_seed
                )
            self.aggregates = [
                {
                    "spec": spec.describe(),
                    "runs": len(runs),
                    "connectivity": (
                        sum(r.connectivity_ratio for r in runs) / len(runs)
                    ),
                }
                for spec, runs in zip(self.specs, grouped)
            ]
            self.state = "done"
        except CampaignInterrupted:
            self.state = "cancelled" if context.cancelled else "interrupted"
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._publish(context, telemetry)
            self._context = None
            store.close()
            self.finished.set()

    # ---------------------------------------------------------------- #

    def as_dict(self) -> dict:
        """JSON-ready status document (the campaign GET body)."""
        doc = {
            "id": self.campaign_id,
            "state": self.state,
            "backend": self.backend,
            "workers": self.workers,
            "specs": len(self.specs),
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "store": str(self.store_path),
            **self.tallies,
        }
        if self.error:
            doc["error"] = self.error
        if self.aggregates:
            doc["aggregates"] = self.aggregates
        return doc


class ExperimentService:
    """Campaign registry + HTTP handlers (see module docstring)."""

    def __init__(
        self,
        data_dir: str | Path | None = None,
        default_backend: str | None = None,
        default_workers: int = 1,
    ) -> None:
        self.data_dir = Path(
            data_dir
            if data_dir is not None
            else tempfile.mkdtemp(prefix="repro-service-")
        )
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.default_backend = default_backend
        self.default_workers = default_workers
        self._campaigns: dict[str, CampaignRecord] = {}
        self._seq = 0
        self.router = self._build_router()

    # ---------------------------------------------------------------- #
    # campaign registry (usable directly, without HTTP — tests do)

    def submit(self, document: dict) -> CampaignRecord:
        """Validate a campaign document, persist-register it, start it."""
        specs_doc = document.get("specs")
        if not isinstance(specs_doc, list) or not specs_doc:
            raise HttpError(400, "campaign needs a non-empty 'specs' list")
        try:
            specs = [ExperimentSpec.from_dict(d) for d in specs_doc]
        except Exception as exc:  # noqa: BLE001 - surface the parse error
            raise HttpError(400, f"bad experiment spec: {exc}")
        from repro.orchestrator.backend import available_backends, default_backend

        workers = int(document.get("workers", self.default_workers))
        repetitions = int(document.get("repetitions", 1))
        backend = document.get("backend", self.default_backend) or default_backend(
            workers, len(specs) * repetitions
        )
        if backend not in available_backends():
            raise HttpError(
                400,
                f"unknown backend {backend!r}; "
                f"available: {', '.join(available_backends())}",
            )
        self._seq += 1
        campaign_id = f"c{self._seq:04d}"
        # A campaign may name its store file (within the data dir) so a
        # later submission can resume a cancelled/interrupted campaign's
        # checkpoint; default is an isolated per-campaign store.
        store_name = str(document.get("store", f"{campaign_id}.db"))
        if "/" in store_name or store_name.startswith("."):
            raise HttpError(400, "store must be a plain filename")
        record = CampaignRecord(
            campaign_id=campaign_id,
            specs=specs,
            repetitions=repetitions,
            base_seed=int(document.get("base_seed", 0)),
            backend=backend,
            workers=workers,
            retries=int(document.get("retries", 1)),
            unit_timeout=document.get("unit_timeout"),
            max_units=document.get("max_units"),
            resume=bool(document.get("resume", True)),
            store_path=self.data_dir / store_name,
        )
        if record.repetitions < 1:
            raise HttpError(400, "repetitions must be >= 1")
        self._campaigns[campaign_id] = record
        record.start()
        return record

    def get(self, campaign_id: str) -> CampaignRecord:
        """Look up a campaign; 404 :class:`HttpError` when unknown."""
        record = self._campaigns.get(campaign_id)
        if record is None:
            raise HttpError(404, f"no campaign {campaign_id!r}")
        return record

    # ---------------------------------------------------------------- #
    # HTTP handlers

    def _build_router(self) -> Router:
        router = Router()

        @router.route("GET", "/healthz")
        async def healthz(request: Request) -> Response:
            return Response.json({"status": "ok", "campaigns": len(self._campaigns)})

        @router.route("POST", "/campaigns")
        async def create(request: Request) -> Response:
            record = self.submit(request.json())
            return Response.json(record.as_dict(), status=201)

        @router.route("GET", "/campaigns")
        async def index(request: Request) -> Response:
            return Response.json(
                {"campaigns": [c.as_dict() for c in self._campaigns.values()]}
            )

        @router.route("GET", "/campaigns/{campaign_id}")
        async def status(request: Request) -> Response:
            return Response.json(
                self.get(request.params["campaign_id"]).as_dict()
            )

        @router.route("DELETE", "/campaigns/{campaign_id}")
        async def cancel(request: Request) -> Response:
            record = self.get(request.params["campaign_id"])
            record.cancel()
            return Response.json({"id": record.campaign_id, "state": record.state})

        @router.route("GET", "/campaigns/{campaign_id}/events")
        async def events(request: Request) -> Response:
            record = self.get(request.params["campaign_id"])
            return Response(
                stream=self._event_stream(record),
                content_type="application/jsonl; charset=utf-8",
            )

        @router.route("GET", "/campaigns/{campaign_id}/export")
        async def export(request: Request) -> Response:
            record = self.get(request.params["campaign_id"])
            deterministic = request.query.get("deterministic", "1") != "0"
            if not record.store_path.exists():
                raise HttpError(409, "campaign has not started its store yet")
            from repro.orchestrator.store import RunStore

            # A fresh read connection: WAL lets this coexist with the
            # campaign thread's writer.
            fd, tmp = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                with RunStore(record.store_path) as store:
                    store.export_jsonl(tmp, deterministic=deterministic)
                with open(tmp, "rb") as fh:
                    payload = fh.read()
            finally:
                os.unlink(tmp)
            return Response(
                body=payload, content_type="application/jsonl; charset=utf-8"
            )

        return router

    async def _event_stream(self, record: CampaignRecord):
        """Yield one telemetry block per published snapshot, then stop.

        Polls the atomically-published ``(snapshot_seq, snapshot)`` pair;
        ends after the terminal block (the campaign thread always
        publishes once more in its ``finally``).
        """
        last_seq = 0
        while True:
            seq, snapshot = record.snapshot_seq, record.snapshot
            if seq > last_seq and snapshot is not None:
                last_seq = seq
                yield _render_block(
                    snapshot,
                    meta={
                        "campaign": record.campaign_id,
                        "sequence": seq,
                        "state": record.state,
                    },
                )
            if record.finished.is_set() and last_seq >= record.snapshot_seq:
                return
            await asyncio.sleep(0.05)
