"""Execution backends for campaign orchestration.

The :class:`~repro.orchestrator.runner.OrchestrationContext` runs every
campaign unit through one small protocol — :class:`ExecutionBackend` —
with two implementations:

:class:`InProcessBackend`
    Executes one unit per :meth:`~ExecutionBackend.poll` call, inline,
    with no threads or processes.  The default whenever the effective
    fan-out ``min(workers, units)`` is 1: tests step it
    deterministically, and cancellation is exact (nothing is in flight
    between polls).

:class:`QueueBackend`
    The only parallel engine: work stealing over a shared
    :class:`RunStore`.  Worker processes claim pending units by
    content-hash ID under a lease (schema v2), execute them, and record
    outcomes straight into the store.  Stalled or crashed workers lose
    their leases and other workers reclaim the units, so the campaign
    converges regardless of which worker dies.  Results remain
    bit-identical to a cold run — seeds, not schedulers, define every
    simulation.

Backends are registered by name (``available_backends`` /
``make_backend``) so the CLI ``--backend`` flag, the HTTP service, and
``repro.api.submit_campaign`` all share one taxonomy;
:func:`default_backend` picks between the two when none is named.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.orchestrator.store import RunStore
from repro.util.errors import ConfigurationError

__all__ = [
    "BackendCapabilities",
    "UnitOutcome",
    "ExecutionBackend",
    "InProcessBackend",
    "QueueBackend",
    "available_backends",
    "default_backend",
    "make_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, queried by the orchestration layer.

    ``writes_store`` is the load-bearing flag: a backend that records
    outcomes into the :class:`RunStore` itself (the queue workers do, so
    a crash between execute and report loses nothing) tells the context
    *not* to re-record them on receipt.
    """

    name: str
    parallel: bool
    supports_cancel: bool
    writes_store: bool


@dataclass(frozen=True)
class UnitOutcome:
    """One finished unit as reported by a backend.

    Either ``result`` (the JSON-ready result document) or ``error`` (the
    final failure string after retries) is set, never both.  ``events``
    holds the retained telemetry events of a traced unit that ran in
    this process; units run elsewhere ship only their summary.
    """

    unit_id: str
    ok: bool
    attempts: int
    result: dict | None = None
    error: str | None = None
    events: tuple = ()


class ExecutionBackend(ABC):
    """Protocol between the orchestration context and an execution engine.

    Lifecycle: one :meth:`submit_units` call hands the backend a batch of
    payloads (``{unit_id: payload}``, payloads as consumed by
    :func:`~repro.orchestrator.runner.execute_unit`); the caller then
    drains :meth:`poll` until :meth:`done`; :meth:`cancel` asks the
    backend to stop launching new units (in-flight ones still report).
    A backend instance serves one batch; :meth:`close` releases whatever
    it holds.
    """

    @abstractmethod
    def submit_units(self, payloads: dict[str, dict]) -> None:
        """Accept a batch of unit payloads for execution."""

    @abstractmethod
    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        """Return outcomes that completed since the last poll.

        May block up to *timeout* seconds waiting for the first one; an
        empty list means nothing finished in that window (call
        :meth:`done` to distinguish "still working" from "drained").
        """

    @abstractmethod
    def cancel(self) -> None:
        """Stop launching new units; in-flight units still report."""

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of this backend."""

    @abstractmethod
    def done(self) -> bool:
        """Whether every submitted unit has reported (or been cancelled)."""

    def close(self) -> None:
        """Release threads/processes; idempotent."""


# --------------------------------------------------------------------- #


class InProcessBackend(ExecutionBackend):
    """Synchronous reference backend: one unit per :meth:`poll` call.

    No threads, no processes — execution happens inside ``poll`` itself,
    so tests can single-step a campaign and cancellation between polls
    is exact.  A failing unit is retried up to ``retries`` more times,
    then reported as failed (quarantined); the rest of the batch still
    runs.  The per-unit timeout holds only when ``poll`` runs on the
    main thread.
    """

    def __init__(self, retries: int = 1) -> None:
        from repro.orchestrator.runner import run_unit

        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._run = run_unit
        self.retries = int(retries)
        self._pending: deque[tuple[str, dict]] = deque()
        self._cancelled = False

    def submit_units(self, payloads: dict[str, dict]) -> None:
        if not self._cancelled:
            self._pending.extend(payloads.items())

    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        if self._cancelled or not self._pending:
            return []
        uid, payload = self._pending.popleft()
        attempts = 0
        while True:
            attempts += 1
            try:
                result, telemetry = self._run(payload)
            except Exception as exc:
                if attempts <= self.retries:
                    continue
                return [UnitOutcome(uid, ok=False, attempts=attempts,
                                    error=str(exc))]
            events = tuple(telemetry.events) if telemetry is not None else ()
            return [UnitOutcome(uid, ok=True, attempts=attempts,
                                result=result, events=events)]

    def cancel(self) -> None:
        self._cancelled = True
        self._pending.clear()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="inprocess", parallel=False,
            supports_cancel=True, writes_store=False,
        )

    def done(self) -> bool:
        return self._cancelled or not self._pending


# --------------------------------------------------------------------- #


# --------------------------------------------------------------------- #
# QueueBackend: work-stealing workers over a shared RunStore


def _run_one_claim(
    store: RunStore,
    owner: str,
    unit_ids: list[str],
    unit_timeout: float | None,
    telemetry: bool,
    retries: int,
    lease_seconds: float,
) -> bool:
    """Claim one pending unit of *unit_ids*, execute it, record the outcome.

    Returns False when nothing was claimable.  While the unit runs, a
    heartbeat thread keeps its lease fresh.  On a failure within the
    retry budget the lease is released so any worker (this one included)
    can reclaim the unit; past the budget the unit is quarantined.
    """
    from repro.orchestrator.runner import execute_unit

    max_attempts = retries + 1
    claimed = store.claim_units(
        owner, limit=1, lease_seconds=lease_seconds,
        max_attempts=max_attempts, unit_ids=unit_ids,
    )
    if not claimed:
        return False
    row = claimed[0]
    payload = {
        "spec_json": row.spec_json,
        "seed": row.seed,
        "timeout": unit_timeout,
        "telemetry": telemetry,
    }
    beat_done = threading.Event()

    def _beat() -> None:
        # SQLite connections are per-thread: the heartbeat opens its own,
        # and only once the unit outlives its first beat interval.
        beats = None
        while not beat_done.wait(lease_seconds / 3.0):
            beats = beats or RunStore(store.path)
            beats.heartbeat(owner, [row.unit_id], lease_seconds)
        if beats is not None:
            beats.close()

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        document, failure = execute_unit(payload), None
    except Exception as exc:
        document, failure = None, exc
    finally:
        beat_done.set()
        beater.join(timeout=5.0)
    if failure is None:
        store.record_result(_row_unit(row), document, attempts=row.attempts)
    elif row.attempts >= max_attempts:
        store.record_quarantine(
            _row_unit(row), str(failure), attempts=row.attempts
        )
    else:
        store.release_unit(row.unit_id)
    return True


def _queue_worker_main(
    store_path: str,
    owner: str,
    batch: str,
    unit_ids: list[str],
    unit_timeout: float | None,
    telemetry: bool,
    retries: int,
    lease_seconds: float,
) -> None:
    """Worker process body: :func:`_run_one_claim` until drained.

    Runs against its *own* store connection (never the parent's) and
    claims only the batch's *unit_ids*, until the batch is drained or
    *batch* is cancelled.  A worker that dies mid-unit simply lets its
    lease expire — :meth:`RunStore.claim_units` hands the unit to someone
    else and quarantines it once it has burned ``retries + 1`` claims.
    """
    store = RunStore(store_path)
    try:
        while not store.cancel_requested(batch):
            if _run_one_claim(
                store, owner, unit_ids, unit_timeout, telemetry,
                retries, lease_seconds,
            ):
                continue
            # Nothing claimable right now.  Exit only once the batch has
            # no pending unit; otherwise some other worker holds live
            # leases — linger so this worker can steal them if that
            # worker stalls and the leases expire.
            if store.counts(unit_ids)["pending"] == 0:
                return
            time.sleep(min(1.0, lease_seconds / 4.0))
    finally:
        store.close()


def _row_unit(row):
    """Rebuild the WorkUnit a store row was registered from."""
    from repro.analysis.experiment import ExperimentSpec
    from repro.orchestrator.units import WorkUnit

    return WorkUnit(
        spec=ExperimentSpec.from_json(row.spec_json),
        seed=row.seed,
        spec_json=row.spec_json,
    )


class QueueBackend(ExecutionBackend):
    """Work-stealing execution over a shared :class:`RunStore`.

    ``workers`` processes each run :func:`_queue_worker_main`: claim a
    pending unit under a lease, execute it, record the outcome directly
    into the store (``writes_store``), repeat until the batch drains or
    its cancel flag is set in the store's control table.  Submission
    resets the submitted rows to ``pending``, so every submitted unit
    executes afresh, whatever an earlier campaign left in its row.  The
    parent's :meth:`poll` watches the store for newly-settled unit IDs
    and reports them as :class:`UnitOutcome` objects.

    ``workers=0`` is the *inline drain* mode: ``poll`` runs one
    :func:`_run_one_claim` cycle — the worker's own step — in the
    calling process, which is what the conformance tests step through.

    Duplicate execution (two workers racing one unit across a lease
    expiry) is harmless by construction: units are content-addressed and
    results are idempotent upserts, so the second writer converges on
    the same row.
    """

    def __init__(
        self,
        store: RunStore | str | Path | None = None,
        workers: int = 2,
        retries: int = 1,
        lease_seconds: float = 60.0,
        unit_timeout: float | None = None,
        respawn_budget: int | None = None,
    ) -> None:
        if store is None:
            raise ConfigurationError(
                "QueueBackend needs a RunStore (or its path): the store "
                "is the work queue"
            )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._owns_store = not isinstance(store, RunStore)
        self._store = RunStore(store) if self._owns_store else store
        self.workers = int(workers)
        self.retries = int(retries)
        self.lease_seconds = float(lease_seconds)
        self.unit_timeout = unit_timeout
        self.respawn_budget = (
            int(respawn_budget) if respawn_budget is not None
            else max(2, 2 * max(1, self.workers))
        )
        self._procs: list = []
        # Scopes this backend's cancel flag in the store, so cancelling
        # one batch never stops another batch sharing the store.
        self._batch = uuid.uuid4().hex
        self._watch: dict[str, bool] = {}
        self._telemetry = False
        self._cancelled = False

    # ---------------------------------------------------------------- #

    def submit_units(self, payloads: dict[str, dict]) -> None:
        # Units are already registered as pending rows by the context;
        # the store is the queue, so submission is just bookkeeping plus
        # worker spawn.  Per-batch execution knobs ride on the backend.
        if self._cancelled:
            return
        self._store.reset_units(list(payloads))
        for uid, payload in payloads.items():
            self._watch.setdefault(uid, False)
            self._telemetry = bool(payload.get("telemetry"))
            if payload.get("timeout") is not None:
                self.unit_timeout = payload["timeout"]
        if self.workers > 0 and not self._procs:
            self._spawn(min(self.workers, len(payloads)))

    def _spawn(self, n: int) -> None:
        import multiprocessing as mp

        for _ in range(n):
            owner = f"worker-{os.getpid()}-{len(self._procs)}"
            proc = mp.Process(
                target=_queue_worker_main,
                args=(
                    str(self._store.path), owner, self._batch,
                    list(self._watch),
                    self.unit_timeout,
                    self._telemetry, self.retries, self.lease_seconds,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        if self.workers == 0 and not self._store.cancel_requested(self._batch):
            _run_one_claim(
                self._store, f"inline-{os.getpid()}", list(self._watch),
                self.unit_timeout, self._telemetry, self.retries,
                self.lease_seconds,
            )
        out = self._collect_settled()
        if self.workers > 0:
            self._reap_and_respawn()
            if not out and not self.done():
                # A worker exits right after recording the batch's last
                # unit: wake on that instead of sleeping out the window.
                from multiprocessing.connection import wait

                wait([p.sentinel for p in self._procs], min(timeout, 0.1))
                out = self._collect_settled()
        return out

    def _collect_settled(self) -> list[UnitOutcome]:
        fresh = [uid for uid, seen in self._watch.items() if not seen]
        out: list[UnitOutcome] = []
        if not fresh:
            return out
        for row in self._store.units(unit_ids=fresh):
            if row.status == "done":
                out.append(
                    UnitOutcome(
                        row.unit_id, ok=True, attempts=row.attempts,
                        result=json.loads(row.result_json),
                    )
                )
                self._watch[row.unit_id] = True
            elif row.status == "quarantined":
                out.append(
                    UnitOutcome(
                        row.unit_id, ok=False, attempts=row.attempts,
                        error=row.error or "quarantined",
                    )
                )
                self._watch[row.unit_id] = True
        return out

    def _reap_and_respawn(self) -> None:
        live = [p for p in self._procs if p.is_alive()]
        died = len(self._procs) - len(live)
        self._procs = live
        if died and not self._cancelled and self.respawn_budget > 0:
            remaining = any(not seen for seen in self._watch.values())
            if remaining and not self._store.cancel_requested(self._batch):
                n = min(died, self.respawn_budget)
                self.respawn_budget -= n
                self._spawn(n)

    def cancel(self) -> None:
        self._cancelled = True
        self._store.request_cancel(self._batch)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="queue", parallel=self.workers != 1,
            supports_cancel=True, writes_store=True,
        )

    def done(self) -> bool:
        if all(self._watch.values()):
            return True
        if self._cancelled:
            return not any(p.is_alive() for p in self._procs)
        if self.workers == 0:
            # Inline mode is done when nothing is claimable any more
            # (cancelled, or every watched unit settled — handled above).
            return self._store.cancel_requested(self._batch)
        if any(p.is_alive() for p in self._procs):
            return False
        # No live workers and unsettled units remain: done only once the
        # respawn budget is spent (poll respawns while budget lasts).
        return self.respawn_budget <= 0

    def close(self) -> None:
        # Once every watched unit has settled, live workers are idle
        # lingerers holding no lease of this batch: stop them rather
        # than wait out their poll sleep.  Otherwise (a cancel) let
        # in-flight units finish and checkpoint.
        settled = all(self._watch.values())
        for proc in self._procs:
            if settled and proc.is_alive():
                proc.terminate()
            if proc.is_alive():
                proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._procs = []
        if self._owns_store:
            self._store.close()


# --------------------------------------------------------------------- #
# registry

_BACKENDS = {
    "inprocess": InProcessBackend,
    "queue": QueueBackend,
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, stable order (CLI choices, docs)."""
    return tuple(_BACKENDS)


def default_backend(workers: int, n_units: int) -> str:
    """The backend used when none is named, from the effective fan-out.

    ``inprocess`` when ``min(workers, n_units)`` is 1 (nothing to fan
    out), else ``queue``.
    """
    return "queue" if min(workers, n_units) > 1 else "inprocess"


def make_backend(name: str, **options) -> ExecutionBackend:
    """Build a backend by registry name.

    *options* are forwarded to the backend constructor; unknown names
    raise :class:`~repro.util.errors.ConfigurationError` listing the
    taxonomy, so CLI/service errors teach the valid choices.
    """
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls(**options)
