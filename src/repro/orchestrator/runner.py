"""Campaign orchestration: checkpointed, resumable, fault-contained sweeps.

An :class:`OrchestrationContext` is the one way campaign units run.
Every sweep that reaches :func:`repro.analysis.experiment.run_repetitions_many`
goes through one: the ambient context armed with
:func:`~repro.orchestrator.context.use_orchestrator` when there is one,
else a store-less context the sweep opens itself.  The sweep decomposes
into content-hashed :class:`~repro.orchestrator.units.WorkUnit` objects
that flow through this pipeline:

1. **Resume** — units whose ID is already ``done`` in the
   :class:`~repro.orchestrator.store.RunStore` are loaded, not re-run.
2. **Execute** — the rest flow through an
   :class:`~repro.orchestrator.backend.ExecutionBackend`:
   ``inprocess`` when the effective fan-out ``min(workers, units)`` is
   1, else ``queue`` (worker processes stealing leased units from the
   store — a throw-away one in a temporary directory when the context
   has none).  Each completed unit is upserted into the store
   *immediately*, so a kill at any instant loses at most the in-flight
   units; failures are retried, then quarantined.
3. **Merge** — results are returned in seed order; per-unit telemetry
   summaries (and, for in-process units, their retained events) are
   absorbed into the ambient collector when one is armed.

Aggregates are bit-identical to a cold, store-less run at any worker
count: unit results always pass through the exact JSON round trip of
:mod:`repro.orchestrator.results`, and seeds — not schedulers — define
every simulation.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.experiment import ExperimentSpec, RunResult, run_once
from repro.orchestrator.backend import (
    ExecutionBackend,
    default_backend,
    make_backend,
)
from repro.orchestrator.context import use_orchestrator
from repro.orchestrator.results import result_from_dict, result_to_dict
from repro.orchestrator.store import RunStore
from repro.orchestrator.units import WorkUnit
from repro.telemetry.core import Telemetry, TelemetrySummary, collector
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.runtime import current_telemetry
from repro.util.errors import OrchestrationError, UnitTimeoutError, WorkUnitError

__all__ = [
    "CampaignInterrupted",
    "OrchestrationContext",
    "QuarantinedUnit",
    "execute_unit",
    "run_unit",
    "install_unit_timeout",
    "clear_unit_timeout",
]


class CampaignInterrupted(OrchestrationError):
    """The campaign stopped before every unit ran.

    Raised when the unit budget (``max_units``) runs out mid-campaign or
    when :meth:`OrchestrationContext.cancel` is called.  Everything
    executed so far is already persisted; rerun with resume to continue
    from the checkpoint.
    """


@dataclass(frozen=True)
class QuarantinedUnit:
    """One unit that exhausted its retry budget, with its final error."""

    unit_id: str
    label: str
    seed: int
    attempts: int
    error: str

    def __str__(self) -> str:
        return (
            f"{self.label} (seed {self.seed}, unit {self.unit_id[:12]}): "
            f"{self.error} [after {self.attempts} attempt(s)]"
        )


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


def _timeout_error(timeout: float) -> UnitTimeoutError:
    return UnitTimeoutError(
        "<unit>", -1, f"exceeded per-unit timeout of {timeout:g}s"
    )


def install_unit_timeout(timeout: float | None) -> bool:
    """Arm a SIGALRM-based wall-clock bound in the *current* process.

    Called at the top of each unit; returns whether a timer was armed.
    No-op when *timeout* is falsy, the platform lacks ``SIGALRM``, or the
    caller is not the main thread (signal handlers can only be installed
    there): such units run unbounded rather than failing.
    """
    if not timeout or not _on_main_thread():
        return False
    import signal

    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        return False

    def _on_timeout(signum: int, frame: object) -> None:
        raise _timeout_error(timeout)

    signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    return True


def clear_unit_timeout() -> None:
    """Disarm a previously installed per-unit timer (unit epilogue)."""
    if not _on_main_thread():
        return
    import signal

    if hasattr(signal, "SIGALRM"):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_unit(payload: dict) -> tuple[dict, Telemetry | None]:
    """Run one unit; return its result document and per-unit collector.

    *payload* is ``{"spec_json", "seed", "timeout", "telemetry"}``.  Runs
    under a SIGALRM wall-clock bound when a timeout is set, traces the
    run with a collector of its own when asked (so the stored result is
    the same on every backend), and wraps any failure in a
    :class:`~repro.util.errors.WorkUnitError` naming the (spec, seed)
    unit.
    """
    spec = ExperimentSpec.from_json(payload["spec_json"])
    seed = int(payload["seed"])
    telemetry = Telemetry() if payload.get("telemetry") else None
    timeout = payload.get("timeout")
    started = time.monotonic()
    armed = install_unit_timeout(timeout)
    try:
        result = run_once(spec, seed=seed, telemetry=telemetry)
        if armed and time.monotonic() - started > timeout:
            # The alarm went off inside a finalizer, where Python prints
            # and drops exceptions: the unit ran over all the same.
            raise _timeout_error(timeout)
    except WorkUnitError:
        raise
    except Exception as exc:
        raise WorkUnitError(
            spec.describe(), seed, f"{type(exc).__name__}: {exc}"
        ) from exc
    finally:
        clear_unit_timeout()
    return result_to_dict(result), telemetry


def execute_unit(payload: dict) -> dict:
    """Worker entry point: :func:`run_unit`'s result document alone.

    Top-level and payload-picklable by construction, so queue worker
    processes can run it.
    """
    return run_unit(payload)[0]


@dataclass
class OrchestrationContext:
    """One durable campaign: a store, an execution policy, live tallies.

    Parameters
    ----------
    store:
        Checkpoint database; None runs the same fault-contained pipeline
        without persistence (retry/quarantine still apply).
    workers:
        Process fan-out (1 = in-process).
    retries:
        Extra attempts per unit before quarantine.
    unit_timeout:
        Per-unit wall-clock bound in seconds (enforced in queue worker
        processes and on the main thread; units run in-process on any
        other thread are unbounded).
    resume:
        Skip units already ``done`` in the store.  Off, every unit
        re-executes (and idempotently overwrites its row).
    max_units:
        Execute at most this many *fresh* units, then raise
        :class:`CampaignInterrupted` (budgeted runs; the interrupted-
        resume tests and CI smoke use it to kill campaigns mid-sweep).
    backend:
        Execution engine: a registry name (``"inprocess"``,
        ``"queue"``) or a ready :class:`ExecutionBackend` instance.
        None picks per batch: ``inprocess`` when the effective fan-out
        ``min(workers, units)`` is 1, else ``queue``.
    on_progress:
        Optional hook called (with this context) after each settled
        unit batch — the HTTP service hangs live telemetry snapshots
        off it.

    Attributes
    ----------
    executed_units:
        Fresh executions this context performed (excludes resumed units).
    resumed_units:
        Units served straight from the store.
    quarantined:
        Every unit that exhausted its retries, with its final error.
    """

    store: RunStore | None = None
    workers: int = 1
    retries: int = 1
    unit_timeout: float | None = None
    resume: bool = True
    max_units: int | None = None
    backend: "str | ExecutionBackend | None" = None
    on_progress: Callable[["OrchestrationContext"], None] | None = None
    executed_units: int = 0
    resumed_units: int = 0
    quarantined: list[QuarantinedUnit] = field(default_factory=list)
    cancelled: bool = False

    def __enter__(self) -> "OrchestrationContext":
        self._token_ctx = use_orchestrator(self)
        return self._token_ctx.__enter__()

    def __exit__(self, *exc_info: object) -> None:
        self._token_ctx.__exit__(*exc_info)

    # ------------------------------------------------------------------ #

    def run_spec_batch(
        self,
        specs: list[ExperimentSpec],
        repetitions: int,
        base_seed: int,
    ) -> list[list[RunResult]]:
        """Run every (spec, seed) unit of a sweep batch; group per spec.

        Returns one seed-ordered result list per spec, with quarantined
        units omitted.  A spec whose *every* repetition was quarantined
        raises :class:`~repro.util.errors.OrchestrationError` naming it.
        """
        batches = [
            [WorkUnit(spec=spec, seed=base_seed + i, spec_json=spec_json)
             for i in range(repetitions)]
            for spec, spec_json in ((s, s.to_json()) for s in specs)
        ]
        results = self.run_units([u for batch in batches for u in batch])
        out: list[list[RunResult]] = []
        for spec, batch in zip(specs, batches):
            runs = [results[u.unit_id] for u in batch if u.unit_id in results]
            if not runs:
                failed = "; ".join(
                    str(q) for q in self.quarantined
                    if any(q.unit_id == u.unit_id for u in batch)
                )
                raise OrchestrationError(
                    f"every repetition of {spec.describe()!r} was quarantined: "
                    f"{failed or 'no units completed'}"
                )
            out.append(runs)
        return out

    def run_units(self, units: list[WorkUnit]) -> dict[str, RunResult]:
        """Execute (or resume) work units; return results keyed by unit ID.

        Duplicate IDs within the batch execute once.  Fresh results are
        upserted into the store as they complete; quarantined units are
        recorded and *omitted* from the returned mapping.
        """
        unique: dict[str, WorkUnit] = {}
        for unit in units:
            unique.setdefault(unit.unit_id, unit)
        if self.store is not None:
            self.store.register(list(unique.values()))

        telemetry = collector(current_telemetry())

        results: dict[str, RunResult] = {}
        if self.store is not None and self.resume:
            for uid, payload in self.store.completed(list(unique)).items():
                unit = unique[uid]
                results[uid] = result_from_dict(unit.spec, unit.seed, payload)
                self.resumed_units += 1
                self._absorb(telemetry, results[uid])

        to_run = [unit for uid, unit in unique.items() if uid not in results]
        interrupted = False
        if self.max_units is not None:
            budget = self.max_units - self.executed_units
            if len(to_run) > budget:
                to_run = to_run[: max(0, budget)]
                interrupted = True

        if to_run:
            payloads = {
                unit.unit_id: {
                    "spec_json": unit.spec_json,
                    "seed": unit.seed,
                    "timeout": self.unit_timeout,
                    "telemetry": telemetry.enabled,
                }
                for unit in to_run
            }
            by_id = {unit.unit_id: unit for unit in to_run}
            with ExitStack() as cleanup:
                backend = self._resolve_backend(to_run, cleanup)
                self._drive_backend(backend, payloads, by_id, results, telemetry)

        if self.cancelled:
            raise CampaignInterrupted(
                f"campaign cancelled after {self.executed_units} fresh "
                f"unit(s); completed work is checkpointed — rerun with "
                f"--resume to continue"
            )
        if interrupted:
            raise CampaignInterrupted(
                f"unit budget exhausted after {self.executed_units} fresh "
                f"unit(s); completed work is checkpointed — rerun with "
                f"--resume to continue"
            )
        return results

    # ------------------------------------------------------------------ #

    def _resolve_backend(
        self, to_run: list[WorkUnit], cleanup: ExitStack
    ) -> ExecutionBackend:
        """Build (or pass through) the execution backend for one batch.

        A queue batch without a context store runs on a throw-away
        store in a temporary directory, removed by *cleanup*.
        """
        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        name = self.backend or default_backend(self.workers, len(to_run))
        if name != "queue":
            return make_backend(name, retries=self.retries)
        store = self.store
        if store is None:
            tmp = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-queue-")
            )
            store = cleanup.enter_context(RunStore(Path(tmp) / "queue.db"))
            store.register(to_run)
        return make_backend(
            "queue", store=store, workers=self.workers,
            retries=self.retries, unit_timeout=self.unit_timeout,
        )

    def cancel(self) -> None:
        """Stop the in-flight campaign (thread-safe, cooperative).

        In-flight units finish and checkpoint; unstarted units stay
        pending.  The driving :meth:`run_units` call then raises
        :class:`CampaignInterrupted`, exactly like an exhausted unit
        budget — resume continues from the checkpoint.
        """
        self.cancelled = True
        backend = getattr(self, "_active_backend", None)
        if backend is not None:
            backend.cancel()

    def _drive_backend(
        self,
        backend: ExecutionBackend,
        payloads: dict[str, dict],
        by_id: dict[str, WorkUnit],
        results: dict[str, RunResult],
        telemetry: Telemetry,
    ) -> None:
        """Submit one batch and drain outcomes until the backend is done."""
        record = not backend.capabilities().writes_store
        self._active_backend = backend
        try:
            if self.cancelled:
                backend.cancel()
            backend.submit_units(payloads)
            while True:
                outcomes = backend.poll()
                for outcome in outcomes:
                    unit = by_id[outcome.unit_id]
                    if outcome.ok:
                        if self.store is not None and record:
                            self.store.record_result(
                                unit, outcome.result, attempts=outcome.attempts
                            )
                        results[outcome.unit_id] = result_from_dict(
                            unit.spec, unit.seed, outcome.result
                        )
                        self.executed_units += 1
                        self._absorb(
                            telemetry, results[outcome.unit_id], outcome.events
                        )
                    else:
                        if self.store is not None and record:
                            self.store.record_quarantine(
                                unit, outcome.error, attempts=outcome.attempts
                            )
                        self.quarantined.append(
                            QuarantinedUnit(
                                unit_id=outcome.unit_id,
                                label=unit.spec.describe(),
                                seed=unit.seed,
                                attempts=outcome.attempts,
                                error=outcome.error,
                            )
                        )
                if outcomes and self.on_progress is not None:
                    self.on_progress(self)
                if backend.done():
                    break
        finally:
            self._active_backend = None
            backend.close()

    # ------------------------------------------------------------------ #

    @staticmethod
    def _absorb(
        telemetry: Telemetry,
        result: RunResult,
        events: tuple[TelemetryEvent, ...] = (),
    ) -> None:
        summary = result.stats.telemetry
        if isinstance(summary, TelemetrySummary):
            # The seed orders gauge resolution: merged gauges are then a
            # pure function of the unit set, not of completion order.
            telemetry.absorb(summary, source=result.seed, events=events)

    def summary_line(self) -> str:
        """One-line progress digest for CLI epilogues."""
        parts = [
            f"{self.executed_units} executed",
            f"{self.resumed_units} resumed",
            f"{len(self.quarantined)} quarantined",
        ]
        if self.store is not None:
            tally = self.store.counts()
            parts.append(
                "store: " + ", ".join(f"{n} {s}" for s, n in tally.items())
            )
        return "; ".join(parts)
