"""Stable high-level API: one import for the common library workflows.

``repro.api`` is the supported front door for scripting against the
package.  It re-exports the handful of names that cover the four
standard workflows — declare and run experiments, trace runs to disk,
observe runs with telemetry, and submit durable campaigns — and adds
two one-call conveniences: :func:`simulate` (build the world, run it,
return the typed :class:`RunStats` alongside the per-sample series)
and :func:`submit_campaign` (run a multi-spec sweep through any
execution backend and get a :class:`CampaignHandle` with
``status()`` / ``result()`` / ``cancel()``).

Everything here is importable from its home module too; this facade only
promises that *these* spellings stay stable across minor versions:

>>> from repro.api import ExperimentSpec, simulate
>>> from repro.sim import ScenarioConfig
>>> result = simulate(ExperimentSpec(
...     config=ScenarioConfig(n_nodes=20, duration=6.0, sample_rate=1.0)))
>>> isinstance(result.stats.hello_messages, int)
True
"""

from __future__ import annotations

from repro.analysis.experiment import (
    AggregateResult,
    ExperimentSpec,
    RunResult,
    RunStats,
    build_manager,
    build_mobility,
    build_world,
    run_once,
    run_repetitions,
)
from repro.faults.schedule import FaultSchedule
from repro.sim.config import ScenarioConfig
from repro.sim.trace import SimulationTrace, TraceRecorder
from repro.sim.world import NetworkWorld
from repro.orchestrator.backend import (
    ExecutionBackend,
    available_backends,
    make_backend,
)
from repro.telemetry import (
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    TelemetrySummary,
    use_telemetry,
)

__all__ = [
    # experiments
    "ExperimentSpec",
    "ScenarioConfig",
    "RunStats",
    "RunResult",
    "AggregateResult",
    "simulate",
    "run_once",
    "run_repetitions",
    "build_manager",
    "build_mobility",
    "build_world",
    "NetworkWorld",
    # faults
    "FaultSchedule",
    # tracing
    "TraceRecorder",
    "SimulationTrace",
    # telemetry
    "Telemetry",
    "NullTelemetry",
    "TelemetrySummary",
    "MetricsRegistry",
    "use_telemetry",
    # campaigns
    "submit_campaign",
    "CampaignHandle",
    "CampaignStatus",
    "ExecutionBackend",
    "available_backends",
    "make_backend",
]


def simulate(
    spec: ExperimentSpec,
    seed: int = 0,
    faults: FaultSchedule | None = None,
    telemetry: Telemetry | None = None,
) -> RunResult:
    """Run one simulation of *spec* end to end and return its results.

    A readable alias of :func:`run_once` for scripting: builds the fully
    wired world (mobility, radio, topology control, optional faults and
    telemetry), advances it through every sampling instant, and returns
    the :class:`RunResult` whose ``stats`` field is the typed
    :class:`RunStats` record.

    Parameters
    ----------
    spec:
        The experiment configuration to realise.
    seed:
        Root seed; equal ``(spec, seed, faults)`` replays bit-identically.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` to arm.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` collector; its
        frozen summary lands in ``result.stats.telemetry``.
    """
    return run_once(spec, seed=seed, faults=faults, telemetry=telemetry)


# --------------------------------------------------------------------- #
# campaigns


class CampaignStatus:
    """Point-in-time snapshot of a submitted campaign.

    ``state`` is one of ``running`` / ``done`` / ``cancelled`` /
    ``interrupted`` / ``failed``; the unit tallies mirror the underlying
    :class:`~repro.orchestrator.runner.OrchestrationContext`.
    """

    __slots__ = (
        "state", "executed_units", "resumed_units", "quarantined_units",
        "error",
    )

    def __init__(
        self,
        state: str,
        executed_units: int,
        resumed_units: int,
        quarantined_units: int,
        error: str | None = None,
    ) -> None:
        self.state = state
        self.executed_units = executed_units
        self.resumed_units = resumed_units
        self.quarantined_units = quarantined_units
        self.error = error

    def __repr__(self) -> str:
        return (
            f"CampaignStatus(state={self.state!r}, "
            f"executed={self.executed_units}, resumed={self.resumed_units}, "
            f"quarantined={self.quarantined_units})"
        )


class CampaignHandle:
    """Live handle on a campaign started by :func:`submit_campaign`.

    The campaign runs on a background thread; the handle exposes
    :meth:`status` (non-blocking snapshot), :meth:`result` (block until
    terminal, return one :class:`AggregateResult` per spec), and
    :meth:`cancel` (cooperative stop — in-flight units finish and
    checkpoint, the campaign ends ``cancelled``; resubmitting against
    the same store resumes).
    """

    def __init__(self, context, specs, thread) -> None:
        self._context = context
        self._specs = specs
        self._thread = thread
        self._state = "running"
        self._error: str | None = None
        self._aggregates: list[AggregateResult] | None = None

    # Written only by the campaign thread (see submit_campaign).

    def status(self) -> CampaignStatus:
        """Snapshot the campaign without blocking."""
        return CampaignStatus(
            state=self._state,
            executed_units=self._context.executed_units,
            resumed_units=self._context.resumed_units,
            quarantined_units=len(self._context.quarantined),
            error=self._error,
        )

    def done(self) -> bool:
        """Whether the campaign has reached a terminal state."""
        return not self._thread.is_alive()

    def cancel(self) -> None:
        """Cooperatively stop the campaign (idempotent)."""
        self._context.cancel()

    def result(self, timeout: float | None = None) -> list[AggregateResult]:
        """Block until terminal; one :class:`AggregateResult` per spec.

        Raises the campaign's terminal exception when it did not finish
        cleanly — :class:`~repro.orchestrator.runner.CampaignInterrupted`
        after :meth:`cancel` or an exhausted unit budget (completed work
        is checkpointed either way).
        """
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"campaign still {self._state!r} after {timeout:g}s"
            )
        if self._raise is not None:
            raise self._raise
        assert self._aggregates is not None
        return self._aggregates

    _raise: BaseException | None = None


def submit_campaign(
    specs: list[ExperimentSpec] | ExperimentSpec,
    repetitions: int = 5,
    base_seed: int = 1000,
    *,
    backend: "str | ExecutionBackend | None" = None,
    store: str | None = None,
    workers: int = 1,
    retries: int = 1,
    unit_timeout: float | None = None,
    resume: bool = True,
    max_units: int | None = None,
    telemetry: Telemetry | None = None,
) -> CampaignHandle:
    """Run a durable sweep through an execution backend; return a handle.

    Every ``(spec, seed)`` pair becomes a content-hashed work unit
    executed by *backend* (``"inprocess"`` — synchronous, in this
    process; ``"queue"`` — work-stealing worker processes over the
    *store*; or a ready :class:`ExecutionBackend` instance).  None picks
    ``inprocess`` when ``min(workers, units)`` is 1, else ``queue``.
    Results are bit-identical across backends and worker counts — seeds,
    not schedulers, define every simulation.

    With *store* set, units checkpoint as they complete and *resume*
    skips ones already done — a cancelled or crashed campaign picks up
    where it left off.  Without one, a queue campaign runs on a
    throw-away store.  The campaign thread is not the main thread, so
    *unit_timeout* binds queue workers only.

    The campaign runs on a daemon thread; use the returned
    :class:`CampaignHandle` to poll :meth:`~CampaignHandle.status`,
    block on :meth:`~CampaignHandle.result`, or
    :meth:`~CampaignHandle.cancel`.
    """
    import threading

    from repro.analysis.experiment import aggregate_runs
    from repro.orchestrator.runner import OrchestrationContext
    from repro.orchestrator.store import RunStore

    spec_list = [specs] if isinstance(specs, ExperimentSpec) else list(specs)
    if not spec_list:
        raise ValueError("submit_campaign needs at least one spec")
    context = OrchestrationContext(
        store=None,
        workers=workers,
        retries=retries,
        unit_timeout=unit_timeout,
        resume=resume,
        max_units=max_units,
        backend=backend,
    )
    handle: CampaignHandle

    def _run() -> None:
        run_store = RunStore(store) if store is not None else None
        context.store = run_store
        try:
            if telemetry is not None:
                with use_telemetry(telemetry), context:
                    grouped = context.run_spec_batch(
                        spec_list, repetitions, base_seed
                    )
            else:
                with context:
                    grouped = context.run_spec_batch(
                        spec_list, repetitions, base_seed
                    )
            handle._aggregates = [
                aggregate_runs(spec, runs, n_repetitions=repetitions)
                for spec, runs in zip(spec_list, grouped)
            ]
            handle._state = "done"
        except BaseException as exc:  # noqa: BLE001 - re-raised in result()
            from repro.orchestrator.runner import CampaignInterrupted

            handle._raise = exc
            if isinstance(exc, CampaignInterrupted):
                handle._state = (
                    "cancelled" if context.cancelled else "interrupted"
                )
            else:
                handle._state = "failed"
                handle._error = f"{type(exc).__name__}: {exc}"
        finally:
            if run_store is not None:
                run_store.close()

    thread = threading.Thread(target=_run, name="repro-campaign", daemon=True)
    handle = CampaignHandle(context, spec_list, thread)
    thread.start()
    return handle
