"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ScheduleError",
    "ProtocolError",
    "ViewError",
    "DenseMaterializationError",
    "WorkUnitError",
    "UnitTimeoutError",
    "OrchestrationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An experiment / simulation parameter is out of its valid domain."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation entered an invalid state."""


class ScheduleError(SimulationError):
    """An event was scheduled into the past or after the engine stopped."""


class ProtocolError(ReproError, RuntimeError):
    """A topology control protocol was misused or produced invalid output."""


class ViewError(ReproError, RuntimeError):
    """A local view was queried for information it does not hold."""


class DenseMaterializationError(ReproError, RuntimeError):
    """A dense ``(n, n)`` matrix was requested above the size limit.

    Raised by :meth:`repro.geometry.csr.CSRGraph.to_dense` on a graph
    larger than ``repro.geometry.csr.DENSE_NODE_LIMIT`` nodes — the guard
    that turns an accidental multi-gigabyte allocation at scale into an
    explicit error pointing at the CSR arrays.
    """


class WorkUnitError(ReproError, RuntimeError):
    """One (spec, seed) work unit failed in a worker.

    Raised instead of a bare pickled worker traceback so the error names
    the failing unit.  Constructed with ``(label, seed, message)`` and
    kept pickle-round-trippable (multiprocessing re-raises it in the
    parent via ``__init__(*args)``).
    """

    def __init__(self, label: str, seed: int, message: str) -> None:
        super().__init__(label, seed, message)
        self.label = label
        self.seed = seed
        self.message = message

    def __str__(self) -> str:
        return f"work unit {self.label!r} (seed {self.seed}) failed: {self.message}"


class UnitTimeoutError(WorkUnitError):
    """A work unit exceeded its per-unit wall-clock budget."""


class OrchestrationError(ReproError, RuntimeError):
    """A campaign could not produce results (e.g. every unit quarantined)."""
