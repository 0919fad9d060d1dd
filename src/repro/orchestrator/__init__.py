"""Durable campaign orchestration: units, store, backends, resumable sweeps.

Public surface:

- :class:`~repro.orchestrator.units.WorkUnit` / :func:`~repro.orchestrator.units.unit_id`
  — content-hashed identity of one (spec, seed) repetition;
- :class:`~repro.orchestrator.store.RunStore` — SQLite-WAL checkpoint
  database with idempotent upserts and JSONL/CSV export;
- :class:`~repro.orchestrator.backend.ExecutionBackend` and its two
  implementations — ``inprocess`` (the default at a fan-out of 1) and
  ``queue`` (the only parallel engine);
- :class:`~repro.orchestrator.runner.OrchestrationContext` +
  :func:`~repro.orchestrator.context.use_orchestrator` — the campaign
  pipeline every sweep routes through;
- :class:`~repro.orchestrator.runner.CampaignInterrupted` — the budgeted
  interruption used by resumable/CI smoke runs.

See ``docs/ORCHESTRATION.md`` for the unit model, store schema, and
resume/retry semantics.

Attribute access is lazy (PEP 562): :mod:`repro.analysis.experiment`
imports :mod:`repro.orchestrator.context` at module load, so the package
root must not eagerly import the runner (which imports the experiment
layer back).
"""

from __future__ import annotations

from repro.orchestrator.context import current_orchestrator, use_orchestrator

__all__ = [
    "SCHEMA_VERSION",
    "WorkUnit",
    "unit_id",
    "content_unit_id",
    "RunStore",
    "UnitRow",
    "STORE_SCHEMA_VERSION",
    "QuarantinedUnit",
    "ExecutionBackend",
    "BackendCapabilities",
    "UnitOutcome",
    "InProcessBackend",
    "QueueBackend",
    "available_backends",
    "default_backend",
    "make_backend",
    "OrchestrationContext",
    "CampaignInterrupted",
    "execute_unit",
    "result_to_dict",
    "result_from_dict",
    "current_orchestrator",
    "use_orchestrator",
]

_LAZY = {
    "SCHEMA_VERSION": "repro.orchestrator.units",
    "WorkUnit": "repro.orchestrator.units",
    "unit_id": "repro.orchestrator.units",
    "content_unit_id": "repro.orchestrator.units",
    "RunStore": "repro.orchestrator.store",
    "UnitRow": "repro.orchestrator.store",
    "STORE_SCHEMA_VERSION": "repro.orchestrator.store",
    "QuarantinedUnit": "repro.orchestrator.runner",
    "ExecutionBackend": "repro.orchestrator.backend",
    "BackendCapabilities": "repro.orchestrator.backend",
    "UnitOutcome": "repro.orchestrator.backend",
    "InProcessBackend": "repro.orchestrator.backend",
    "QueueBackend": "repro.orchestrator.backend",
    "available_backends": "repro.orchestrator.backend",
    "default_backend": "repro.orchestrator.backend",
    "make_backend": "repro.orchestrator.backend",
    "OrchestrationContext": "repro.orchestrator.runner",
    "CampaignInterrupted": "repro.orchestrator.runner",
    "execute_unit": "repro.orchestrator.runner",
    "result_to_dict": "repro.orchestrator.results",
    "result_from_dict": "repro.orchestrator.results",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
