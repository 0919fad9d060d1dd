"""Telemetry subsystem: metrics registry, timing spans, event tracing.

Everything the paper's evaluation counts — Hello overhead, removed links,
delivery under stale views — flows through here when a run is armed with a
:class:`Telemetry` collector; the disarmed default (:class:`NullTelemetry`)
takes the same calls and records nothing, so arming changes no decision.
See ``docs/OBSERVABILITY.md`` for the event taxonomy, span phases, and
exporter formats.

Quickstart
----------
>>> from repro.telemetry import Telemetry
>>> tel = Telemetry()
>>> with tel.span("demo"):
...     tel.count("widgets", 2)
>>> tel.summary().as_dict()["counters"]
{'widgets': 2.0}
"""

from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    SpanStats,
    Telemetry,
    TelemetrySummary,
)
from repro.telemetry.events import EVENT_KINDS, EventLog, TelemetryEvent
from repro.telemetry.export import (
    PHASES_SCHEMA,
    SCHEMA,
    summary_table,
    write_jsonl,
    write_phase_timings,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.runtime import current_telemetry, use_telemetry
from repro.telemetry.schema import validate_jsonl

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetrySummary",
    "SpanStats",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "TelemetryEvent",
    "EVENT_KINDS",
    "SCHEMA",
    "PHASES_SCHEMA",
    "write_jsonl",
    "summary_table",
    "write_phase_timings",
    "validate_jsonl",
    "current_telemetry",
    "use_telemetry",
]
