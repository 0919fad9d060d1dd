"""The telemetry façade: registry + spans + event log behind one object.

A :class:`Telemetry` instance is what the simulator seams talk to: it
bundles a :class:`~repro.telemetry.registry.MetricsRegistry`, a bounded
:class:`~repro.telemetry.events.EventLog`, and nested monotonic-clock
timing spans.  :class:`NullTelemetry` is the disarmed twin — every method
is a no-op and ``enabled`` is False — so the world and its components
hold one collector, armed or not, and call it without branching
(:func:`collector` turns a missing one into :data:`NULL_TELEMETRY`).  A
disarmed call costs one no-op method call.

Spans nest: entering ``span("decide")`` inside ``span("engine_run")``
attributes the inner duration to both the inner span's *total* time and
subtracts it from the outer span's *self* time, so per-phase breakdowns
("where did the run go?") add up without double counting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.telemetry.events import EventLog, TelemetryEvent
from repro.telemetry.registry import Gauge, Histogram, MetricsRegistry

__all__ = [
    "SpanStats",
    "TelemetrySummary",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "collector",
]


@dataclass
class SpanStats:
    """Aggregated timings of one span name.

    ``total_s`` is wall time between enter and exit; ``self_s`` excludes
    time spent inside nested child spans, so summing ``self_s`` over all
    names recovers (almost exactly) the instrumented wall clock once.
    """

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def record(self, duration: float, self_time: float) -> None:
        """Fold one completed span instance into the aggregate."""
        self.count += 1
        self.total_s += duration
        self.self_s += self_time
        if duration < self.min_s:
            self.min_s = duration
        if duration > self.max_s:
            self.max_s = duration

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for summaries and exports."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "mean_s": self.total_s / self.count if self.count else 0.0,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


def _parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a summary series key ``name{k=v,...}`` back into name + labels.

    Inverse of the key format :meth:`Telemetry.summary` emits.  Label
    values in the shipped taxonomy are plain identifiers (``reason=loss``,
    ``outcome=hit``), so the split on ``,`` / ``=`` is unambiguous.
    """
    if "{" not in key:
        return key, {}
    name, _, tag = key.partition("{")
    labels: dict[str, str] = {}
    for pair in tag[:-1].split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class _Span:
    """Context manager for one span instance (internal)."""

    __slots__ = ("_telemetry", "name", "_start", "_child_time")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name
        self._start = 0.0
        self._child_time = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._span_stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        tel = self._telemetry
        tel._span_stack.pop()
        if tel._span_stack:
            tel._span_stack[-1]._child_time += duration
        stats = tel.spans.get(self.name)
        if stats is None:
            stats = tel.spans[self.name] = SpanStats()
        stats.record(duration, duration - self._child_time)


@dataclass(frozen=True)
class TelemetrySummary:
    """Frozen, export-ready digest of one telemetry object.

    All fields are sorted tuples of plain scalars, so summaries are
    hashable, comparable, and survive the ``repr``/``literal_eval``
    round-trip :class:`~repro.sim.trace.SimulationTrace` metadata uses.
    """

    counters: tuple[tuple[str, float], ...]
    gauges: tuple[tuple[str, float], ...]
    histograms: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    spans: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    event_counts: tuple[tuple[str, int], ...]
    events_recorded: int
    events_dropped: int

    def as_dict(self) -> dict:
        """Nested plain-dict form (JSON and ``.npz``-meta friendly)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: dict(stats) for name, stats in self.histograms},
            "spans": {name: dict(stats) for name, stats in self.spans},
            "event_counts": dict(self.event_counts),
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
        }

    @staticmethod
    def from_dict(data: dict) -> "TelemetrySummary":
        """Rebuild the exact summary :meth:`as_dict` flattened.

        The inverse the orchestrator's result store relies on: summaries
        survive a JSON round trip bit for bit.
        """
        return TelemetrySummary(
            counters=tuple(sorted(data.get("counters", {}).items())),
            gauges=tuple(sorted(data.get("gauges", {}).items())),
            histograms=tuple(
                sorted(
                    (name, tuple(sorted(stats.items())))
                    for name, stats in data.get("histograms", {}).items()
                )
            ),
            spans=tuple(
                sorted(
                    (name, tuple(sorted(stats.items())))
                    for name, stats in data.get("spans", {}).items()
                )
            ),
            event_counts=tuple(
                sorted(
                    (kind, int(n))
                    for kind, n in data.get("event_counts", {}).items()
                )
            ),
            events_recorded=int(data.get("events_recorded", 0)),
            events_dropped=int(data.get("events_dropped", 0)),
        )


class Telemetry:
    """Armed telemetry: collects metrics, spans, and events.

    Parameters
    ----------
    max_events:
        Bound of the structured event log (oldest evicted first).

    Examples
    --------
    >>> tel = Telemetry()
    >>> with tel.span("decide"):
    ...     tel.count("decisions")
    ...     tel.event("decision_cache_miss", t=1.5, node=3)
    >>> tel.registry.counter("decisions").value
    1.0
    >>> tel.spans["decide"].count
    1
    """

    enabled: bool = True

    def __init__(self, max_events: int = 65536) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog(maxsize=max_events)
        self.spans: dict[str, SpanStats] = {}
        self._span_stack: list[_Span] = []
        # Best (source, value) per gauge key across sourced absorbs; see
        # the deterministic-resolution rule in :meth:`absorb`.
        self._gauge_sources: dict[str, tuple[int | float, float]] = {}

    # ------------------------------------------------------------------ #
    # recording

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment counter *name* (creating the series on first use)."""
        self.registry.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge *name* to *value*."""
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record *value* into histogram *name*."""
        self.registry.histogram(name, **labels).observe(value)

    def event(self, kind: str, t: float, node: int | None = None, **data: object) -> None:
        """Append one structured event to the bounded log."""
        self.events.append(
            TelemetryEvent(
                kind=kind,
                t=float(t),
                node=node,
                data=tuple(sorted(data.items())),
            )
        )

    def event_batch(
        self, kind: str, tally: int, t: float, node: int | None = None, **data: object
    ) -> None:
        """Append one summarizing event standing for *tally* occurrences.

        Per-kind totals (:meth:`EventLog.kind_counts`) advance by *tally*
        exactly as if *tally* individual events had been appended; only the
        single summary object is retained (the rest are accounted as
        recorded-but-dropped).  The batched Hello pipeline uses this to
        keep armed runs from paying a Python event call per receiver.
        """
        self.events.append(
            TelemetryEvent(
                kind=kind,
                t=float(t),
                node=node,
                data=tuple(sorted(data.items())),
            ),
            tally=tally,
        )

    def span(self, name: str) -> _Span:
        """Timing context for phase *name* (nests; monotonic clock)."""
        return _Span(self, name)

    def absorb(
        self,
        summary: TelemetrySummary,
        source: int | float | None = None,
        events: tuple[TelemetryEvent, ...] = (),
    ) -> None:
        """Merge a worker's frozen summary into this live collector.

        The multi-process merge seam: repetition fan-out traces each run
        with a process-local collector and ships back its
        :class:`TelemetrySummary`; absorbing them in the parent makes
        ``--telemetry`` work at any worker count.  Counters, span
        aggregates, per-kind event totals, and histograms merge exactly
        (summaries carry ``sumsq``, so the merged standard deviation is
        the true one; summaries written before ``sumsq`` existed fall
        back to folding the worker's spread at its mean — the old lower
        bound).  Individual worker events are not shipped (summaries are
        bounded); they appear in ``events_dropped`` rather than the
        retained ring buffer — unless the collector that wrote *summary*
        lived in this process and passes its retained *events*, which
        are then appended in order, exactly as if they had been
        recorded here.

        *source* orders gauge resolution: when given (the orchestrator
        passes the unit's seed), each gauge keeps the value of the
        maximal ``(source, value)`` pair ever absorbed, so the merged
        gauge is a pure function of the absorbed set — independent of
        completion order at any worker count.  Without a source the
        absorbed value simply overwrites (last writer wins).
        """
        for key, value in summary.counters:
            name, labels = _parse_series_key(key)
            self.registry.counter(name, **labels).inc(value)
        for key, value in summary.gauges:
            name, labels = _parse_series_key(key)
            if source is None:
                self.registry.gauge(name, **labels).set(value)
                continue
            best = self._gauge_sources.get(key)
            if best is None or (source, value) > best:
                self._gauge_sources[key] = (source, value)
                self.registry.gauge(name, **labels).set(value)
        for key, stats in summary.histograms:
            values = dict(stats)
            if not values.get("count"):
                continue
            name, labels = _parse_series_key(key)
            hist = self.registry.histogram(name, **labels)
            hist.count += int(values["count"])
            hist.total += values["total"]
            hist.sumsq += values.get(
                "sumsq", values["count"] * values["mean"] ** 2
            )
            hist.min = min(hist.min, values["min"])
            hist.max = max(hist.max, values["max"])
        for name, stats in summary.spans:
            values = dict(stats)
            if not values.get("count"):
                continue
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = SpanStats()
            agg.count += int(values["count"])
            agg.total_s += values["total_s"]
            agg.self_s += values["self_s"]
            agg.min_s = min(agg.min_s, values["min_s"])
            agg.max_s = max(agg.max_s, values["max_s"])
        self.events.absorb_counts(
            dict(summary.event_counts), summary.events_recorded, events
        )

    # ------------------------------------------------------------------ #
    # reading

    def summary(self) -> TelemetrySummary:
        """Freeze the current state into a :class:`TelemetrySummary`."""
        counters: list[tuple[str, float]] = []
        gauges: list[tuple[str, float]] = []
        histograms: list[tuple[str, tuple[tuple[str, float], ...]]] = []
        for name, labels, inst in self.registry.rows():
            tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            key = f"{name}{{{tag}}}" if tag else name
            if isinstance(inst, Histogram):
                histograms.append((key, tuple(sorted(inst.as_dict().items()))))
            elif isinstance(inst, Gauge):
                gauges.append((key, inst.value))
            else:
                counters.append((key, inst.value))
        span_rows = tuple(
            (name, tuple(sorted(stats.as_dict().items())))
            for name, stats in sorted(self.spans.items())
        )
        return TelemetrySummary(
            counters=tuple(counters),
            gauges=tuple(gauges),
            histograms=tuple(histograms),
            spans=span_rows,
            event_counts=tuple(sorted(self.events.kind_counts().items())),
            events_recorded=self.events.recorded,
            events_dropped=self.events.dropped,
        )


class NullTelemetry(Telemetry):
    """Disarmed telemetry: same interface, records nothing.

    The default for every seam.  All methods are no-ops; ``enabled`` is
    False, which a caller reads only to skip building a payload that
    nothing would record.
    """

    enabled = False

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """No-op."""

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """No-op."""

    def observe(self, name: str, value: float, **labels: object) -> None:
        """No-op."""

    def event(self, kind: str, t: float, node: int | None = None, **data: object) -> None:
        """No-op."""

    def event_batch(
        self, kind: str, tally: int, t: float, node: int | None = None, **data: object
    ) -> None:
        """No-op."""

    def absorb(
        self,
        summary: TelemetrySummary,
        source: int | float | None = None,
        events: tuple[TelemetryEvent, ...] = (),
    ) -> None:
        """No-op."""

    def span(self, name: str) -> "_NullSpan":
        """A context manager that does nothing."""
        return _NULL_SPAN


class _NullSpan:
    """Reusable do-nothing context manager (internal)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Shared disarmed instance; seams default to this so ``world.telemetry``
#: is always a valid object even when nothing is being collected.
NULL_TELEMETRY = NullTelemetry()


def collector(telemetry: Telemetry | None) -> Telemetry:
    """The collector in force: *telemetry*, or :data:`NULL_TELEMETRY`
    when it is None.  Seams hold its result and call it unconditionally;
    a disarmed collector records nothing and changes no route."""
    return NULL_TELEMETRY if telemetry is None else telemetry
