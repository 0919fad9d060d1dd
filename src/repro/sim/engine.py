"""Discrete-event simulation engine.

A small, deterministic replacement for the scheduling core of ns-2:

- a binary-heap event queue keyed on ``(time, sequence)`` so simultaneous
  events fire in scheduling order (deterministic across runs),
- O(1) amortised cancellation via tombstones,
- periodic timers built on top of one-shot events.

Heap entries are plain ``(time, seq, handle, fn, args)`` tuples: ``seq`` is
unique, so tuple comparison never reaches the payload and stays entirely in
C — measurably faster than a dataclass ``__lt__`` on schedule-heavy runs.
:meth:`Engine.schedule_batch` additionally skips the :class:`EventHandle`
allocation for events that will never be cancelled or inspected (``handle``
is None in the tuple), which is what the batched Hello delivery pipeline
rides on.

The engine knows nothing about networks; :mod:`repro.sim.world` composes it
with nodes, radio and protocol agents.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import Any

from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.util.errors import ScheduleError

__all__ = ["Engine", "EventHandle", "PeriodicTimer"]


class EventHandle:
    """Handle to a scheduled event; allows cancellation and inspection."""

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_engine")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Engine:
    """Deterministic discrete-event scheduler.

    Examples
    --------
    >>> eng = Engine()
    >>> seen = []
    >>> _ = eng.schedule_at(1.0, seen.append, "a")
    >>> _ = eng.schedule_at(0.5, seen.append, "b")
    >>> eng.run(until=2.0)
    >>> seen
    ['b', 'a']
    >>> eng.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of (time, seq, handle-or-None, fn, args) tuples; seq is unique
        # so comparisons stop at the second element.
        self._queue: list[tuple[float, int, EventHandle | None, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        # Cancelled entries still sitting in the heap.  Cancellation stays
        # O(1) (tombstoning), but the heap is compacted whenever tombstones
        # outnumber live events, so long-running simulations with heavy
        # timer churn never accumulate dead entries.
        self._tombstones = 0
        self._event_hook: Callable[[float], Any] | None = None
        # The collector in force; called once per run() call, never per
        # event (see set_telemetry).
        self._telemetry: Telemetry = NULL_TELEMETRY

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostics / tests)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1))."""
        return len(self._queue) - self._tombstones

    def set_event_hook(self, hook: Callable[[float], Any] | None) -> None:
        """Install (or clear, with None) a post-event observer seam.

        ``hook(now)`` fires after every executed event.  This exists for
        continuous invariant auditing (``repro fuzz --deep`` audits the
        world between events, not just at sampling instants); the hook
        must not schedule into the past.  When unset the only cost is one
        ``None`` check per event.
        """
        self._event_hook = hook

    def set_telemetry(self, telemetry: Telemetry) -> None:
        """Install a telemetry collector (armed or not).

        Each :meth:`run` segment is timed under the ``engine_run`` span
        and the processed/pending event counts are folded into the
        ``engine_events`` counter and the ``engine_pending_events``
        gauge.  A disarmed collector
        (:data:`~repro.telemetry.NULL_TELEMETRY`, the default) makes
        these no-op calls, once per ``run`` call and never per event.
        """
        self._telemetry = telemetry

    def _note_cancelled(self) -> None:
        """Account for one newly tombstoned entry; compact if they dominate."""
        self._tombstones += 1
        if self._tombstones * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap and restore heap order."""
        self._queue = [e for e in self._queue if e[2] is None or not e[2].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation *time*."""
        if not math.isfinite(time):
            raise ScheduleError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ScheduleError(
                f"cannot schedule into the past: t={time:.6f} < now={self._now:.6f}"
            )
        # Positional on purpose: keyword passing costs ~140 ns per event,
        # which is measurable on the schedule-heavy hot path.
        t = float(time)
        handle = EventHandle(t, fn, args, self)
        heapq.heappush(self._queue, (t, next(self._seq), handle, fn, args))
        return handle

    def schedule_batch(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at *time* without allocating an EventHandle.

        Fire-and-forget variant of :meth:`schedule_at` for events that are
        never cancelled or inspected (e.g. coalesced Hello batch deliveries).
        Ordering relative to :meth:`schedule_at` events is identical — both
        draw from the same ``(time, seq)`` sequence.
        """
        if not math.isfinite(time):
            raise ScheduleError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ScheduleError(
                f"cannot schedule into the past: t={time:.6f} < now={self._now:.6f}"
            )
        heapq.heappush(self._queue, (float(time), next(self._seq), None, fn, args))

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` *delay* seconds from now (delay >= 0)."""
        if delay < 0:
            raise ScheduleError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def run(self, until: float) -> None:
        """Execute events in order up to and including time *until*.

        On return ``now == until`` even if the queue drained earlier, so
        repeated ``run`` calls advance a simulation in segments.
        """
        if until < self._now:
            raise ScheduleError(f"cannot run backwards: until={until} < now={self._now}")
        if self._running:
            raise ScheduleError("engine is already running (re-entrant run() call)")
        tel = self._telemetry
        with tel.span("engine_run"):
            before = self._events_processed
            try:
                self._run_segment(until)
            finally:
                tel.count("engine_events", self._events_processed - before)
                tel.gauge("engine_pending_events", self.pending_events)

    def _run_segment(self, until: float) -> None:
        """The event loop proper (validated arguments; internal)."""
        self._running = True
        try:
            while self._queue and self._queue[0][0] <= until:
                time_, _seq, handle, fn, args = heapq.heappop(self._queue)
                if handle is not None:
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle.fired = True
                self._now = time_
                self._events_processed += 1
                fn(*args)
                if self._event_hook is not None:
                    self._event_hook(time_)
            self._now = float(until)
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one event; return False if the queue is empty."""
        while self._queue:
            time_, _seq, handle, fn, args = heapq.heappop(self._queue)
            if handle is not None:
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                handle.fired = True
            self._now = time_
            self._events_processed += 1
            fn(*args)
            if self._event_hook is not None:
                self._event_hook(time_)
            return True
        return False

    def clear(self) -> None:
        """Cancel every pending event."""
        for entry in self._queue:
            if entry[2] is not None:
                entry[2].cancelled = True
        self._queue.clear()
        self._tombstones = 0


class PeriodicTimer:
    """Repeating timer with optional per-tick jitter.

    Fires ``fn(tick_index)`` every ``interval()`` seconds, where *interval*
    may be a constant or a zero-argument callable (e.g. drawing the paper's
    Hello interval uniformly from 1 +- 0.25 s each period).
    """

    def __init__(
        self,
        engine: Engine,
        interval: float | Callable[[], float],
        fn: Callable[[int], Any],
        first_at: float | None = None,
    ) -> None:
        self._engine = engine
        self._interval = interval
        self._fn = fn
        self._tick = 0
        self._handle: EventHandle | None = None
        self._stopped = False
        start = engine.now if first_at is None else first_at
        self._handle = engine.schedule_at(start, self._fire)

    def _next_interval(self) -> float:
        value = self._interval() if callable(self._interval) else self._interval
        if value <= 0:
            raise ScheduleError(f"timer interval must be positive, got {value!r}")
        return float(value)

    def _fire(self) -> None:
        if self._stopped:
            return
        tick = self._tick
        self._tick += 1
        self._handle = self._engine.schedule_after(self._next_interval(), self._fire)
        self._fn(tick)

    @property
    def ticks(self) -> int:
        """Number of times the timer has fired."""
        return self._tick

    @property
    def next_time(self) -> float:
        """Time of the pending next tick (inf once stopped).  Inside the
        callback it is already the following tick's time."""
        if self._stopped or self._handle is None:
            return math.inf
        return self._handle.time

    def stop(self) -> None:
        """Stop the timer; the pending next tick is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
