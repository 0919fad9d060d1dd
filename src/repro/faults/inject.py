"""The fault-injection runtime a world consults through narrow seams.

:class:`FaultInjector` turns a descriptive
:class:`~repro.faults.schedule.FaultSchedule` into the handful of O(events)
queries the simulator's seams ask at run time (is this node down?  does
this delivery drop?  how late does it arrive?).  Schedules are small —
fuzzing converges on single-digit event counts — so linear scans beat any
index, and every query is deterministic given the world's named RNG
streams.

The injector also keeps the fault-accounting counters that
:func:`repro.analysis.experiment.run_once` carries as ``fault_*`` fields
on ``RunResult.stats``, so a run's injected disturbance is observable
next to the channel's own counters.
"""

from __future__ import annotations

import numpy as np

from repro.faults.schedule import (
    ClockSkew,
    DeliveryDelay,
    FaultSchedule,
    HelloIntervalScale,
    HelloLossBurst,
    NodeOutage,
    PositionNoise,
)
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Runtime fault oracle for one simulation run.

    Parameters
    ----------
    schedule:
        The fault events to realise.
    rng:
        Named random stream (``seeds.rng("faults")``) for the schedule's
        stochastic draws — partial loss bursts and position noise.  Runs
        with equal ``(seed, schedule)`` replay bit-identically because
        draws happen in event-engine order, which is itself deterministic.
    telemetry:
        Telemetry collector, armed or not (default
        :data:`~repro.telemetry.NULL_TELEMETRY`).  Every counted
        disturbance is also counted under ``fault_events`` and lands in
        the structured event log as a ``fault`` event whose ``action``
        field names the seam that fired.
    """

    __slots__ = (
        "schedule",
        "_rng",
        "_loss",
        "_outages",
        "_skews",
        "_interval_scales",
        "_delays",
        "_noise",
        "stats",
        "_telemetry",
    )

    def __init__(
        self,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.schedule = schedule
        self._rng = rng
        self._telemetry = telemetry
        self._loss = [e for e in schedule if isinstance(e, HelloLossBurst)]
        self._outages = [e for e in schedule if isinstance(e, NodeOutage)]
        self._skews = [e for e in schedule if isinstance(e, ClockSkew)]
        self._interval_scales = [
            e for e in schedule if isinstance(e, HelloIntervalScale)
        ]
        self._delays = [e for e in schedule if isinstance(e, DeliveryDelay)]
        self._noise = [e for e in schedule if isinstance(e, PositionNoise)]
        self.stats: dict[str, int] = {
            "hello_drops": 0,
            "suppressed_sends": 0,
            "blocked_receptions": 0,
            "stale_discards": 0,
            "delayed_deliveries": 0,
            "noisy_positions": 0,
        }

    # ------------------------------------------------------------------ #
    # accounting seam

    def note(self, action: str, t: float, node: int | None = None, count: int = 1, **data) -> None:
        """Count one disturbance under *action* and trace it.

        This is the single accounting path for every injector counter —
        the world's outage seams call it too — so the ``fault_*`` stats
        and the telemetry ``fault`` events can never disagree.
        """
        self.stats[action] += count
        tel = self._telemetry
        tel.count("fault_events", count, action=action)
        tel.event("fault", t=t, node=node, action=action, count=count, **data)

    # ------------------------------------------------------------------ #
    # outage queries

    def node_down(self, node: int, t: float) -> bool:
        """True while *node* is inside any of its outage windows."""
        for event in self._outages:
            if event.node == node and event.active(t):
                return True
        return False

    def node_disturbed_since(self, node: int, t0: float, t1: float) -> bool:
        """True if *node* had any outage overlapping ``[t0, t1]``."""
        for event in self._outages:
            if event.node == node and event.start <= t1 and event.end > t0:
                return True
        return False

    # ------------------------------------------------------------------ #
    # delivery seams (called by the world's Hello emission)

    def filter_hello_receivers(
        self, now: float, sender: int, receivers: np.ndarray
    ) -> np.ndarray:
        """Drop receivers hit by an active loss burst; count the drops.

        This is the :attr:`~repro.sim.radio.IdealChannel.fault_filter`
        seam — it composes with (runs after) the channel's own i.i.d.
        ``hello_loss_rate`` model.
        """
        if receivers.size == 0:
            return receivers
        keep = np.ones(receivers.size, dtype=bool)
        for event in self._loss:
            if not event.active(now):
                continue
            if event.senders is not None and sender not in event.senders:
                continue
            if event.receivers is None:
                matched = keep.copy()
            else:
                matched = keep & np.isin(receivers, event.receivers)
            if not matched.any():
                continue
            if event.probability >= 1.0:
                keep &= ~matched
            else:
                # One draw per still-alive matched receiver, in receiver
                # order — deterministic because the emission order is.
                drop = matched & (
                    self._rng.random(receivers.size) < event.probability
                )
                keep &= ~drop
        dropped = int(receivers.size - keep.sum())
        if dropped:
            self.note("hello_drops", now, node=sender, count=dropped)
        return receivers[keep]

    def delivery_delay(self, now: float, sender: int, receiver: int) -> float:
        """Extra latency for one directed Hello delivery (0.0 = on time)."""
        extra = 0.0
        for event in self._delays:
            if event.active(now) and event.matches(sender, receiver):
                extra += event.delay
        if extra > 0.0:
            self.note("delayed_deliveries", now, node=receiver, sender=sender)
        return extra

    # ------------------------------------------------------------------ #
    # sender-side seams

    def advertised_position(
        self, node: int, t: float, position: np.ndarray
    ) -> np.ndarray:
        """The position *node* advertises at *t* (GPS noise applied).

        Noise from overlapping events accumulates; each event's vector is
        uniform on the disk of its amplitude, so
        :meth:`position_noise_bound` is a hard per-sample bound.
        """
        out = position
        for event in self._noise:
            if event.amplitude > 0.0 and event.active(t) and event.matches(node):
                angle = self._rng.uniform(0.0, 2.0 * np.pi)
                radius = event.amplitude * np.sqrt(self._rng.uniform())
                out = out + radius * np.array([np.cos(angle), np.sin(angle)])
                self.note("noisy_positions", t, node=node)
        return out

    def position_noise_bound(self) -> float:
        """Worst-case advertised-position error any single Hello can carry."""
        return float(sum(e.amplitude for e in self._noise))

    def interval_scale(self, node: int, t: float) -> float:
        """Combined Hello-interval scale for *node* at *t* (1.0 = nominal)."""
        scale = 1.0
        for event in self._interval_scales:
            if event.node == node and event.active(t):
                scale *= event.factor
        return scale

    def clock_offset_shift(self, node: int) -> float:
        """Static extra clock offset for *node* (applied at world build)."""
        return float(
            sum(e.offset for e in self._skews if e.node == node)
        )

    # ------------------------------------------------------------------ #
    # accounting

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot, ``fault_``-prefixed for stats merging."""
        return {f"fault_{key}": value for key, value in self.stats.items()}
