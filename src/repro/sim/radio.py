"""Radio substrate: broadcast channel with an ideal MAC.

The paper isolates mobility effects by assuming no collision and no
contention, so the default channel model is deliberately simple and exact:
a broadcast by node *u* at physical time *t* with range *r* reaches every
node within Euclidean distance *r* of *u*'s true position at *t*, after a
small constant propagation/processing delay.  Message counters make
control-overhead comparisons (e.g. reactive flooding vs broadcast)
possible even though bandwidth is not modelled.

Reachability itself is pluggable: an optional
:class:`~repro.sim.propagation.PropagationModel` replaces the unit-disk
predicate with log-distance shadowing or probabilistic SINR reception
(candidates come from the model's superset query radius, then the exact
per-model filter runs — see ``docs/PROPAGATION.md``).  With no model (or
the :class:`~repro.sim.propagation.UnitDisk` default) the channel runs
the historical unit-disk code byte for byte.

For the paper's "Hello messages may be lost due to collision and mobility"
remark (Section 4.2) and its realistic-MAC future work, the channel also
supports independent per-receiver *control-message loss*: each Hello
delivery is dropped with probability ``hello_loss_rate``.  Data probes stay
lossless — they are the measurement instrument, not the system under test.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import GraphBackend
from repro.geometry.points import distances_from
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.util.validate import check_non_negative, check_probability

__all__ = ["ChannelStats", "IdealChannel"]


@dataclass
class ChannelStats:
    """Counters of channel activity (control-overhead accounting).

    ``propagation_losses`` counts candidate receivers inside the nominal
    transmit range that the armed propagation model rejected (shadowing
    or a failed reception draw); it stays zero — and the channel's hot
    path untouched — under the unit-disk default.
    """

    hello_messages: int = 0
    data_transmissions: int = 0
    sync_messages: int = 0
    deliveries: int = 0
    hello_losses: int = 0
    collisions: int = 0
    propagation_losses: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for reports."""
        return {
            "hello_messages": self.hello_messages,
            "data_transmissions": self.data_transmissions,
            "sync_messages": self.sync_messages,
            "deliveries": self.deliveries,
            "hello_losses": self.hello_losses,
            "collisions": self.collisions,
            "propagation_losses": self.propagation_losses,
        }


class IdealChannel:
    """Collision-free broadcast channel (unit disk by default).

    Parameters
    ----------
    propagation_delay:
        One-hop latency in seconds (reception happens this long after the
        transmission instant; positions are evaluated at *send* time, as
        the flight time is physically negligible).
    hello_loss_rate:
        Probability an individual Hello delivery is lost (independent per
        receiver); requires *rng* when positive.
    rng:
        Randomness source for loss draws.
    fault_filter:
        Optional injection seam: called as ``fault_filter(now, sender,
        receivers)`` after the i.i.d. loss model and expected to return
        the surviving receiver indices.  Installed by
        :class:`~repro.sim.world.NetworkWorld` when a fault schedule is
        armed (see :mod:`repro.faults`); ``None`` costs nothing.
    propagation:
        Optional :class:`~repro.sim.propagation.PropagationModel`
        replacing the unit-disk reachability predicate in
        :meth:`receivers`.  ``None`` (or a bound
        :class:`~repro.sim.propagation.UnitDisk`) keeps the historical
        bit-identical fast path; non-unit-disk models route through the
        superset query radius plus exact per-candidate filtering, and
        rejected within-nominal-range candidates are counted as
        :attr:`ChannelStats.propagation_losses`.
    telemetry:
        Telemetry collector, armed or not (default
        :data:`~repro.telemetry.NULL_TELEMETRY`; the
        :class:`~repro.sim.world.NetworkWorld` installs its own the same
        way it installs *fault_filter*); drops are counted under the
        ``hello_dropped`` series.
    """

    def __init__(
        self,
        propagation_delay: float = 5e-4,
        hello_loss_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        stats: ChannelStats | None = None,
        fault_filter: Callable[[float, int, np.ndarray], np.ndarray] | None = None,
        propagation=None,
    ) -> None:
        self.propagation_delay = propagation_delay
        self.hello_loss_rate = hello_loss_rate
        self.rng = rng
        self.stats = stats if stats is not None else ChannelStats()
        self.fault_filter = fault_filter
        # None means unit disk; a bound UnitDisk collapses to the same
        # fast path so the hot loop guards on a single reference.
        self.propagation = (
            None if propagation is None or propagation.is_unit_disk else propagation
        )
        self.telemetry: Telemetry = NULL_TELEMETRY
        check_non_negative("propagation_delay", self.propagation_delay)
        check_probability("hello_loss_rate", self.hello_loss_rate)
        if self.hello_loss_rate > 0.0 and self.rng is None:
            raise ValueError(
                "hello_loss_rate > 0 requires an rng; for deterministic, "
                "replayable loss use a repro.faults.FaultSchedule with "
                "HelloLossBurst events instead (NetworkWorld(faults=...)), "
                "or model channel-induced loss with a seeded propagation "
                "model (ScenarioConfig(propagation=...); see "
                "repro.sim.propagation and docs/PROPAGATION.md)"
            )

    def __repr__(self) -> str:
        return (
            f"IdealChannel(propagation_delay={self.propagation_delay!r}, "
            f"hello_loss_rate={self.hello_loss_rate!r}, stats={self.stats!r})"
        )

    def receivers(
        self,
        sender: int,
        positions: np.ndarray,
        tx_range: float,
        backend: GraphBackend | None = None,
        now: float = 0.0,
    ) -> np.ndarray:
        """Indices of nodes that hear a broadcast (sender excluded).

        Parameters
        ----------
        sender:
            Transmitting node index.
        positions:
            True ``(n, 2)`` node positions at the transmission instant.
        tx_range:
            Transmission range used for this message.
        backend:
            Optional :class:`~repro.geometry.grid.GraphBackend` built over
            *positions*; when given, the range query dispatches through it
            (grid index at scale, the same dense ``distances_from`` scan
            below the dense threshold — results are bit-identical).
        now:
            Transmission instant; only stochastic propagation models read
            it (their per-message draws are keyed on it), so unit-disk
            callers may omit it.
        """
        if tx_range <= 0.0:
            return np.empty(0, dtype=np.intp)
        model = self.propagation
        if model is None:
            if backend is not None:
                hit = backend.neighbors_within(positions[sender], tx_range)
            else:
                d = distances_from(positions[sender], positions)
                hit = np.flatnonzero(d <= tx_range)
            return hit[hit != sender]
        # Superset/subset discipline: fetch candidates within the model's
        # guaranteed superset radius, then apply the exact per-model
        # predicate.  The keyed accept() is subset-stable, so any
        # candidate superset yields the same surviving set.
        query_r = model.query_radius(tx_range)
        if backend is not None:
            cand = backend.neighbors_within(positions[sender], query_r)
        else:
            d_all = distances_from(positions[sender], positions)
            cand = np.flatnonzero(d_all <= query_r)
        cand = cand[cand != sender]
        if cand.size == 0:
            return cand.astype(np.intp)
        d = distances_from(positions[sender], positions[cand])
        ok = model.accept(sender, cand, d, tx_range, now)
        # Drop accounting: candidates the unit disk would have reached
        # but the model rejected.  ``d <= query_r`` keeps the counted
        # set identical between candidate-generation strategies (any
        # superset contains every such node).
        lost = int(np.count_nonzero(~ok & (d <= min(tx_range, query_r))))
        if lost:
            self.stats.propagation_losses += lost
            self.telemetry.count("hello_dropped", lost, reason="propagation")
            self.telemetry.event(
                "hello_dropped", t=now, node=sender,
                count=lost, reason="propagation",
            )
        return cand[ok]

    def surviving_hello_receivers(
        self,
        receivers: np.ndarray,
        sender: int | None = None,
        now: float | None = None,
    ) -> np.ndarray:
        """Apply per-receiver Hello loss (i.i.d. model, then fault bursts).

        Every dropped delivery — random or injected — is counted in
        :attr:`ChannelStats.hello_losses`; the :attr:`fault_filter` seam
        only runs when *sender* and *now* identify the transmission.
        """
        tel = self.telemetry
        if receivers.size and self.hello_loss_rate > 0.0:
            keep = self.rng.random(receivers.size) >= self.hello_loss_rate
            lost = int(receivers.size - keep.sum())
            self.stats.hello_losses += lost
            if lost:
                tel.count("hello_dropped", lost, reason="loss")
                tel.event(
                    "hello_dropped", t=now or 0.0, node=sender, count=lost, reason="loss"
                )
            receivers = receivers[keep]
        if self.fault_filter is not None and receivers.size and sender is not None:
            before = int(receivers.size)
            receivers = self.fault_filter(now, sender, receivers)
            lost = before - int(receivers.size)
            self.stats.hello_losses += lost
            if lost:
                tel.count("hello_dropped", lost, reason="fault")
                tel.event(
                    "hello_dropped", t=now or 0.0, node=sender, count=lost, reason="fault"
                )
        return receivers

    def arrival_time(self, sent_at: float) -> float:
        """Physical reception time for a message sent at *sent_at*."""
        return sent_at + self.propagation_delay
