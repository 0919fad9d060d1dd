"""Link-lifetime statistics: how long do links survive under mobility?

The paper's whole failure analysis is about links silently dying between
Hello refreshes.  This tracker turns that story into distributions: feed
it snapshots at the sampling cadence and it records every link's up-time,
separating completed lifetimes from censored ones (links still up when
observation ends).  Comparing lifetimes across protocols quantifies the
redundancy argument — a protocol whose links live longer needs thinner
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.world import WorldSnapshot
from repro.util.errors import SimulationError

__all__ = ["LinkLifetimeSummary", "LinkLifetimeTracker"]


@dataclass(frozen=True)
class LinkLifetimeSummary:
    """Distribution summary of observed link lifetimes.

    Attributes
    ----------
    completed:
        Number of links that went down during observation.
    censored:
        Links still up at the end (their lifetimes are lower bounds).
    mean / median / p90:
        Statistics over *completed* lifetimes, seconds (NaN if none).
    break_rate:
        Link breaks per link-second of observed up-time — the hazard the
        buffer zone has to absorb.
    """

    completed: int
    censored: int
    mean: float
    median: float
    p90: float
    break_rate: float


class LinkLifetimeTracker:
    """Accumulates link up/down transitions from a snapshot sequence.

    Parameters
    ----------
    kind:
        ``"effective"`` (bidirectional effective links), ``"logical"``
        (union of selections), or ``"original"`` (normal-range links).
    physical_neighbor_mode:
        Acceptance rule for the effective topology.
    """

    _KINDS = ("effective", "logical", "original")

    def __init__(self, kind: str = "effective", physical_neighbor_mode: bool = False) -> None:
        if kind not in self._KINDS:
            raise SimulationError(f"kind must be one of {self._KINDS}, got {kind!r}")
        self.kind = kind
        self.physical_neighbor_mode = physical_neighbor_mode
        self._up_since: dict[tuple[int, int], float] = {}
        self._durations: list[float] = []
        self._last_time: float | None = None
        self._finished = False

    def _links_of(self, snap: WorldSnapshot) -> set[tuple[int, int]]:
        if self.kind == "effective":
            graph = snap.effective_bidirectional_csr(self.physical_neighbor_mode)
        elif self.kind == "logical":
            graph = snap.logical_csr
        else:
            graph = snap.original_csr()
        # (min, max) normalization covers both the symmetric kinds (each
        # link listed once per direction) and the logical union semantics
        # (a link exists when either end selected the other).
        rows, cols = graph.rows_array(), graph.indices
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        return set(zip(lo.tolist(), hi.tolist()))

    def observe(self, snap: WorldSnapshot) -> None:
        """Record the link set of *snap* (call in increasing time order)."""
        if self._finished:
            raise SimulationError("tracker already finished")
        if self._last_time is not None and snap.time < self._last_time:
            raise SimulationError("snapshots must be observed in time order")
        current = self._links_of(snap)
        known = set(self._up_since)
        for link in current - known:
            self._up_since[link] = snap.time
        for link in known - current:
            self._durations.append(snap.time - self._up_since.pop(link))
        self._last_time = snap.time

    def finish(self) -> LinkLifetimeSummary:
        """Close observation and summarise (open links become censored)."""
        self._finished = True
        censored = len(self._up_since)
        completed = len(self._durations)
        if self._last_time is not None:
            censored_time = sum(
                self._last_time - start for start in self._up_since.values()
            )
        else:
            censored_time = 0.0
        total_up_time = sum(self._durations) + censored_time
        if completed:
            arr = np.asarray(self._durations)
            mean = float(arr.mean())
            median = float(np.median(arr))
            p90 = float(np.percentile(arr, 90))
        else:
            mean = median = p90 = float("nan")
        break_rate = completed / total_up_time if total_up_time > 0 else 0.0
        return LinkLifetimeSummary(
            completed=completed,
            censored=censored,
            mean=mean,
            median=median,
            p90=p90,
            break_rate=break_rate,
        )
