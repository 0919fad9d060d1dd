"""Receiver lookup for the batched Hello pipeline.

A full range scan evaluates *all* node positions and builds a fresh
:class:`~repro.geometry.grid.GraphBackend` at every distinct emission
time — correct, but each sender jitters / clock-skews its own send
instant, so the per-tick geometry memo never hits during warmup and
receiver discovery degenerates to O(n) grid builds per Hello generation
(the 10k warmup wall; see ``docs/PERFORMANCE.md``).

:class:`HelloReceiverOracle` answers the same query — *who is within the
normal range of sender i at time t?* — with a **stale grid plus an exact
subset filter**:

- a :class:`~repro.geometry.grid.GridIndex` is built over all positions at
  some grid time ``t_g`` and reused while ``v_max * (t - t_g)`` stays
  within a slack budget (``v_max`` is the provable trajectory speed
  bound);
- its cell side is the query radius plus the slack: no node moves
  further than ``v_max * (t - t_g)``, so every receiver of a query at
  ``t`` sat, at ``t_g``, within one cell side of the sender's position
  at ``t``, inside the 3x3 cell block around the sender's cell;
- each queried cell's block is memoized as one ascending ID array until
  the next rebuild, so a query is one dict lookup;
- the block's *true* positions at ``t`` are then evaluated with the
  subset kernel :meth:`~repro.mobility.base.TrajectorySet.positions_at`
  and filtered with the exact boundary-inclusive ``d <= r`` predicate.

A Hello's sender position and receivers depend only on (sender, t), so
:meth:`HelloReceiverOracle.lookup` answers many Hellos at once: one
``positions_at`` over the senders at their own times, one over every
candidate of every block at its Hello's time, one distance and filter
pass.  The world writes each node's next scheduled Hello time into
:attr:`HelloReceiverOracle.due`; :meth:`HelloReceiverOracle.hello`
answers a Hello from a batch computed ahead, and on a miss computes the
next ``_PREFETCH`` due Hellos that fall before the grid must be rebuilt.
A precomputed answer is used only for the exact (sender, t) it was
computed for, so a wrong schedule costs a miss and never an output, and
the grid is rebuilt at the same Hellos as when each is answered alone.

The distance kernel (:func:`~repro.geometry.points.distances_from`) and
the position interpolation are elementwise, hence subset-stable: filtering
a superset of candidates yields the *bit-identical* ascending receiver
array the full scan ``IdealChannel.receivers`` produces.  The i.i.d.
loss model downstream consumes its RNG positionally, so the receiver
order is part of the run's determinism.

Non-unit-disk :class:`~repro.sim.propagation.PropagationModel` instances
compose with the same discipline: the cell side grows with the model's
superset radius (``model.query_radius(r) + slack``) and the exact filter
becomes the model's keyed ``accept`` predicate, which is itself
subset-stable — so the oracle agrees with the full scan under every
model, not just the unit disk.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import GridIndex
from repro.geometry.points import distances_from
from repro.mobility.base import TrajectorySet

__all__ = ["HelloReceiverOracle"]

_EMPTY = np.empty(0, dtype=np.intp)

#: Most Hellos one :meth:`HelloReceiverOracle.hello` miss answers ahead;
#: bounds the concatenated candidate temporaries to this many blocks.
_PREFETCH = 256


class HelloReceiverOracle:
    """Stale-grid receiver lookup over analytic trajectories.

    Parameters
    ----------
    trajectories:
        The compiled :class:`~repro.mobility.base.TrajectorySet`.
    radius:
        Transmission range of Hello broadcasts (the normal range).
    slack_factor:
        Fraction of *radius* nodes may move before the grid is rebuilt;
        ``v_max * (t - t_g) <= slack_factor * radius`` bounds the
        candidate overfetch.  0.5 makes the cells 1.5 radii wide while
        rebuilding (for the paper's 20 m/s scenarios) only every
        ``slack_factor * radius / v_max`` seconds.
    propagation:
        Optional non-unit-disk
        :class:`~repro.sim.propagation.PropagationModel`; the cells widen
        to the model's superset radius and the exact filter becomes the
        model's ``accept`` predicate.  ``None`` (the default) keeps the
        historical unit-disk path bit for bit.  Within-nominal-range
        candidates the model rejects are tallied in
        :attr:`propagation_losses` (the world folds the per-query delta
        into the channel counters and telemetry).
    """

    __slots__ = (
        "trajectories",
        "radius",
        "propagation",
        "propagation_losses",
        "due",
        "_query_radius",
        "_slack",
        "_cell",
        "_vmax",
        "_grid",
        "_grid_t",
        "_blocks",
        "_ahead",
        "rebuilds",
        "queries",
    )

    def __init__(
        self,
        trajectories: TrajectorySet,
        radius: float,
        slack_factor: float = 0.5,
        propagation=None,
    ) -> None:
        self.trajectories = trajectories
        self.radius = float(radius)
        self.propagation = (
            None if propagation is None or propagation.is_unit_disk else propagation
        )
        self.propagation_losses = 0
        #: next scheduled Hello time per node (inf: unknown), written by
        #: whoever schedules the Hellos; :meth:`hello` answers those ahead
        self.due = np.full(trajectories.n_nodes, np.inf)
        self._query_radius = (
            self.radius
            if self.propagation is None
            else self.propagation.query_radius(self.radius)
        )
        self._slack = float(slack_factor) * self.radius
        # A hair over query radius + slack, so that rounding in the
        # positions or in the cell division never moves a receiver out
        # of the 3x3 block.
        self._cell = (self._query_radius + self._slack) * (1.0 + 1e-9)
        self._vmax = trajectories.max_speed()
        self._grid: GridIndex | None = None
        self._grid_t = 0.0
        #: cell -> ascending IDs of the grid's 3x3 block around it
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        #: sender -> (t, position, receivers, propagation rejects) of its
        #: Hello answered ahead, until asked for or the grid is rebuilt
        self._ahead: dict[int, tuple[float, np.ndarray, np.ndarray, int]] = {}
        self.rebuilds = 0
        self.queries = 0

    def node_position(self, node: int, t: float) -> np.ndarray:
        """Exact position of one node at *t* (``positions(t)[node]``)."""
        return self.trajectories.position(node, t)

    def positions_of(self, nodes: np.ndarray, t: float) -> np.ndarray:
        """Exact positions of a node subset at *t* (``positions(t)[nodes]``)."""
        return self.trajectories.positions_at(t, nodes)

    def _refresh(self, t: float) -> None:
        """Rebuild the grid at *t* once nodes may have left it."""
        if self._grid is None or self._vmax * (t - self._grid_t) > self._slack:
            self._grid = GridIndex(self.trajectories.positions(t), cell_size=self._cell)
            self._grid_t = t
            self._blocks.clear()
            self._ahead.clear()
            self.rebuilds += 1

    def _block(self, key: tuple[int, int]) -> np.ndarray:
        """Ascending IDs of the grid's 3x3 cell block around cell *key*:
        every node that can be within the query radius of a point in
        that cell while the grid stands."""
        block = self._blocks.get(key)
        if block is None:
            block = np.sort(self._grid.candidates_near_cell(*key))
            self._blocks[key] = block
        return block

    def lookup(
        self, senders, times
    ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Sender positions, receivers and propagation rejects of many Hellos.

        Hello ``i`` is sent by ``senders[i]`` at ``times[i]``; *times*
        must be non-decreasing.  Returns ``(positions, receivers,
        rejects)``: the ``(B, 2)`` sender positions, one ascending
        receiver array per Hello, each what :meth:`receivers` returns,
        and per Hello the count :meth:`receivers` adds to
        :attr:`propagation_losses`.  The grid is rebuilt at the same
        Hellos as by one :meth:`receivers` call per Hello in order; the
        counters are left to the caller.
        """
        senders = np.asarray(senders, dtype=np.intp)
        times = np.asarray(times, dtype=np.float64)
        if np.any(times[1:] < times[:-1]):
            raise ValueError("Hello times must be non-decreasing")
        positions = self.trajectories.positions_at(times, senders)
        rejects = np.zeros(senders.size, dtype=np.int64)
        if self.radius <= 0.0:
            return positions, [_EMPTY] * senders.size, rejects
        answers: list[np.ndarray] = []
        lo = 0
        while lo < senders.size:
            # The Hellos up to hi share the grid that stands at times[lo].
            self._refresh(float(times[lo]))
            hi = lo + max(1, int(
                np.count_nonzero(self._vmax * (times[lo:] - self._grid_t) <= self._slack)
            ))
            answers += self._answer(
                senders[lo:hi], times[lo:hi], positions[lo:hi], rejects[lo:hi]
            )
            lo = hi
        return positions, answers, rejects

    def _answer(
        self,
        senders: np.ndarray,
        times: np.ndarray,
        positions: np.ndarray,
        rejects: np.ndarray,
    ) -> list[np.ndarray]:
        """Receivers of Hellos that all fall within the standing grid's
        lifetime, with their propagation rejects written to *rejects*."""
        cell = self._cell
        keys = np.floor(positions / cell).astype(np.int64).tolist()
        blocks = [self._block((kx, ky)) for kx, ky in keys]
        sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        cand = np.concatenate(blocks)
        row = np.repeat(np.arange(senders.size), sizes)
        diff = self.trajectories.positions_at(times[row], cand) - positions[row]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        model = self.propagation
        if model is None:
            keep = (d <= self.radius) & (cand != senders[row])
        else:
            other = cand != senders[row]
            cand, row, d = cand[other], row[other], d[other]
            keep = model.accept(senders[row], cand, d, self.radius, times[row])
            # Same counted set as IdealChannel.receivers: candidates the
            # unit disk would reach but the model rejects (d <= query
            # radius always holds for them in any candidate superset).
            lost = ~keep & (d <= min(self.radius, self._query_radius))
            rejects += np.bincount(row[lost], minlength=senders.size)
        counts = np.bincount(row[keep], minlength=senders.size)
        return np.split(cand[keep], np.cumsum(counts[:-1]))

    def receivers(self, sender: int, t: float) -> np.ndarray:
        """Ascending indices of the nodes that hear *sender* at *t*.

        Bit-identical to ``IdealChannel.receivers(sender, positions(t),
        radius, now=t)`` under the same propagation model — same
        candidate superset guarantee, same exact filter (``d <= radius``
        for the unit disk, the model's keyed ``accept`` otherwise), same
        ascending order, sender excluded.  A :meth:`lookup` of one Hello.
        """
        if self.radius <= 0.0:
            return _EMPTY
        _, (hit,), rejects = self.lookup([sender], [t])
        self.queries += 1
        self.propagation_losses += int(rejects[0])
        return hit

    def hello(self, sender: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``(position, receivers)`` of *sender*'s Hello at *t*.

        The position is ``node_position(sender, t)`` and the receivers
        are :meth:`receivers` ``(sender, t)``, with the same counters.
        Answered from a batch computed ahead when one was computed for
        exactly this (sender, t); otherwise one :meth:`lookup` answers it
        together with the next :data:`_PREFETCH` - 1 Hellos :attr:`due`
        before the grid must be rebuilt.
        """
        if self.radius <= 0.0:
            return self.node_position(sender, t), _EMPTY
        entry = self._ahead.pop(sender, None)
        if entry is None or entry[0] != t:
            entry = self._prefetch(sender, t)
        self.queries += 1
        self.propagation_losses += entry[3]
        return entry[1], entry[2]

    def _prefetch(self, sender: int, t: float) -> tuple[float, np.ndarray, np.ndarray, int]:
        """Answer *sender*'s Hello at *t* and keep the answers of the next
        due Hellos the standing grid covers; return the first."""
        self._refresh(t)
        due = self.due
        ok = (due >= t) & (self._vmax * (due - self._grid_t) <= self._slack)
        if due[sender] == t:
            ok[sender] = False
        ahead = np.flatnonzero(ok)
        room = _PREFETCH - 1
        if ahead.size > room:
            # The earliest, ties in node order (the engine's order for
            # Hellos scheduled at one instant): all before the first time
            # that may not fit, then that time's nodes while room lasts.
            times = due[ahead]
            last = np.partition(times, room)[room]
            early = times < last
            tied = ahead[times == last][: room - np.count_nonzero(early)]
            ahead = np.concatenate((ahead[early], tied))
        ahead = ahead[np.argsort(due[ahead], kind="stable")]
        senders = np.concatenate(([sender], ahead))
        times = np.concatenate(([t], due[ahead]))
        positions, answers, rejects = self.lookup(senders, times)
        store = self._ahead
        for s, ts, p, hit, lost in zip(
            ahead.tolist(), times[1:].tolist(), positions[1:], answers[1:], rejects[1:].tolist()
        ):
            store[s] = (ts, p, hit, lost)
        return t, positions[0], answers[0], int(rejects[0])
