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
        "_query_radius",
        "_slack",
        "_cell",
        "_vmax",
        "_grid",
        "_grid_t",
        "_blocks",
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
        self.rebuilds = 0
        self.queries = 0

    def node_position(self, node: int, t: float) -> np.ndarray:
        """Exact position of one node at *t* (``positions(t)[node]``)."""
        return self.trajectories.position(node, t)

    def positions_of(self, nodes: np.ndarray, t: float) -> np.ndarray:
        """Exact positions of a node subset at *t* (``positions(t)[nodes]``)."""
        return self.trajectories.positions_at(t, nodes)

    def _block(self, p: np.ndarray, t: float) -> np.ndarray:
        """Ascending IDs of every node that can be within the query
        radius of *p* at *t*: the stale grid's 3x3 block around *p*'s
        cell, rebuilding the grid once nodes may have left it."""
        if self._grid is None or self._vmax * (t - self._grid_t) > self._slack:
            self._grid = GridIndex(self.trajectories.positions(t), cell_size=self._cell)
            self._grid_t = t
            self._blocks.clear()
            self.rebuilds += 1
        cell = self._cell
        key = (math.floor(p[0] / cell), math.floor(p[1] / cell))
        block = self._blocks.get(key)
        if block is None:
            block = np.sort(self._grid.candidates_near_cell(*key))
            self._blocks[key] = block
        return block

    def receivers(self, sender: int, t: float, sender_pos: np.ndarray | None = None) -> np.ndarray:
        """Ascending indices of the nodes that hear *sender* at *t*.

        Bit-identical to ``IdealChannel.receivers(sender, positions(t),
        radius, now=t)`` under the same propagation model — same
        candidate superset guarantee, same exact filter (``d <= radius``
        for the unit disk, the model's keyed ``accept`` otherwise), same
        ascending order, sender excluded.
        """
        if self.radius <= 0.0:
            return _EMPTY
        self.queries += 1
        p = self.node_position(sender, t) if sender_pos is None else sender_pos
        cand = self._block(p, t)
        model = self.propagation
        if model is None:
            d = distances_from(p, self.trajectories.positions_at(t, cand))
            hit = cand[d <= self.radius]
            return hit[hit != sender]
        cand = cand[cand != sender]
        if cand.size == 0:
            return _EMPTY
        d = distances_from(p, self.trajectories.positions_at(t, cand))
        ok = model.accept(sender, cand, d, self.radius, t)
        # Same counted set as IdealChannel.receivers: candidates the unit
        # disk would reach but the model rejects (d <= query radius always
        # holds for them in any candidate superset).
        self.propagation_losses += int(
            np.count_nonzero(~ok & (d <= min(self.radius, self._query_radius)))
        )
        return cand[ok]
