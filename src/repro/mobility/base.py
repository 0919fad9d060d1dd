"""Mobility substrate: analytic piecewise-linear trajectories.

Every mobility model in this package (random waypoint, random walk,
Gauss-Markov, static) compiles node motion into a :class:`TrajectorySet` —
per-node sequences of constant-velocity legs covering the whole simulation
horizon.  Positions at *any* time are then an O(1) vectorized lookup, which
is what lets the simulator sample 10 Hz snapshots and per-Hello positions
without time-stepping the world.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["Area", "TrajectorySet", "MobilityModel"]


@dataclass(frozen=True)
class Area:
    """Rectangular deployment area ``[0, width] x [0, height]`` in metres."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"area dimensions must be positive, got {self.width} x {self.height}"
            )

    def contains(self, points: np.ndarray, tol: float = 1e-6) -> np.ndarray:
        """Boolean mask of points inside the area (with tolerance *tol*)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (
            (pts[:, 0] >= -tol)
            & (pts[:, 0] <= self.width + tol)
            & (pts[:, 1] >= -tol)
            & (pts[:, 1] <= self.height + tol)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Uniformly sample *n* points inside the area."""
        pts = rng.random((n, 2))
        pts[:, 0] *= self.width
        pts[:, 1] *= self.height
        return pts

    @property
    def diagonal(self) -> float:
        """Length of the area diagonal (an upper bound on any distance)."""
        return float(np.hypot(self.width, self.height))


class TrajectorySet:
    """Constant-velocity legs for ``n`` nodes over ``[0, horizon]``.

    Parameters
    ----------
    leg_times:
        ``(n, k)`` array of leg start times; ``leg_times[:, 0] == 0`` and
        rows are non-decreasing.  Rows may be padded by repeating the final
        time (padded legs must carry zero velocity).
    leg_points:
        ``(n, k, 2)`` positions at each leg start.
    leg_velocities:
        ``(n, k, 2)`` constant velocity during each leg, m/s.
    horizon:
        End of the covered time range, seconds.
    """

    def __init__(
        self,
        leg_times: np.ndarray,
        leg_points: np.ndarray,
        leg_velocities: np.ndarray,
        horizon: float,
    ) -> None:
        self.leg_times = np.ascontiguousarray(leg_times, dtype=np.float64)
        self.leg_points = np.ascontiguousarray(leg_points, dtype=np.float64)
        self.leg_velocities = np.ascontiguousarray(leg_velocities, dtype=np.float64)
        self.horizon = float(horizon)
        n, k = self.leg_times.shape
        if self.leg_points.shape != (n, k, 2) or self.leg_velocities.shape != (n, k, 2):
            raise ConfigurationError(
                "leg arrays are inconsistent: "
                f"times {self.leg_times.shape}, points {self.leg_points.shape}, "
                f"velocities {self.leg_velocities.shape}"
            )
        if np.any(self.leg_times[:, 0] != 0.0):
            raise ConfigurationError("every trajectory must start at t = 0")
        if np.any(np.diff(self.leg_times, axis=1) < 0):
            raise ConfigurationError("leg start times must be non-decreasing")
        self._row = np.arange(n)
        # Leg-major flat views: leg j of node i is row i * k + j, so a
        # leg lookup is one 1-D take instead of a 2-D fancy index.
        self._flat_times = self.leg_times.reshape(-1)
        self._flat_points = self.leg_points.reshape(-1, 2)
        self._flat_velocities = self.leg_velocities.reshape(-1, 2)

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by this trajectory set."""
        return self.leg_times.shape[0]

    def _legs(self, t, nodes: np.ndarray) -> np.ndarray:
        """Flat row of each node's active leg at *t*, already clamped to
        ``[0, horizon]``: the last leg starting at or before *t*.

        *t* is a scalar or one time per node.  Counting the leg starts
        ``<= t`` is a vectorized searchsorted across rows; k is small
        (tens of legs), so the O(len(nodes) * k) scan wins over per-row
        binary searches.  Every row starts at 0 <= t, so each count is
        between 1 and k.
        """
        if np.ndim(t):
            t = t[:, np.newaxis]
        legs = (self.leg_times.take(nodes, axis=0) <= t).sum(axis=1)
        legs += nodes * self.leg_times.shape[1] - 1
        return legs

    def positions(self, t: float) -> np.ndarray:
        """``(n, 2)`` positions of all nodes at time *t* (clamped to horizon)."""
        return self.positions_at(t, self._row)

    def position(self, node: int, t: float) -> np.ndarray:
        """Position of a single *node* at time *t*.

        One binary search in the node's own leg row; bit-identical to
        ``positions(t)[node]``, because rows are non-decreasing and the
        arithmetic is the same.
        """
        t = min(max(float(t), 0.0), self.horizon)
        row_times = self.leg_times[node]
        idx = int(np.searchsorted(row_times, t, side="right")) - 1
        idx = max(0, min(idx, row_times.shape[0] - 1))
        return self.leg_points[node, idx] + self.leg_velocities[node, idx] * (
            t - row_times[idx]
        )

    def positions_at(self, t, nodes: np.ndarray) -> np.ndarray:
        """``(len(nodes), 2)`` positions of a node subset at time *t*.

        *t* is one time for every node, or an array of one time per
        node: ``positions_at(times, nodes)[i]`` is then the position of
        ``nodes[i]`` at ``times[i]``, the same bits as
        ``positions_at(times[i], nodes)[i]``.  Runs the same per-element
        arithmetic on the selected rows only, so ``positions_at(t,
        nodes)`` is bit-identical to ``positions(t)[nodes]`` and subset
        evaluation (e.g. exact receiver filtering in the batched Hello
        pipeline) never pays the full ``(n, k)`` leg scan.
        """
        if np.ndim(t):
            # The scalar clamp's exact semantics (-0.0 stays -0.0).
            t = np.asarray(t, dtype=np.float64)
            t = np.where(t < 0.0, 0.0, np.where(t > self.horizon, self.horizon, t))
        else:
            t = min(max(float(t), 0.0), self.horizon)
        legs = self._legs(t, np.asarray(nodes, dtype=np.intp))
        t0 = self._flat_times.take(legs)
        p0 = self._flat_points.take(legs, axis=0)
        v = self._flat_velocities.take(legs, axis=0)
        return p0 + v * (t - t0)[:, np.newaxis]

    def velocities(self, t: float) -> np.ndarray:
        """``(n, 2)`` instantaneous velocities at time *t*."""
        t = min(max(float(t), 0.0), self.horizon)
        return self._flat_velocities.take(self._legs(t, self._row), axis=0)

    def max_speed(self) -> float:
        """Largest instantaneous speed over all nodes and legs."""
        speeds = np.sqrt(
            np.einsum("nkc,nkc->nk", self.leg_velocities, self.leg_velocities)
        )
        return float(speeds.max(initial=0.0))


class MobilityModel(ABC):
    """A mobility model: node count, area, and a compiled trajectory set."""

    def __init__(self, area: Area, n_nodes: int, horizon: float) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.area = area
        self.n_nodes = int(n_nodes)
        self.horizon = float(horizon)
        self._trajectories: TrajectorySet | None = None

    @abstractmethod
    def _compile(self) -> TrajectorySet:
        """Build the trajectory set for this model (called once, lazily)."""

    @property
    def trajectories(self) -> TrajectorySet:
        """The compiled trajectory set (built on first access)."""
        if self._trajectories is None:
            self._trajectories = self._compile()
        return self._trajectories

    def positions(self, t: float) -> np.ndarray:
        """``(n, 2)`` positions of all nodes at time *t*."""
        return self.trajectories.positions(t)

    def position(self, node: int, t: float) -> np.ndarray:
        """Position of one node at time *t*."""
        return self.trajectories.position(node, t)

    def positions_at(self, t: float, nodes: np.ndarray) -> np.ndarray:
        """Positions of a node subset at time *t* (``positions(t)[nodes]``)."""
        return self.trajectories.positions_at(t, nodes)

    def max_speed(self) -> float:
        """Upper bound on any node's instantaneous speed, m/s."""
        return self.trajectories.max_speed()
