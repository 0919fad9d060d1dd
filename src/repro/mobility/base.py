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

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by this trajectory set."""
        return self.leg_times.shape[0]

    def _leg_index(self, t: float) -> np.ndarray:
        # Index of the active leg per node: the last leg starting at or
        # before t.  (leg_times <= t).sum() is a vectorized searchsorted
        # across rows; k is small (tens of legs) so the O(n*k) scan wins
        # over per-row binary searches.
        idx = (self.leg_times <= t).sum(axis=1) - 1
        return np.minimum(np.maximum(idx, 0), self.leg_times.shape[1] - 1)

    def positions(self, t: float) -> np.ndarray:
        """``(n, 2)`` positions of all nodes at time *t* (clamped to horizon)."""
        t = min(max(float(t), 0.0), self.horizon)
        idx = self._leg_index(t)
        t0 = self.leg_times[self._row, idx]
        p0 = self.leg_points[self._row, idx]
        v = self.leg_velocities[self._row, idx]
        return p0 + v * (t - t0)[:, np.newaxis]

    def position(self, node: int, t: float) -> np.ndarray:
        """Position of a single *node* at time *t*."""
        t = min(max(float(t), 0.0), self.horizon)
        row_times = self.leg_times[node]
        idx = int(np.searchsorted(row_times, t, side="right")) - 1
        idx = max(0, min(idx, row_times.shape[0] - 1))
        return self.leg_points[node, idx] + self.leg_velocities[node, idx] * (
            t - row_times[idx]
        )

    def positions_at(self, t: float, nodes: np.ndarray) -> np.ndarray:
        """``(len(nodes), 2)`` positions of a node subset at time *t*.

        Runs the exact per-element arithmetic of :meth:`positions` on the
        selected rows only — ``positions_at(t, nodes)`` is bit-identical
        to ``positions(t)[nodes]`` — so subset evaluation (e.g. exact
        receiver filtering in the batched Hello pipeline) never pays the
        full ``(n, k)`` leg scan.
        """
        t = min(max(float(t), 0.0), self.horizon)
        nodes = np.asarray(nodes, dtype=np.intp)
        times = self.leg_times[nodes]
        idx = (times <= t).sum(axis=1) - 1
        idx = np.minimum(np.maximum(idx, 0), times.shape[1] - 1)
        rows = np.arange(nodes.shape[0])
        t0 = times[rows, idx]
        p0 = self.leg_points[nodes, idx]
        v = self.leg_velocities[nodes, idx]
        return p0 + v * (t - t0)[:, np.newaxis]

    def velocities(self, t: float) -> np.ndarray:
        """``(n, 2)`` instantaneous velocities at time *t*."""
        t = min(max(float(t), 0.0), self.horizon)
        idx = self._leg_index(t)
        return self.leg_velocities[self._row, idx].copy()

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
