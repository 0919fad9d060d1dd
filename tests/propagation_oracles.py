"""Dense reference predicates of the propagation models (test oracles).

The program asks a model only per candidate edge
(:meth:`~repro.sim.propagation.PropagationModel.accept` over the
superset-radius neighborhood).  :func:`in_range_matrix` is the same
verdict written over a full ``(n, n)`` distance matrix, from each
model's definition, so the snapshot's CSR route and the channel's
per-sender scan can be checked against an independent form.
"""

from __future__ import annotations

import numpy as np

from repro.sim.propagation import (
    LogDistance,
    ProbabilisticSINR,
    PropagationModel,
    UnitDisk,
    _directed_key,
    _pair_key,
)


def _unit_disk(model: UnitDisk, dist, ranges, now):
    return dist <= np.asarray(ranges)[:, np.newaxis]


def _log_distance(model: LogDistance, dist, ranges, now):
    n = dist.shape[0]
    idx = np.arange(n, dtype=np.uint64)
    key = _pair_key(idx[:, np.newaxis], idx[np.newaxis, :])
    return dist <= np.asarray(ranges)[:, np.newaxis] * model._factor(key)


def _sinr(model: ProbabilisticSINR, dist, ranges, now):
    n = dist.shape[0]
    idx = np.arange(n, dtype=np.uint64)
    key = _directed_key(idx[:, np.newaxis], idx[np.newaxis, :])
    p = model.success_probability(dist, np.asarray(ranges)[:, np.newaxis])
    return model._draw(key, now) < p


_ORACLES = {
    UnitDisk: _unit_disk,
    LogDistance: _log_distance,
    ProbabilisticSINR: _sinr,
}


def in_range_matrix(
    model: PropagationModel, dist: np.ndarray, ranges: np.ndarray, now: float
) -> np.ndarray:
    """Dense directed reachability: ``out[u, v]`` iff v hears u.

    The same predicate as ``model.accept`` over a full ``(n, n)``
    distance matrix with per-row transmit ranges; the diagonal is left
    to the caller.
    """
    return _ORACLES[type(model)](model, dist, ranges, now)
