"""Trace recording: persist per-sample snapshots for offline analysis.

A :class:`TraceRecorder` captures the time series a simulation produces —
positions, ranges, logical adjacency, per-sample delivery — into plain
NumPy arrays that save/load as a single ``.npz`` file.  The logical
adjacency is kept as CSR neighbor lists, so a trace of any network size
takes memory in proportion to its links.  This is what lets
long full-scale runs be analysed (or re-plotted) without re-simulating,
and gives downstream users a stable interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.csr import CSRGraph
from repro.sim.world import NetworkWorld, WorldSnapshot
from repro.util.errors import SimulationError

__all__ = ["TraceRecorder", "SimulationTrace"]


@dataclass(frozen=True)
class SimulationTrace:
    """An immutable recorded run.

    Attributes
    ----------
    times:
        ``(k,)`` sample instants.
    positions:
        ``(k, n, 2)`` true positions per sample.
    logical_indptr / logical_indices:
        Logical adjacency per sample as CSR neighbor lists: sample ``i``'s
        rows are ``logical_indptr[i]`` (``(k, n + 1)``), which index the
        flat ``logical_indices`` of every sample (:meth:`logical_csr`).
    actual_ranges / extended_ranges:
        ``(k, n)`` per-node ranges per sample.
    delivery_ratios:
        ``(k,)`` flood delivery per sample (NaN when not probed).
    meta:
        Free-form scalars (n_nodes, normal_range, label, ...).
    """

    times: np.ndarray
    positions: np.ndarray
    logical_indptr: np.ndarray
    logical_indices: np.ndarray
    actual_ranges: np.ndarray
    extended_ranges: np.ndarray
    delivery_ratios: np.ndarray
    meta: dict

    @property
    def n_samples(self) -> int:
        """Number of recorded samples."""
        return int(self.times.shape[0])

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the recorded world."""
        return int(self.positions.shape[1]) if self.n_samples else 0

    def logical_csr(self, index: int) -> CSRGraph:
        """The logical adjacency of sample *index*."""
        indptr = self.logical_indptr[index]
        return CSRGraph(
            indptr - indptr[0],
            self.logical_indices[indptr[0] : indptr[-1]],
            n=indptr.shape[0] - 1,
        )

    def snapshot(self, index: int) -> WorldSnapshot:
        """Reconstruct the :class:`WorldSnapshot` of sample *index*.

        The stored adjacency becomes the snapshot's
        :attr:`~WorldSnapshot.logical_csr`; every other topology is built
        from the positions on demand, as in a live snapshot.
        """
        return WorldSnapshot(
            time=float(self.times[index]),
            positions=self.positions[index],
            logical_csr=self.logical_csr(index),
            actual_ranges=self.actual_ranges[index],
            extended_ranges=self.extended_ranges[index],
            normal_range=float(self.meta.get("normal_range", np.inf)),
        )

    def save(self, path) -> None:
        """Write the trace to an ``.npz`` file."""
        meta_keys = np.array(sorted(self.meta), dtype=object)
        meta_vals = np.array([repr(self.meta[k]) for k in meta_keys], dtype=object)
        np.savez_compressed(
            path,
            times=self.times,
            positions=self.positions,
            logical_indptr=self.logical_indptr,
            logical_indices=self.logical_indices,
            actual_ranges=self.actual_ranges,
            extended_ranges=self.extended_ranges,
            delivery_ratios=self.delivery_ratios,
            meta_keys=meta_keys,
            meta_vals=meta_vals,
        )

    @classmethod
    def load(cls, path) -> "SimulationTrace":
        """Read a trace written by :meth:`save`; a trace saved with a dense
        ``(k, n, n)`` ``logical`` array loads too."""
        import ast

        with np.load(path, allow_pickle=True) as data:
            meta = {
                str(k): ast.literal_eval(str(v))
                for k, v in zip(data["meta_keys"], data["meta_vals"])
            }
            if "logical" in data:
                indptr, indices = _stack_csr(
                    [CSRGraph.from_dense(adj) for adj in data["logical"]],
                    data["positions"].shape[1],
                )
            else:
                indptr, indices = data["logical_indptr"], data["logical_indices"]
            return cls(
                times=data["times"],
                positions=data["positions"],
                logical_indptr=indptr,
                logical_indices=indices,
                actual_ranges=data["actual_ranges"],
                extended_ranges=data["extended_ranges"],
                delivery_ratios=data["delivery_ratios"],
                meta=meta,
            )


class TraceRecorder:
    """Accumulates world snapshots into a :class:`SimulationTrace`.

    Examples
    --------
    >>> # recorder = TraceRecorder(world)
    >>> # for t in sample_times: world.run_until(t); recorder.record()
    >>> # trace = recorder.finish(); trace.save("run.npz")
    """

    def __init__(self, world: NetworkWorld, label: str = "") -> None:
        self.world = world
        self.label = label
        self._times: list[float] = []
        self._positions: list[np.ndarray] = []
        self._logical: list[CSRGraph] = []
        self._actual: list[np.ndarray] = []
        self._extended: list[np.ndarray] = []
        self._delivery: list[float] = []
        self._finished = False

    def record(self, delivery_ratio: float = float("nan")) -> None:
        """Capture the world's state *now* (optionally with a probe result)."""
        if self._finished:
            raise SimulationError("recorder already finished")
        snap = self.world.snapshot()
        self._times.append(snap.time)
        self._positions.append(snap.positions)
        self._logical.append(snap.logical_csr)
        self._actual.append(snap.actual_ranges)
        self._extended.append(snap.extended_ranges)
        self._delivery.append(float(delivery_ratio))

    @property
    def n_recorded(self) -> int:
        """Samples captured so far."""
        return len(self._times)

    def finish(self) -> SimulationTrace:
        """Freeze the recording into an immutable trace.

        When the world was built with an armed telemetry collector, its
        frozen summary rides along as ``meta["telemetry"]``; an armed
        fault schedule is embedded as ``meta["fault_schedule"]`` (the
        :meth:`~repro.faults.FaultSchedule.as_dict` form), so a saved
        trace records both the disturbance that was injected and what
        the instrumented run measured.  Both values survive the ``.npz``
        ``repr``/``literal_eval`` metadata round-trip.
        """
        self._finished = True
        world = self.world
        n = world.config.n_nodes
        k = len(self._times)
        meta = {
            "label": self.label or world.manager.describe(),
            "n_nodes": n,
            "normal_range": world.config.normal_range,
            "duration": world.config.duration,
        }
        if world.telemetry.enabled:
            meta["telemetry"] = world.telemetry.summary().as_dict()
        if world.fault_injector is not None:
            meta["fault_schedule"] = world.fault_injector.schedule.as_dict()
        indptr, indices = _stack_csr(self._logical, n)
        return SimulationTrace(
            times=np.asarray(self._times),
            positions=(
                np.stack(self._positions) if k else np.zeros((0, n, 2))
            ),
            logical_indptr=indptr,
            logical_indices=indices,
            actual_ranges=(np.stack(self._actual) if k else np.zeros((0, n))),
            extended_ranges=(np.stack(self._extended) if k else np.zeros((0, n))),
            delivery_ratios=np.asarray(self._delivery),
            meta=meta,
        )


def _stack_csr(graphs: list[CSRGraph], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of many *n*-node graphs: row ``i`` of the
    ``(k, n + 1)`` *indptr* indexes graph ``i``'s neighbors in the flat
    *indices* of all of them."""
    if not graphs:
        return np.zeros((0, n + 1), dtype=np.int64), np.zeros(0, dtype=np.intp)
    offsets = np.cumsum([0] + [g.nnz for g in graphs[:-1]])
    indptr = np.stack([g.indptr + offset for g, offset in zip(graphs, offsets)])
    return indptr, np.concatenate([g.indices for g in graphs])
