"""Span tracing from outside the program, for the end-to-end benchmark.

The benchmark must not edit the code it measures, so this module wraps
the program's public entry points — class attributes or module-global
names — for the length of one traced pass and puts every original back
afterwards.  Each wrapped call records one span (name, start, end,
parent).  Spans stay in memory and are written as JSONL when the pass
ends.  A span's *self time* is its duration minus its children's; the
self times of every span add up to the duration of the root spans, which
is the wall time of the traced ``run_once`` calls.

Span names are the layer names of the benchmark's per-layer metrics
(``sim.engine``, ``core.manager``, ...).  Spans placed inside the program
later should reuse them, so the two instruments read the same.

Two entry points need care:

- ``repro.sim.flood`` resolves to the *function* (``repro.sim`` re-exports
  it under the submodule's name), so the module is taken from
  ``sys.modules``.
- ``run_once`` calls ``flood``, ``sample_topology`` and
  ``strictly_connected`` through the names bound in
  ``repro.analysis.experiment``, so those call-site globals are wrapped.

Both passes also sample machine speed (see ``speed.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

from speed import SpeedProbe, speed_share

#: Span name -> per-layer metric holding its self time, seconds.
SELF_TIME_METRICS = {
    "experiment": "experiment.other_s",
    "sim.engine": "sim.engine.self_s",
    "sim.hello_batch.receivers": "sim.hello_batch.receivers_s",
    "core.neighbor_state.record_batch": "core.neighbor_state.record_batch_s",
    "core.manager": "core.manager.self_s",
    "core.consistency": "core.consistency.self_s",
    "protocols.select": "protocols.select_s",
    "sim.world.redecide_all": "sim.world.redecide_all_s",
    "sim.world.snapshot": "sim.world.snapshot_s",
    "sim.flood": "sim.flood.self_s",
    "sim.flood.bfs": "sim.flood.bfs_s",
    "geometry.incremental_csr": "geometry.incremental_csr_s",
    "metrics.sample_topology": "metrics.sample_topology_s",
    "metrics.strictly_connected": "metrics.strictly_connected_s",
}

#: Span name -> per-layer metric counting its calls.
CALL_METRICS = {
    "sim.hello_batch.receivers": "sim.hello_batch.receivers_calls",
    "core.neighbor_state.record_batch": "core.neighbor_state.record_batch_calls",
    "core.manager": "core.manager.decide_calls",
    "core.consistency": "core.consistency.decide_calls",
    "protocols.select": "protocols.select_calls",
    "sim.world.redecide_all": "sim.world.redecide_all_calls",
    "sim.world.snapshot": "sim.world.snapshot_calls",
}


class Target:
    """One entry point to wrap.

    *owner* is ``"package.module"`` for a module-global name or
    ``"package.module:Class"`` for a class attribute.  *span* names the
    span each call records.  *probes* maps a counter name to an attribute
    of the call's first argument; the attribute's change across the call
    is added to the counter.
    """

    __slots__ = ("owner", "attr", "span", "probes")

    def __init__(
        self, owner: str, attr: str, span: str, probes: dict[str, str] | None = None
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.span = span
        self.probes = tuple((probes or {}).items())

    def resolve(self) -> object:
        """The module or class that holds the attribute."""
        module_name, _, class_name = self.owner.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, class_name) if class_name else module


def _subclasses_defining(base: type, attr: str) -> list[type]:
    """*base* and its subclasses that define *attr* themselves."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def layer_targets() -> list[Target]:
    """Every entry point the traced pass wraps, in wrapping order.

    Consistency mechanisms and protocols are found through their base
    classes, so a mechanism or protocol added later is traced too.
    """
    import repro.protocols  # noqa: F401 - registers every protocol class
    from repro.core.consistency import ConsistencyMechanism
    from repro.protocols.base import TopologyControlProtocol

    def qualified(cls: type) -> str:
        return f"{cls.__module__}:{cls.__qualname__}"

    targets = [
        Target("repro.sim.engine:Engine", "run", "sim.engine",
               probes={"sim.engine.events": "events_processed"}),
        Target("repro.sim.hello_batch:HelloReceiverOracle", "receivers",
               "sim.hello_batch.receivers",
               probes={"sim.hello_batch.oracle_rebuilds": "rebuilds"}),
        Target("repro.core.neighbor_state:NeighborState", "record_batch",
               "core.neighbor_state.record_batch"),
        Target("repro.core.manager:MobilitySensitiveTopologyControl", "decide",
               "core.manager", probes={"core.manager.cache_hits": "cache_hits"}),
    ]
    targets += [
        Target(qualified(cls), "decide", "core.consistency")
        for cls in _subclasses_defining(ConsistencyMechanism, "decide")
    ]
    for attr in ("select", "select_conservative"):
        targets += [
            Target(qualified(cls), attr, "protocols.select")
            for cls in _subclasses_defining(TopologyControlProtocol, attr)
        ]
    targets += [
        Target("repro.sim.world:NetworkWorld", "redecide_all", "sim.world.redecide_all"),
        Target("repro.sim.world:NetworkWorld", "snapshot", "sim.world.snapshot"),
        Target("repro.analysis.experiment", "flood", "sim.flood"),
        Target("repro.sim.flood", "directed_bfs", "sim.flood.bfs"),
        Target("repro.sim.flood", "csr_bfs", "sim.flood.bfs"),
        Target("repro.geometry.sparse:IncrementalNeighborhoods", "csr",
               "geometry.incremental_csr",
               probes={"geometry.reused_rows": "reused_rows",
                       "geometry.recomputed_rows": "recomputed_rows"}),
        Target("repro.analysis.experiment", "sample_topology", "metrics.sample_topology"),
        Target("repro.analysis.experiment", "strictly_connected",
               "metrics.strictly_connected"),
    ]
    return targets


class Patches:
    """Attribute replacements that can all be put back exactly.

    A class that inherited the attribute gets it deleted again on
    restore, so ``vars(owner)`` ends up identical to before.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def original(self, owner: object, attr: str):
        """The plain function currently reachable as ``owner.attr``."""
        fn = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        if not inspect.isfunction(fn):
            raise TypeError(f"{owner!r}.{attr} is not a plain function: {fn!r}")
        return fn

    def set(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, value = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class Instrument:
    """What the untraced and the traced pass share.

    A :class:`~speed.SpeedProbe` samples machine speed while the program
    is wrapped.
    """

    def __init__(self) -> None:
        self.probe = SpeedProbe()

    def _patch(self, patches: Patches) -> None:
        raise NotImplementedError

    def call(self):
        """Context around one ``run_once`` call."""
        raise NotImplementedError

    def speed(self) -> float:
        """Mean machine speed over the pass, as a share of the reference."""
        return speed_share(self.probe.samples)

    @contextmanager
    def installed(self):
        """Wrap the program and sample speed for the duration of the block."""
        patches = Patches()
        try:
            self._patch(patches)
            self.probe.start()
            try:
                yield self
            finally:
                self.probe.stop()
        finally:
            patches.restore()


class Tracer(Instrument):
    """In-memory span recorder."""

    def __init__(self) -> None:
        super().__init__()
        #: (name, start, end, parent index or -1), in opening order
        self.spans: list[tuple | None] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.tally: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        #: open frames, innermost last: [name, start, children's seconds, index]
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, children, index = frame
        duration = end - start
        row = self.tally.get(name)
        if row is None:
            row = self.tally[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end, parent[3] if parent is not None else -1)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def call(self):
        """Root span of one ``run_once`` call."""
        frame = self._open("experiment")
        try:
            yield frame
        finally:
            self._close(frame)

    def wrap(self, fn, target: Target):
        """*fn* wrapped to record *target*'s span and counters."""
        name, probes = target.span, target.probes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = [getattr(args[0], attr) for _, attr in probes]
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            for (counter, attr), value in zip(probes, before):
                tracer.count(counter, getattr(args[0], attr) - value)
            return result

        return traced

    def _patch(self, patches: Patches) -> None:
        for target in layer_targets():
            owner = target.resolve()
            patches.set(owner, target.attr,
                        self.wrap(patches.original(owner, target.attr), target))

    def write_jsonl(self, path: Path, origin: float) -> int:
        """Write the spans as JSONL, times relative to *origin*."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": None if parent < 0 else parent,
                }) + "\n")
        return len(self.spans)


class StepClock(Instrument):
    """The untraced pass: one timestamp per flood probe, nothing else.

    ``repro.analysis.experiment.flood`` is rebound to record the time a
    probe starts; :meth:`call` marks each ``run_once`` call's start, so
    the first step of a run is measured from the call.
    """

    def __init__(self) -> None:
        super().__init__()
        self.runs: list[list[float]] = []

    @contextmanager
    def call(self):
        self.runs.append([time.perf_counter()])
        yield

    def intervals_ms(self) -> list[float]:
        """Every step of every run, in milliseconds."""
        return [
            (b - a) * 1e3
            for marks in self.runs
            for a, b in zip(marks, marks[1:])
        ]

    def _patch(self, patches: Patches) -> None:
        experiment = importlib.import_module("repro.analysis.experiment")
        flood = patches.original(experiment, "flood")
        clock = self

        @functools.wraps(flood)
        def timed_flood(*args, **kwargs):
            clock.runs[-1].append(time.perf_counter())
            return flood(*args, **kwargs)

        patches.set(experiment, "flood", timed_flood)
