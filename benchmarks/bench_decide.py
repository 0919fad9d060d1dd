"""Decision-pipeline benchmark: decision cache and the batched kernels.

Measures the incremental decision pipeline (see ``docs/PERFORMANCE.md``):

- ``redecide_all`` at the paper's scale (100 nodes) under view
  synchronization, cache on vs cache off — packet-time recomputation with
  an unchanged view must collapse to cache hits;
- ``redecide_all`` in the paper's own mix (``redecide_mixed``): 100
  nodes, view synchronization, a probe every 0.1 s with the Hello traffic
  in between, so about 90% of decisions miss.  Each call's time is split
  into the member gather, the cache check and ``select_batch``;
  ``--before FILE`` embeds the same row from a ``BENCH_decide.json``
  written at another commit, for a before/after pair;
- Hello-time decisions (``hello_decisions``): one 30-s (5-s with
  ``--smoke``), 100-node baseline run per protocol (mst, rng, spt4,
  spt2), timed end to end
  and inside the manager's decision entry points, with the number of
  decisions made and a digest of the decisions each snapshot reads;
  where the manager settles gathered decisions, the
  recorded gathers are replayed as blocks of one owner against the
  blocks the world settled.  ``--before FILE`` embeds these rows from
  another commit;
- weak-consistency decisions (``weak_decision``): one
  ``WeakConsistency.select`` of RNG, SPT-4 and MST over one gather of
  every owner's multi-version view in a 100-node world at paper
  density, the history gather alone, and both together, timed in one
  alternating loop, and how many protocol calls the selection makes;
  ``--before FILE`` embeds these rows from another commit too, and a
  digest of the decisions shows both commits decided the same;
- the fixed cost of every Hello (``hello_traffic``): one run of the
  ``paper-baseline`` scenario (rng, n = 100, 30 s) and one of the
  ``scale-10k`` scenario (rng + proactive, n = 10,000, 2.5 s), each
  Hello's time split into the receiver lookup, the sender position,
  ``record_batch``, the flush of queued deliveries and the Hello-time
  gather, with a digest of every receiver array and of the decisions
  each snapshot reads, and counts of gathers, view rows read, rows
  selected, gathers dropped unread, flushes and pairs flushed;
  ``--before FILE`` embeds
  these rows from another commit (where the oracle answers Hellos in
  batches, the lookup phase holds the sender positions too);
- the gossip mechanism (``gossip``): the warm-up wall time of an rng +
  gossip world at n in {100, 1000} against the same world under view
  synchronization, with the dissemination counters; ``--before FILE``
  embeds these rows from another commit, and equal counters on both
  sides show both commits gossiped the same;
- the snapshot -> decide -> flood pipeline at
  n in {2000, 5000, 10000} (paper density, proactive mechanism), where
  snapshots are CSR-backed and no ``(n, n)`` matrix is ever built.

Outputs are asserted bit-identical between the compared variants before
any timing.  A full run writes ``BENCH_decide.json`` (median ns/op plus
speedups) at the repository root for regression tracking; a ``--smoke``
run writes to a temporary file, so the checked-in pair stays as it is
(``--out`` names another path for either).

Run explicitly — it is not part of tier-1:

    PYTHONPATH=src python benchmarks/bench_decide.py [--smoke] [--before FILE] [--out FILE]
    PYTHONPATH=src python -m pytest benchmarks/bench_decide.py -m decide_bench
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.analysis.scales import Scale
from repro.core.consistency import WeakConsistency
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.views import Hello
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.sim.hello_batch import HelloReceiverOracle

pytestmark = pytest.mark.decide_bench

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decide.json"

#: paper density: 8100 m^2 per node => side = 90 * sqrt(n)
def _side(n: int) -> float:
    return 90.0 * float(np.sqrt(n))


def _median_ns(fn, budget_s: float = 2.0, min_reps: int = 5) -> float:
    """Median wall time of ``fn()`` in nanoseconds (self-sizing reps)."""
    start = time.perf_counter()
    fn()
    est = time.perf_counter() - start
    reps = max(min_reps, min(200, int(budget_s / max(est, 1e-9))))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples) * 1e9)


def _alternating_medians_ns(
    fns: dict, budget_s: float = 2.0, min_reps: int = 5
) -> dict[str, float]:
    """Median wall time of each ``fns[name]()`` in nanoseconds, timed in
    one loop that runs every function once per pass, so a slow spell of
    the host falls on all of them alike (self-sizing reps)."""
    start = time.perf_counter()
    for fn in fns.values():
        fn()
    est = time.perf_counter() - start
    reps = max(min_reps, min(200, int(budget_s / max(est, 1e-9))))
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: float(np.median(times) * 1e9) for name, times in samples.items()}


def _decisions(world) -> list:
    return [
        (
            node.node_id,
            None
            if node.decision is None
            else (
                node.decision.logical_neighbors,
                node.decision.actual_range,
                node.decision.extended_range,
            ),
        )
        for node in world.nodes
    ]


def bench_redecide(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Time ``redecide_all`` cache-on vs cache-off at *n* nodes, view-sync."""
    scale = Scale(
        name="bench",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="view-sync",
        mean_speed=20.0,
        config=scale.config(),
    )
    world_on = build_world(spec, seed)
    world_off = build_world(spec, seed)
    world_off.manager.decision_cache_enabled = False
    world_on.run_until(warm_t)
    world_off.run_until(warm_t)

    # Bit-identical decisions with the cache on and off, before any timing.
    world_on.redecide_all()
    world_off.redecide_all()
    if _decisions(world_on) != _decisions(world_off):
        raise AssertionError("decision cache changed redecide_all outputs")

    on_ns = _median_ns(world_on.redecide_all)
    off_ns = _median_ns(world_off.redecide_all)
    info = world_on.manager.cache_info()
    print(
        f"redecide_all n={n:<4} cache-off={off_ns / 1e6:8.2f} ms   "
        f"cache-on={on_ns / 1e6:8.2f} ms   {off_ns / on_ns:6.1f}x   "
        f"(hits={info['decision_cache_hits']}, "
        f"misses={info['decision_cache_misses']})"
    )
    return {
        "n": n,
        "cache_off_ns": round(off_ns),
        "cache_on_ns": round(on_ns),
        "speedup": round(off_ns / on_ns, 2),
        **info,
    }


#: Where each phase of a packet-time redecision runs, as (module, class,
#: method).
MIXED_PHASES = {
    "gather": ("repro.core.neighbor_state", "NeighborState", "latest_members"),
    "cache_check": ("repro.core.manager", "_DecisionCache", "hits"),
    "select_batch": ("repro.protocols.base", "ConditionProtocol", "select_batch"),
}


def _phase_timers(phases: dict) -> tuple[dict[str, float], dict[str, int], list[bool], list]:
    """Wrap one method per phase with a wall-time accumulator.

    A phase is ``(module, class, method)``, or ``(module, class, method,
    keep)`` where ``keep(kwargs)`` says whether a call counts.  *method*
    may be a tuple of names: the first the class defines is wrapped, so
    a phase that moved to a new method still runs at older commits; a
    phase whose class defines none of them reads 0.
    Returns
    ``(seconds per phase, calls per phase, armed flag, undo list of
    (class, name, original))``; time accumulates only while ``armed[0]``
    is True.
    """
    import importlib

    totals = dict.fromkeys(phases, 0.0)
    calls = dict.fromkeys(phases, 0)
    armed = [False]
    undo = []
    for phase, (module, cls_name, attr, *keep) in phases.items():
        cls = getattr(importlib.import_module(module), cls_name)
        attr = next((a for a in (attr if isinstance(attr, tuple) else (attr,))
                     if a in vars(cls)), None)
        if attr is None:
            continue
        original = vars(cls)[attr]

        def timed(*args, _fn=original, _phase=phase, _keep=keep, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                if armed[0] and (not _keep or _keep[0](kwargs)):
                    totals[_phase] += time.perf_counter() - t0
                    calls[_phase] += 1

        setattr(cls, attr, timed)
        undo.append((cls, attr, original))
    return totals, calls, armed, undo


def bench_redecide_mixed(
    n: int = 100, seed: int = 7, warm_t: float = 3.0, probes: int = 40
) -> dict:
    """``redecide_all`` at 10 probes/s with the Hello traffic in between.

    The paper workload's shape: rng + view synchronization, 20 m/s at
    paper density.  A cache-off twin must make the same decisions at
    every probe.  One pass is timed end to end (median ns per call); a
    second, identical pass times the gather, the cache check and
    ``select_batch`` inside the calls (mean ns per call, against that
    pass's own mean per call, ``split_total_ns``).
    """
    scale = Scale(
        name="bench-mixed",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + probes / 10.0 + 1.0,
        sample_rate=10.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng", mechanism="view-sync", mean_speed=20.0, config=scale.config()
    )
    times = warm_t + 0.1 * np.arange(probes)

    def drive(cache: bool, armed=(False,)) -> tuple[list, list[float], dict]:
        world = build_world(spec, seed)
        world.manager.decision_cache_enabled = cache
        trace, samples = [], []
        for t in times:
            world.run_until(float(t))
            armed[0] = True
            t0 = time.perf_counter()
            world.redecide_all()
            samples.append(time.perf_counter() - t0)
            armed[0] = False
            trace.append(_decisions(world))
        return trace, samples, world.manager.cache_info()

    trace, samples, info = drive(True, [False])
    if drive(False, [False])[0] != trace:
        raise AssertionError("decision cache changed the mixed redecision outputs")
    totals, _, armed, undo = _phase_timers(MIXED_PHASES)
    try:
        split_trace, split_samples, _ = drive(True, armed)
    finally:
        for cls, attr, original in undo:
            setattr(cls, attr, original)
    if split_trace != trace:
        raise AssertionError("timing the phases changed the decisions")
    total_ns = float(np.median(samples) * 1e9)
    split = {f"{phase}_ns": round(s * 1e9 / probes) for phase, s in totals.items()}
    split_total_ns = round(sum(split_samples) * 1e9 / probes)
    decided = info["decision_cache_hits"] + info["decision_cache_misses"]
    print(
        f"redecide_mixed n={n:<4} {total_ns / 1e6:8.2f} ms/call   split of "
        f"{split_total_ns / 1e6:.2f} ms: "
        + "   ".join(f"{k[:-3]}={v / 1e6:6.2f} ms" for k, v in split.items())
        + f"   (miss rate {info['decision_cache_misses'] / decided:.1%})"
    )
    return {
        "n": n,
        "probes": probes,
        "redecide_ns": round(total_ns),
        "split_total_ns": split_total_ns,
        **split,
        **info,
    }


HELLO_PROTOCOLS = ("mst", "rng", "spt4", "spt2")

#: The manager's decision entry points, where a commit defines them.
DECISION_ENTRIES = ("decide", "gather", "settle")
#: The manager method that selects a list of gathers, the first a commit
#: defines: ``_select`` where the manager queues its decisions, else
#: ``settle`` (which took the list before the manager held the queue).
SELECT_ENTRIES = ("_select", "settle")


def _snapshot_digest():
    """Digest every node's decision as each world snapshot reads it.

    Wraps ``NetworkWorld.snapshot`` and reads the decisions once it
    returns (every waiting decision has settled by then); returns the
    running hash and a function that unwraps.  A decision that no
    snapshot reads is left out, since a commit may drop it unselected.
    """
    from repro.sim.world import NetworkWorld

    digest = hashlib.sha256()
    snapshot = vars(NetworkWorld)["snapshot"]

    def digest_snapshot(self, t=None):
        snap = snapshot(self, t)
        digest.update(repr((self.engine.now, [
            None if d is None else (
                d.owner, d.decided_at, sorted(d.logical_neighbors),
                d.actual_range, d.extended_range,
            )
            for d in (node._decision for node in self.nodes)
        ])).encode())
        return snap

    NetworkWorld.snapshot = digest_snapshot

    def undo() -> None:
        NetworkWorld.snapshot = snapshot

    return digest, undo


def bench_hello_decisions(
    name: str, n: int = 100, seed: int = 7, duration: float = 30.0
) -> dict:
    """Hello-time decisions of one baseline run at paper density.

    ``run_s`` is the wall time of the whole ``run_once``; ``decide_s``
    the part spent inside the manager's outermost decision calls
    (``decide``, or ``gather`` and ``settle`` where the manager defers
    selection), all of them Hello-time under baseline views.
    ``decisions`` counts the decisions made (selected), and
    ``decisions_sha256`` digests every node's decision as each snapshot
    reads it, so a before/after pair shows both sides decided the same
    even where one drops decisions nothing reads.

    Where the manager selects lists of gathers (:data:`SELECT_ENTRIES`),
    the run's gathers are recorded and replayed against the settled
    manager: each owner selected alone (a ``select_batch`` block of one,
    as per-Hello selection did) and the gathers in the batches the
    manager selected together, in ns per decision.
    """
    cls = MobilitySensitiveTopologyControl
    scale = Scale(
        name="bench-hello",
        n_nodes=n,
        area_side=_side(n),
        duration=duration,
        sample_rate=10.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol=name, mechanism="baseline", mean_speed=20.0, buffer_width=10.0,
        config=scale.config(),
    )
    decided: list = []
    batches: list = []
    inside = [0.0, 0]  # seconds, call depth
    select_attr = next((a for a in SELECT_ENTRIES if a in vars(cls)), None)

    def timed(original):
        def wrapper(self, *args, **kwargs):
            inside[1] += 1
            t0 = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                inside[1] -= 1
                if not inside[1]:
                    inside[0] += time.perf_counter() - t0

        return wrapper

    def recorded(attr, original):
        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            if attr == select_attr:
                batches.append((self, list(args[0])))
                decided.extend(d for ds in out for d in ds if d is not None)
            elif attr == "decide" and select_attr is None:
                decided.append(out)
            return out

        return wrapper

    originals = {
        attr: vars(cls)[attr]
        for attr in (*DECISION_ENTRIES, *SELECT_ENTRIES)
        if attr in vars(cls)
    }
    for attr, original in originals.items():
        wrapped = recorded(attr, original)
        setattr(cls, attr, timed(wrapped) if attr in DECISION_ENTRIES else wrapped)
    read, undo = _snapshot_digest()
    try:
        t0 = time.perf_counter()
        run_once(spec, seed=seed)
        run_s = time.perf_counter() - t0
    finally:
        undo()
        for attr, original in originals.items():
            setattr(cls, attr, original)
    row = {
        "n": n,
        "duration_s": duration,
        "decisions": len(decided),
        "run_s": round(run_s, 3),
        "decide_s": round(inside[0], 3),
        "decisions_sha256": read.hexdigest(),
    }
    line = (
        f"hello_decisions {name:<5} n={n:<4} run={run_s:6.2f} s   "
        f"decide={inside[0]:6.2f} s"
    )
    if batches:
        gathers = [(manager, g) for manager, batch in batches for g in batch]
        select = originals[select_attr]

        def one_by_one() -> list:
            return [d for manager, g in gathers for d in select(manager, [g])[0]]

        def as_settled() -> list:
            return [
                d for manager, batch in batches
                for ds in select(manager, batch) for d in ds
            ]

        if one_by_one() != as_settled():
            raise AssertionError(f"{name}: settling in blocks changed the decisions")
        per = len(gathers)
        row["block_of_one_ns"] = round(_median_ns(one_by_one, budget_s=1.0, min_reps=3) / per)
        row["settled_blocks_ns"] = round(_median_ns(as_settled, budget_s=1.0, min_reps=3) / per)
        row["mean_block"] = round(per / len(batches), 2)
        line += (
            f"   block of one={row['block_of_one_ns'] / 1e3:6.1f} us   settled "
            f"blocks (mean {row['mean_block']})={row['settled_blocks_ns'] / 1e3:6.1f} us"
            " per decision"
        )
    print(line)
    return row


#: Where each phase of a Hello runs, as (module, class, method[, keep]).
#: The receiver lookup is the oracle's batched ``lookup``, which also
#: gives the senders' positions, or ``receivers`` at commits without
#: it, where the sender's position is read once per emitted Hello;
#: every ``record_batch`` is one Hello delivery (queued where the store
#: writes behind); ``flush`` applies the queued deliveries (0 at commits
#: that write at once), inside the call that triggered it: a read (so
#: the gather's time holds it too) or ``record_batch`` at the queue
#: bound; only gathers labelled ``phase="hello"`` are Hello-time
#: decisions.
HELLO_PHASES = {
    "receiver_lookup": (
        "repro.sim.hello_batch", "HelloReceiverOracle", ("lookup", "receivers")
    ),
    "sender_position": ("repro.sim.world", "NetworkWorld", "_node_position"),
    "record_batch": ("repro.core.neighbor_state", "NeighborState", "record_batch"),
    "flush": ("repro.core.neighbor_state", "NeighborState", "_flush"),
    "gather": (
        "repro.core.manager",
        "MobilitySensitiveTopologyControl",
        "gather",
        lambda kwargs: kwargs.get("phase") == "hello",
    ),
}

#: What the ``hello_traffic`` row counts, as (module, class, method,
#: amount per call): the manager's gathers, the view rows the neighbor
#: store reads members for, the rows selected, the gathers dropped
#: unread (by the world's ``discard`` calls, or the manager's ``_drop``), and the neighbor store's flushes that applied queued
#: deliveries and the (receiver, sender) pairs they applied (a method a
#: commit lacks counts 0).
HELLO_COUNTERS = {
    "gathers": [("repro.core.manager", "MobilitySensitiveTopologyControl", "gather",
                 lambda *args, **kwargs: 1)],
    "rows_read": [
        ("repro.core.neighbor_state", "NeighborState", read,
         lambda self, receivers, *args, **kwargs: len(receivers))
        for read in ("latest_members", "versioned_members", "history_members")
    ],
    "rows_selected": [("repro.core.consistency", "ConsistencyMechanism", "select",
                       lambda self, protocol, views: int(views.owners.size))],
    "superseded": [
        ("repro.core.manager", "MobilitySensitiveTopologyControl", "discard",
         lambda self, gathered: len(gathered)),
        ("repro.core.manager", "MobilitySensitiveTopologyControl", "_drop",
         lambda self, key: 1),
    ],
    "flushes": [("repro.core.neighbor_state", "NeighborState", "_flush",
                 lambda self: int(bool(self._queue)))],
    "pairs_flushed": [("repro.core.neighbor_state", "NeighborState", "_flush",
                       lambda self: sum(receivers.size for _, receivers in self._queue))],
}


def _counters(counters: dict, armed: list[bool], undo: list) -> dict[str, int]:
    """Wrap each method of *counters* to add its amount per call to its
    counter while ``armed[0]`` is True; the originals go on *undo*."""
    import importlib

    totals = dict.fromkeys(counters, 0)
    for name, targets in counters.items():
        for module, cls_name, attr, amount in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls).get(attr)
            if original is None:
                continue

            def counted(*args, _fn=original, _name=name, _amount=amount, **kwargs):
                if armed[0]:
                    totals[_name] += _amount(*args, **kwargs)
                return _fn(*args, **kwargs)

            setattr(cls, attr, counted)
            undo.append((cls, attr, original))
    return totals


#: The two e2e scenarios whose Hellos the ``hello_traffic`` row times, as
#: (protocol, mechanism, n, duration, buffer width, warmup), with the
#: smoke sizes the e2e self-test uses.
HELLO_SCENARIOS = {
    "paper-baseline": (("rng", "baseline", 100, 30.0, 10.0, 2.0), 30, 3.0),
    "scale-10k": (("rng", "proactive", 10_000, 2.5, 0.0, 2.5), 600, 2.5),
}


def _scenario_spec(
    protocol: str, mechanism: str, n: int, duration: float, buffer: float, warmup: float
) -> ExperimentSpec:
    """n nodes at paper density, 20 m/s, 10 samples/s after *warmup*."""
    side = _side(n)
    return ExperimentSpec(
        protocol=protocol,
        mechanism=mechanism,
        buffer_width=buffer,
        mean_speed=20.0,
        config=ScenarioConfig(
            n_nodes=n, area=Area(side, side), duration=duration, warmup=warmup,
            sample_rate=10.0,
        ),
    )


def bench_hello_traffic(scenario: str, smoke: bool = False, seed: int = 1000) -> dict:
    """The fixed cost of every Hello in one e2e scenario.

    ``run_s`` is the median wall time of ``run_once`` (three runs; one
    with *smoke*) and ``per_hello_us`` that time per Hello sent.  One
    more run, with every :data:`HELLO_PHASES` method wrapped, gives the
    time per Hello spent in each phase and its call count, and digests
    every receiver array (sender, time, receivers) and every node's
    decision as each snapshot reads it, so a before/after pair shows
    both commits sent and decided the same: a decision no snapshot
    reads is left out, since a commit may drop it unselected.  The same
    run counts :data:`HELLO_COUNTERS`: the manager's gathers, the view
    rows whose members the neighbor store read, the rows selected, the
    gathers dropped unread (0 at commits that drop none), and the
    flushes of queued deliveries and the pairs they applied (0 at
    commits that write at once).
    """
    args, smoke_n, smoke_duration = HELLO_SCENARIOS[scenario]
    protocol, mechanism, n, duration, buffer, warmup = args
    if smoke:
        n, duration, warmup = smoke_n, smoke_duration, min(warmup, smoke_duration)
    spec = _scenario_spec(protocol, mechanism, n, duration, buffer, warmup)
    runs = []
    for _ in range(1 if smoke else 3):
        t0 = time.perf_counter()
        result = run_once(spec, seed=seed)
        runs.append(time.perf_counter() - t0)
    hellos = result.stats.hello_messages

    receivers = hashlib.sha256()
    totals, calls, armed, undo = _phase_timers(HELLO_PHASES)
    counts = _counters(HELLO_COUNTERS, armed, undo)
    # The digests wrap the timers, so the phase times leave them out.
    # The world asks the oracle once per Hello: ``hello`` (position and
    # receivers), or ``receivers`` at commits without it.
    per_hello = "hello" if "hello" in vars(HelloReceiverOracle) else "receivers"
    lookup = getattr(HelloReceiverOracle, per_hello)

    def digest_receivers(self, sender, t, *args, **kwargs):
        out = lookup(self, sender, t, *args, **kwargs)
        hit = out[1] if per_hello == "hello" else out
        receivers.update(repr((sender, t)).encode() + hit.tobytes())
        return out

    setattr(HelloReceiverOracle, per_hello, digest_receivers)
    decisions, undo_digest = _snapshot_digest()
    try:
        armed[0] = True
        run_once(spec, seed=seed)
    finally:
        armed[0] = False
        undo_digest()
        setattr(HelloReceiverOracle, per_hello, lookup)
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)
    run_s = float(np.median(runs))
    split = {f"{phase}_us": round(s * 1e6 / hellos, 2) for phase, s in totals.items()}
    print(
        f"hello_traffic {scenario:<14} n={n:<6} {hellos} Hellos   "
        f"run={run_s:6.2f} s ({run_s * 1e6 / hellos:6.1f} us/Hello)   per Hello: "
        + "   ".join(f"{k[:-3]}={v:6.1f} us" for k, v in split.items())
    )
    return {
        "n": n,
        "duration_s": duration,
        "hellos": hellos,
        "run_s": round(run_s, 3),
        "per_hello_us": round(run_s * 1e6 / hellos, 2),
        **split,
        **{f"{phase}_calls": count for phase, count in calls.items()},
        **counts,
        "receivers_sha256": receivers.hexdigest(),
        "decisions_sha256": decisions.hexdigest(),
    }


WEAK_PROTOCOLS = ("rng", "spt4", "mst")


class _Counter:
    """Stands in for a protocol and counts its ``select_histories`` calls."""

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.calls = 0

    def select_histories(self, *args):
        self.calls += 1
        return self.protocol.select_histories(*args)


def bench_weak_decision(name: str, n: int = 100, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Weak-consistency decisions of every owner at paper density.

    A weak world of *n* nodes at 20 m/s runs for *warm_t* seconds; every
    owner's decision inputs are then gathered at once
    (:meth:`WeakConsistency.resolve_many`, then :meth:`WeakConsistency.views`).  One :meth:`WeakConsistency.select`
    over that gather, the gather alone, and both together are timed in
    one alternating loop (median over passes, ns per owner), and the
    selection's protocol calls are counted.
    ``decisions_sha256`` digests the selections, so a before/after pair
    shows both sides decided the same.
    """
    scale = Scale(
        name="bench-weak",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 1.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol=name, mechanism="weak", mean_speed=20.0, config=scale.config()
    )
    world = build_world(spec, seed)
    world.run_until(warm_t)
    mechanism = WeakConsistency()
    protocol = world.manager.protocol
    tables = [node.table for node in world.nodes]
    # Every owner's true position now; a commit whose gather still takes
    # current Hellos reads only their positions.
    own = [(x, y) for x, y in world.positions(warm_t).tolist()]
    gather = getattr(mechanism, "gather", None)
    if gather is None:
        # Commits without the mechanism-level gather compose its steps.
        from repro.core.consistency import GatheredViews

        def gather(tables, now, positions):
            resolved, errors = mechanism.resolve_many(tables, positions, None)
            return GatheredViews.concat([mechanism.views(tables, now, resolved)]), errors
    elif "current_hellos" in inspect.signature(gather).parameters:
        own = [Hello(i, 0, xy, warm_t, warm_t) for i, xy in enumerate(own)]
    views, errors = gather(tables, warm_t, own)
    assert not errors
    counter = _Counter(protocol)
    results = mechanism.select(counter, views)

    def select_all() -> list:
        return mechanism.select(protocol, views)

    def gather_all():
        return gather(tables, warm_t, own)

    def decide_all() -> list:
        return mechanism.select(protocol, gather_all()[0])

    if select_all() != results or decide_all() != results:
        raise AssertionError(f"{name} weak decisions are not repeatable")
    medians = _alternating_medians_ns(
        {"select": select_all, "gather": gather_all, "decide": decide_all}
    )
    select_ns, gather_ns, decide_ns = (
        medians[phase] / n for phase in ("select", "gather", "decide")
    )
    digest = hashlib.sha256(
        repr([(r.owner, sorted(r.logical_neighbors), r.actual_range) for r in results]).encode()
    ).hexdigest()
    print(
        f"weak_decision {name:<5} n={n:<4} select={select_ns / 1e3:8.1f} us   "
        f"gather={gather_ns / 1e3:8.1f} us   "
        f"both={decide_ns / 1e3:8.1f} us per owner   "
        f"{counter.calls} protocol calls"
    )
    return {
        "n": n,
        "mean_members": round(float(np.mean(1 + views.counts)), 2),
        "mean_positions": round(
            float(views.own_counts.sum() + views.fills.sum()) / n, 2
        ),
        "protocol_calls": counter.calls,
        "select_ns": round(select_ns),
        "gather_ns": round(gather_ns),
        "decide_ns": round(decide_ns),
        "decisions_sha256": digest,
    }


GOSSIP_SIZES = (100, 1000)


def bench_gossip(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Warmup wall time and dissemination counters of the gossip mechanism.

    The same scenario runs under view synchronization as the control, so
    the row reads as "what the epidemic layer costs on top of an
    otherwise identical world".  The gossip world's determinism is
    asserted (two same-seed builds, identical counters) before timing;
    in a before/after pair, equal counters on both sides show both
    commits gossiped the same.
    """
    scale = Scale(
        name="bench-gossip",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="gossip",
        mean_speed=20.0,
        config=scale.config(),
    )

    def timed(s):
        world = build_world(s, seed)
        t0 = time.perf_counter()
        world.run_until(warm_t)
        return world, time.perf_counter() - t0

    gossip_world, gossip_s = timed(spec)
    twin, _ = timed(spec)
    if gossip_world.gossip_stats() != twin.gossip_stats():
        raise AssertionError(f"gossip counters not deterministic at n={n}")
    _, viewsync_s = timed(spec.with_(mechanism="view-sync"))
    stats = gossip_world.gossip_stats()
    print(
        f"gossip n={n:<5} view-sync={viewsync_s:7.2f} s   "
        f"gossip={gossip_s:7.2f} s   {gossip_s / viewsync_s:6.2f}x   "
        f"(rounds={stats['gossip_rounds']}, "
        f"messages={stats['gossip_messages']}, "
        f"merged={stats['gossip_merged']})"
    )
    return {
        "n": n,
        "viewsync_warmup_s": round(viewsync_s, 3),
        "gossip_warmup_s": round(gossip_s, 3),
        "overhead_factor": round(gossip_s / viewsync_s, 2),
        **stats,
    }


SCALE_SIZES = (2000, 5000, 10000)


def bench_scale_pipeline(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Warm snapshot -> decide -> flood costs at large n.

    The world runs the proactive mechanism at the paper's density; every
    snapshot is CSR-backed, so the whole pipeline is O(n * degree) per
    probe and no ``(n, n)`` matrix is touched.
    """
    from repro.sim.flood import flood

    scale = Scale(
        name="bench-scale",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="proactive",
        mean_speed=20.0,
        config=scale.config(),
    )
    t0 = time.perf_counter()
    world = build_world(spec, seed)
    world.run_until(warm_t)
    warm_s = time.perf_counter() - t0
    snapshot_ns = _median_ns(world.snapshot, budget_s=1.0)
    world.redecide_all()  # prime the decision cache
    redecide_ns = _median_ns(world.redecide_all, budget_s=1.0)
    flood_ns = _median_ns(lambda: flood(world, 0), budget_s=2.0, min_reps=3)
    stats = world.neighbor_stats()
    print(
        f"scale_pipeline n={n:<6} warmup={warm_s:6.1f} s   "
        f"snapshot={snapshot_ns / 1e6:8.2f} ms   "
        f"redecide={redecide_ns / 1e6:8.2f} ms   "
        f"flood={flood_ns / 1e6:8.2f} ms"
    )
    return {
        "n": n,
        "warmup_s": round(warm_s, 2),
        "snapshot_ns": round(snapshot_ns),
        "redecide_cached_ns": round(redecide_ns),
        "flood_ns": round(flood_ns),
        **{f"neighbor_{k}": v for k, v in stats.items()},
    }


def run_benchmark(smoke: bool = False, before: Path | None = None) -> dict:
    redecide_sizes = (25,) if smoke else (50, 100)
    hello_duration = 5.0 if smoke else 30.0
    scale_sizes = () if smoke else SCALE_SIZES
    # Gossip rows run at the paper scale and 10x even in smoke mode: the
    # overhead-vs-view-sync factor is the tracked number, and it only
    # means something at the sizes the figures report.
    gossip_sizes = GOSSIP_SIZES
    earlier = (
        {} if before is None else json.loads(before.read_text(encoding="utf-8"))["results"]
    )

    def paired(before_row: dict | None, after: dict) -> dict:
        if before_row is None:
            return {"after": after}
        return {"before": before_row["after"], "after": after}

    results = {
        "redecide_all": {str(n): bench_redecide(n) for n in redecide_sizes},
        "redecide_mixed": paired(earlier.get("redecide_mixed"), bench_redecide_mixed()),
        "hello_decisions": {
            name: paired(
                earlier.get("hello_decisions", {}).get(name),
                bench_hello_decisions(name, duration=hello_duration),
            )
            for name in HELLO_PROTOCOLS
        },
        "weak_decision": {
            name: paired(earlier.get("weak_decision", {}).get(name), bench_weak_decision(name))
            for name in WEAK_PROTOCOLS
        },
        "hello_traffic": {
            name: paired(
                earlier.get("hello_traffic", {}).get(name),
                bench_hello_traffic(name, smoke=smoke),
            )
            for name in HELLO_SCENARIOS
        },
        "gossip": {
            str(n): paired(earlier.get("gossip", {}).get(str(n)), bench_gossip(n))
            for n in gossip_sizes
        },
        "scale_pipeline": {str(n): bench_scale_pipeline(n) for n in scale_sizes},
    }
    return {
        "meta": {
            "unit": "ns/op (median)",
            "mechanism": "view-sync",
            "protocol": "rng",
            "smoke": smoke,
            "redecide_sizes": list(redecide_sizes),
            "hello_protocols": list(HELLO_PROTOCOLS),
            "weak_protocols": list(WEAK_PROTOCOLS),
            "hello_scenarios": list(HELLO_SCENARIOS),
            "gossip_sizes": list(gossip_sizes),
            "scale_sizes": list(scale_sizes),
        },
        "results": results,
    }


def test_decide_bench():
    _write_and_gate(run_benchmark(), OUTPUT)


def _write(payload: dict, out: Path) -> None:
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (" (smoke)" if payload["meta"]["smoke"] else ""))


def _write_and_gate(payload: dict, out: Path) -> None:
    _write(payload, out)
    # Packet-time recomputation with an unchanged view must be dominated by
    # cache hits: >= 3x over the uncached pipeline at the paper's scale.
    assert payload["results"]["redecide_all"]["100"]["speedup"] >= 3.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no speedup thresholds (CI sanity run); writes to a "
        "temporary file unless --out is given",
    )
    parser.add_argument(
        "--before",
        type=Path,
        default=None,
        help="a BENCH_decide.json from another commit: its redecide_mixed, "
        "hello_decisions, weak_decision, hello_traffic and gossip rows are "
        "kept as this file's 'before'",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"where to write the results (default: {OUTPUT.name} at the "
        "repository root for a full run, a temporary file for --smoke)",
    )
    args = parser.parse_args()
    if args.smoke:
        out = args.out
        if out is None:
            out = Path(tempfile.mkdtemp(prefix="bench_decide_")) / OUTPUT.name
        _write(run_benchmark(smoke=True, before=args.before), out)
        return 0
    _write_and_gate(run_benchmark(before=args.before), args.out or OUTPUT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
