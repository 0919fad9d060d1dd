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
- weak-consistency decisions (``weak_decision``): ``select_histories``
  of RNG, SPT-4 and MST on every owner's multi-version view of a
  100-node world at paper density, with and without the history gather;
  ``--before FILE`` embeds these rows from another commit too, and a
  digest of the decisions shows both commits decided the same;
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
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.analysis.scales import Scale
from repro.core.consistency import WeakConsistency

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


def _phase_timers(phases: dict) -> tuple[dict[str, float], list[bool], list]:
    """Wrap one method per phase with a wall-time accumulator.

    Returns ``(seconds per phase, armed flag, undo list of (class, name,
    original))``; time accumulates only while ``armed[0]`` is True.
    """
    import importlib

    totals = dict.fromkeys(phases, 0.0)
    armed = [False]
    undo = []
    for phase, (module, cls_name, attr) in phases.items():
        cls = getattr(importlib.import_module(module), cls_name)
        original = vars(cls)[attr]

        def timed(*args, _fn=original, _phase=phase, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                if armed[0]:
                    totals[_phase] += time.perf_counter() - t0

        setattr(cls, attr, timed)
        undo.append((cls, attr, original))
    return totals, armed, undo


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
    totals, armed, undo = _phase_timers(MIXED_PHASES)
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


WEAK_PROTOCOLS = ("rng", "spt4", "mst")


class _Recorder:
    """Stands in for a protocol and keeps the ``select_histories``
    arguments a mechanism passes it."""

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.calls: list[tuple] = []

    def select_histories(self, *args):
        self.calls.append(args)
        return self.protocol.select_histories(*args)


def bench_weak_decision(name: str, n: int = 100, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Weak-consistency decisions of every owner at paper density.

    A weak world of *n* nodes at 20 m/s runs for *warm_t* seconds; each
    owner's decision inputs are then recorded once through
    :meth:`WeakConsistency.decide`.  One pass over all owners is timed
    for ``select_histories`` alone and for the whole decision with its
    history gather (median over passes, ns per owner).
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
    recorder = _Recorder(world.manager.protocol)
    owners = [
        (node.table, world._current_hello(node.node_id, warm_t)) for node in world.nodes
    ]
    results = [mechanism.decide(recorder, table, warm_t, hello) for table, hello in owners]
    calls = recorder.calls
    protocol = recorder.protocol

    def select_all() -> list:
        return [protocol.select_histories(*args) for args in calls]

    def decide_all() -> list:
        return [mechanism.decide(protocol, table, warm_t, hello) for table, hello in owners]

    if select_all() != results or decide_all() != results:
        raise AssertionError(f"{name} weak decisions are not repeatable")
    select_ns = _median_ns(select_all, budget_s=1.0) / n
    decide_ns = _median_ns(decide_all, budget_s=1.0) / n
    digest = hashlib.sha256(
        repr([(r.owner, sorted(r.logical_neighbors), r.actual_range) for r in results]).encode()
    ).hexdigest()
    print(
        f"weak_decision {name:<5} n={n:<4} select_histories={select_ns / 1e3:8.1f} us   "
        f"decide={decide_ns / 1e3:8.1f} us per owner"
    )
    return {
        "n": n,
        "mean_members": round(float(np.mean([args[0].size for args in calls])), 2),
        "mean_positions": round(float(np.mean([args[2].shape[0] for args in calls])), 2),
        "select_histories_ns": round(select_ns),
        "decide_ns": round(decide_ns),
        "decisions_sha256": digest,
    }


GOSSIP_SIZES = (100, 1000)


def bench_gossip(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Warmup wall time and dissemination counters of the gossip mechanism.

    The same scenario runs under view synchronization as the control, so
    the row reads as "what the epidemic layer costs on top of an
    otherwise identical world".  The gossip world's determinism is
    asserted (two same-seed builds, identical counters) before timing.
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
        "weak_decision": {
            name: paired(earlier.get("weak_decision", {}).get(name), bench_weak_decision(name))
            for name in WEAK_PROTOCOLS
        },
        "gossip": {str(n): bench_gossip(n) for n in gossip_sizes},
        "scale_pipeline": {str(n): bench_scale_pipeline(n) for n in scale_sizes},
    }
    return {
        "meta": {
            "unit": "ns/op (median)",
            "mechanism": "view-sync",
            "protocol": "rng",
            "smoke": smoke,
            "redecide_sizes": list(redecide_sizes),
            "weak_protocols": list(WEAK_PROTOCOLS),
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
        help="a BENCH_decide.json from another commit: its redecide_mixed "
        "and weak_decision rows are kept as this file's 'before'",
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
