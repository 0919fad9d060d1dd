"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is closed-loop and driven by one process.  An *operation*
is one ``run_once`` call; an *op* below is the fixed block of them that
one benchmark run measures (one figure cell, one protocol sweep, one
large world).  The work of a run never depends on how fast it goes, so
two commits compared at the same seed measure the same inputs.  The
program receives only the generated specs and seeds: a run with
``--seed s`` uses world seed ``s * 1000`` for its first world, and the
next seeds for the others (the repetitions of the view-sync cell, the
protocols of the baseline sweep), so runs at different seeds share no
world.  Distinct worlds within an op average out how much work one
seed's mobility makes.

Correctness is checked three ways:

- every run must satisfy invariants that hold at any seed (sample count,
  ratio ranges, flood transmissions equal to the nodes reached, and the
  decision count implied by the mechanism);
- the op at the pinned seed must reproduce the digest in ``pins.json``;
- a traced pass must reproduce the untraced pass's digests.

A digest is sha256 over each run's six per-sample series plus
``RunStats.as_dict()`` (the ``benchmarks/digest_e2e.py`` surface).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.experiment import ExperimentSpec, RunResult, run_once
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

WORKLOADS = ("paper-viewsync", "paper-baseline", "scale-10k")

#: Area per node of the paper's scenario: 100 nodes on 900 x 900 m.
PAPER_DENSITY_M2 = 8100.0

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def _spec(
    protocol: str, mechanism: str, n: int, duration: float, *, buffer: float = 10.0,
    warmup: float = 2.0,
) -> ExperimentSpec:
    """n nodes at paper density, 20 m/s, 10 samples/s after *warmup*."""
    side = math.sqrt(n * PAPER_DENSITY_M2)
    return ExperimentSpec(
        protocol=protocol,
        mechanism=mechanism,
        buffer_width=buffer,
        mean_speed=20.0,
        config=ScenarioConfig(
            n_nodes=n,
            area=Area(side, side),
            duration=duration,
            warmup=warmup,
            sample_rate=10.0,
        ),
    )


def op_specs(workload: str, smoke: bool = False) -> list[ExperimentSpec]:
    """The specs one op runs, in order.

    *smoke* shrinks every workload for the self-test (n=30; n=600 for the
    scale path, which still crosses the sparse switch) while keeping each
    one on the same code paths.
    """
    if workload == "paper-viewsync":
        # Two repetitions of the Fig. 9 cell, 20 s at 10 samples/s each
        # (181 flood probes); one 40 s world varied 20% in cost by seed.
        return 2 * [_spec("rng", "view-sync", 30 if smoke else 100, 4.0 if smoke else 20.0)]
    if workload == "paper-baseline":
        # The shape of Figs. 6/7/8/10: one protocol sweep, baseline views.
        return [
            _spec(protocol, "baseline", 30 if smoke else 100, 3.0 if smoke else 30.0)
            for protocol in ("mst", "rng", "spt4", "spt2")
        ]
    if workload == "scale-10k":
        # One probe at 2.5 s, after 3 Hello rounds of 10,000 nodes.  Every
        # node has sent Hello 2 by then (clock skew is 10 ms), so the probe
        # always decides all nodes on version 1; a probe at 2.0 s fell
        # before or after the source's Hello 2 by seed, which doubled the
        # probe's cost at half the seeds.
        return [_spec("rng", "proactive", 600 if smoke else 10_000, 2.5,
                      buffer=0.0, warmup=2.5)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def world_seed(seed: int) -> int:
    """First world seed of a run started with ``--seed seed``."""
    return seed * 1000


def sample_times(spec: ExperimentSpec) -> np.ndarray:
    """Flood-probe instants of one run (``run_once``'s own rule)."""
    cfg = spec.config
    return np.arange(cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate)


# --------------------------------------------------------------------- #
# correctness


def digest_runs(results: list[RunResult]) -> str:
    """sha256 over the six per-sample series and counters of each run."""
    h = hashlib.sha256()
    for result in results:
        for series in (
            result.delivery_ratios,
            result.mean_actual_ranges,
            result.mean_extended_ranges,
            result.mean_logical_degrees,
            result.mean_physical_degrees,
            result.strict_connected,
        ):
            h.update(np.ascontiguousarray(series).tobytes())
        h.update(json.dumps(result.stats.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def check_run(spec: ExperimentSpec, result: RunResult) -> list[str]:
    """Invariants every run satisfies at any seed; returns the violations."""
    cfg = spec.config
    n = cfg.n_nodes
    samples = len(sample_times(spec))
    series = {
        "delivery_ratios": result.delivery_ratios,
        "mean_actual_ranges": result.mean_actual_ranges,
        "mean_extended_ranges": result.mean_extended_ranges,
        "mean_logical_degrees": result.mean_logical_degrees,
        "mean_physical_degrees": result.mean_physical_degrees,
        "strict_connected": result.strict_connected,
    }
    problems = [
        f"{name} has {len(values)} samples, expected {samples}"
        for name, values in series.items()
        if len(values) != samples
    ]
    if problems:
        return problems
    ratios = result.delivery_ratios
    if not np.all((ratios >= 0.0) & (ratios <= 1.0)):
        problems.append("delivery ratio outside [0, 1]")
    # Each probe transmits once per node it reaches, source included.
    reached = int(np.rint(ratios * (n - 1)).sum()) + samples
    stats = result.stats
    if stats.data_transmissions != reached:
        problems.append(
            f"data_transmissions {stats.data_transmissions} != nodes reached {reached}"
        )
    # Weak consistency's conservative ranges may exceed the normal range;
    # the buffer policy caps only the extended (in-force) range.
    actual, extended = result.mean_actual_ranges, result.mean_extended_ranges
    if not np.all((actual >= 0.0) & (extended >= 0.0)
                  & (extended <= cfg.normal_range + 1e-9)):
        problems.append("ranges violate 0 <= range, extended <= normal range")
    if not np.all(result.mean_logical_degrees >= 0.0):
        problems.append("negative logical degree")
    if stats.hello_messages <= 0:
        problems.append("no Hello was sent")
    decisions = (stats.decision_cache_hits + stats.decision_cache_misses
                 + stats.decision_cache_uncacheable)
    # Baseline decides once per Hello; view sync also re-decides all n
    # nodes at every probe.  Proactive skips undecidable first epochs, so
    # it has no such identity.
    expected = {
        "baseline": stats.hello_messages,
        "view-sync": stats.hello_messages + n * samples,
    }.get(spec.mechanism)
    if expected is not None and decisions != expected:
        problems.append(f"{decisions} decisions, expected {expected}")
    return problems


def load_pins() -> dict:
    """``{"seed": s, "digests": {workload: sha256}}`` of the op at seed *s*."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# operations


@dataclass
class OpResult:
    """What one op did and whether its outputs were correct."""

    wall_s: float = 0.0
    sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)


def run_sim_op(specs: list[ExperimentSpec], seed: int, instrument) -> OpResult:
    """Run spec *i* once with seed ``seed + i``; time only ``run_once``."""
    op = OpResult()
    runs = []
    with instrument.installed():
        for i, spec in enumerate(specs):
            op.attempted += 1
            # Each world starts from a collected heap, so the previous
            # world's cyclic garbage is neither timed in this one nor
            # held at its peak RSS, whenever the collector would run.
            gc.collect()
            try:
                with instrument.call():
                    start = time.perf_counter()
                    result = run_once(spec, seed=seed + i)
                    op.wall_s += time.perf_counter() - start
            except Exception as exc:  # a failed operation is counted, not fatal
                op.failed += 1
                op.errors.append(
                    f"{spec.describe()} seed {seed + i}: {type(exc).__name__}: {exc}")
                continue
            op.sim_s += spec.config.duration
            runs.append((spec, result))
    for spec, result in runs:
        problems = check_run(spec, result)
        if problems:
            op.failed += 1
            op.errors.extend(f"{spec.describe()} seed {result.seed}: {p}" for p in problems)
    op.digest = digest_runs([result for _, result in runs])
    return op


def run_op(workload: str, seed: int, instrument, smoke: bool = False) -> OpResult:
    """The op of *workload* for a run started with ``--seed seed``."""
    return run_sim_op(op_specs(workload, smoke), world_seed(seed), instrument)


def first_world(workload: str, seed: int, smoke: bool = False) -> tuple[ExperimentSpec, int]:
    """The spec and seed of the first world the workload builds."""
    return op_specs(workload, smoke)[0], world_seed(seed)
