"""Large-n smoke: the 10k-node pipeline under a peak-memory gate.

Runs one CSR snapshot -> decide -> flood pipeline at n = 10000
(paper density, proactive mechanism) and enforces two budgets:

- **peak RSS** — the whole run must stay far below the ~800 MB a single
  dense ``(10000, 10000)`` float64 distance matrix would cost, proving no
  quadratic structure was materialized anywhere in the hot path.  The
  ``DENSE_NODE_LIMIT`` guard of ``CSRGraph.to_dense`` (4096 nodes) is
  additionally asserted to raise if anything *does* densify the
  snapshot.
- **wall clock** — the end-to-end run must finish within the budget, so
  CI notices quadratic-time regressions too.

The report it prints (n, warm-up seconds, per-phase wall times, peak RSS)
is also written, with the git revision, to ``BENCH_scale.json`` at the
repository root.

Run explicitly — it is not part of tier-1:

    PYTHONPATH=src python benchmarks/bench_scale.py [--n 10000]
        [--budget-s 420] [--rss-mb 600]
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.analysis.scales import Scale
from repro.sim.flood import flood
from repro.geometry.csr import DENSE_NODE_LIMIT
from repro.util.errors import DenseMaterializationError

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_scale.json"


def _git_revision() -> str:
    """HEAD of the checkout this script runs from, or "unknown"."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, MB (Linux: ru_maxrss in KB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return peak_kb / 1e6
    return peak_kb / 1e3


def run_smoke(n: int, warm_t: float = 3.0, seed: int = 7) -> dict:
    start = time.perf_counter()
    scale = Scale(
        name="scale-smoke",
        n_nodes=n,
        area_side=90.0 * float(np.sqrt(n)),  # paper density: 8100 m^2/node
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
    world = build_world(spec, seed)
    world.run_until(warm_t)
    warm_s = time.perf_counter() - start

    t0 = time.perf_counter()
    snap = world.snapshot()
    snapshot_s = time.perf_counter() - t0
    if n > DENSE_NODE_LIMIT:
        try:
            snap.logical_csr.to_dense()
        except DenseMaterializationError:
            pass  # the guard is armed: nothing can silently go quadratic
        else:
            raise AssertionError("to_dense() must raise above the dense limit")

    t0 = time.perf_counter()
    world.redecide_all()
    decide_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = flood(world, 0)
    flood_s = time.perf_counter() - t0

    return {
        "n": n,
        "warmup_s": round(warm_s, 2),
        "snapshot_s": round(snapshot_s, 4),
        "redecide_s": round(decide_s, 2),
        "flood_s": round(flood_s, 2),
        "flood_transmissions": result.transmissions,
        "effective_edges": int(snap.effective_directed_csr().nnz),
        "total_s": round(time.perf_counter() - start, 2),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "neighbor_stats": world.neighbor_stats(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--budget-s", type=float, default=420.0)
    parser.add_argument("--rss-mb", type=float, default=600.0)
    args = parser.parse_args()

    report = run_smoke(args.n)
    print(json.dumps(report, indent=2))
    OUTPUT.write_text(
        json.dumps({"git_revision": _git_revision(), **report}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {OUTPUT}")

    failures = []
    if report["total_s"] > args.budget_s:
        failures.append(
            f"runtime {report['total_s']:.1f} s exceeds budget {args.budget_s:.0f} s"
        )
    if report["peak_rss_mb"] > args.rss_mb:
        failures.append(
            f"peak RSS {report['peak_rss_mb']:.0f} MB exceeds gate {args.rss_mb:.0f} MB "
            f"(a dense (n, n) matrix at n={args.n} would be "
            f"{args.n * args.n * 8 / 1e6:.0f} MB)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
