"""Compare benchmark results of a parent commit and a change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a results file written by ``run.py`` (one invocation), or
``PATH#SET`` naming a set of runs stored in a baseline record such as
``results/baseline.json#A``.  Runs pair up in the order given: pair *i*
is parent run *i* against change run *i*, so alternate which side runs
first and pass the same seeds in the same order on both sides.

For every (workload, end-to-end metric) row the tool prints each side's
median and quartiles, the change's wins over the pairs, and a verdict:

- ``unresolved``: either side's interquartile range exceeds the metric's
  bound (as a share of its median), unless every change run reads better
  than every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound in ``BENCHMARK.json``;
- ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
- ``within bound`` otherwise.

Failed operations are compared per workload with their bases.  Per-layer
medians are listed when both sides were traced, to show where a change
moved time; they carry no verdict.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(ref: str) -> list[dict]:
    """The run documents *ref* names (``PATH`` or ``PATH#SET``)."""
    path, _, set_name = ref.partition("#")
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if set_name:
        return doc["sets"][set_name]["runs"]
    return [doc]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether *a* reads strictly better than *b*."""
    return a > b if direction == "higher" else a < b


def verdict(parent: list[float], change: list[float], spec: dict) -> tuple[str, int, int]:
    """Apply the comparison rule to one row; returns (verdict, wins, pairs)."""
    direction, bound = spec["better"], spec["bound"]
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    dominates = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not dominates:
        return "unresolved", wins, len(pairs)
    if better(p_med, c_med, direction) and abs(c_med - p_med) > bound * abs(p_med):
        return "worse", wins, len(pairs)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
        and better(c_med, p_med, direction)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "improved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _values(runs: list[dict], workload: str, section: str, name: str) -> list[float]:
    return [
        run["workloads"][workload][section][name]
        for run in runs
        if workload in run["workloads"] and run["workloads"][workload][section]
    ]


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent: list[dict], change: list[dict], bench: dict) -> int:
    """Print every row; return how many rows are worse."""
    workloads = [w["name"] for w in bench["workloads"]
                 if any(w["name"] in run["workloads"] for run in parent)
                 and any(w["name"] in run["workloads"] for run in change)]
    worse = 0
    print("workload metric unit | parent median [q1, q3] | change median [q1, q3]"
          " | change wins / pairs | verdict")
    for workload in workloads:
        for spec in bench["end_to_end"]:
            p = _values(parent, workload, "metrics", spec["name"])
            c = _values(change, workload, "metrics", spec["name"])
            result, wins, pairs = verdict(p, c, spec)
            worse += result == "worse"
            print(f"{workload} {spec['name']} {spec['unit']} | {_fmt(p)} | {_fmt(c)}"
                  f" | {wins} / {pairs} | {result} (bound {spec['bound']:.0%})")
        tallies = []
        for side in (parent, change):
            children = [run["workloads"][workload]["child"] for run in side
                        if workload in run["workloads"]]
            tallies.append((sum(ch["failed"] for ch in children),
                            sum(ch["attempted"] for ch in children)))
        (p_failed, p_attempted), (c_failed, c_attempted) = tallies
        rising = c_failed * p_attempted > p_failed * c_attempted
        worse += rising
        print(f"{workload} fail_frac ratio | {p_failed} / {p_attempted} operations"
              f" | {c_failed} / {c_attempted} operations | - | "
              f"{'worse' if rising else 'no rise'}")
    for workload in workloads:
        for spec in bench["per_layer"]:
            p = _values(parent, workload, "per_layer", spec["name"])
            c = _values(change, workload, "per_layer", spec["name"])
            if p and c:
                print(f"{workload} {spec['name']} {spec['unit']} | {_fmt(p)} | "
                      f"{_fmt(c)} | - | per-layer, no verdict")
    return worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="RESULTS")
    parser.add_argument("--change", nargs="+", required=True, metavar="RESULTS")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json",
                        help="benchmark definition holding the bounds")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text(encoding="utf-8"))
    parent = [run for ref in args.parent for run in load_runs(ref)]
    change = [run for ref in args.change for run in load_runs(ref)]
    if len(parent) != len(change):
        print(f"compare.py: {len(parent)} parent runs but {len(change)} change "
              "runs; pairs need equal counts", file=sys.stderr)
        return 2
    return 1 if compare(parent, change, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
