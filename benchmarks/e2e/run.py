"""End-to-end benchmark of the paper's workloads, timed layer by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH]

Each workload runs in a fresh child process, one after another.  Before
it, five more fresh interpreters each import ``repro`` and build the
workload's first world; the median is ``setup_s``.  The child runs the
workload's op once with tracing off and reports the end-to-end metrics.
The op is fixed per workload (see ``workloads.py``): ``--seconds`` is
accepted so the command line carries ``BENCHMARK.json``'s
``run_seconds``, but it never changes the work, so two commits compared
at the same seed always measure the same inputs.  With ``--trace`` (or
``--trace 1``) the child then runs the same op again with every layer
wrapped by ``trace.py`` and reports the per-layer metrics, the tracing
overhead, and writes the spans as JSONL next to the results file.

Every metric is printed as ``workload metric value unit``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer
metrics traced).  The full record — git revision, ``nproc``, Python and
NumPy versions, cold starts, digests — goes to ``--out`` (default
``benchmarks/e2e/results/run-<time>-<pid>.json``).

The command exits 1 when an operation failed or an output digest did not
match, and 2 without printing a result when the repository's sources are
missing.  ``BENCHMARK.json`` at the repository root names the workloads
and metrics; ``README.md`` next to this file explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # benchmarks/e2e/speed.py: sys.path[0] is this directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS_DIR = HERE / "results"
#: Cold starts per workload; ``setup_s`` is their median.
COLD_STARTS = 5
#: Yardstick slices timed before and after each cold start.
COLD_START_SLICES = 16
CHILD_TIMEOUT_S = 600.0
COLD_START_TIMEOUT_S = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1, the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time (BENCHMARK.json run_seconds); "
                             "the work per run is fixed by the workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run a traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="results JSON path (default under benchmarks/e2e/results/)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizing: small worlds, one cold start")
    # Internal entry points of the child processes.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------- #
# child processes


def _import_benchmark_modules():
    """Put the sources on the path and import the sibling modules."""
    sys.path.insert(0, str(SRC))
    import trace as tracing  # benchmarks/e2e/trace.py: sys.path[0] is HERE
    import workloads

    return tracing, workloads


def cold_start_main(args: argparse.Namespace) -> int:
    """Time one cold start: import ``repro``, build the first world.

    Machine speed is sampled just before and just after, outside the
    timed region (the yardstick needs nothing but the standard library).
    """
    samples = [speed.yardstick_slice() for _ in range(COLD_START_SLICES)]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.api  # noqa: F401 - the import is what is timed
    from repro.analysis.experiment import build_world

    imported = time.perf_counter()
    _, workloads = _import_benchmark_modules()
    spec, seed = workloads.first_world(args.workload[0], args.seed, args.smoke)
    built_from = time.perf_counter()
    build_world(spec, seed)
    done = time.perf_counter()
    samples += [speed.yardstick_slice() for _ in range(COLD_START_SLICES)]
    print(json.dumps({"import_s": imported - start, "build_world_s": done - built_from,
                      "speed": speed.speed_share(samples)}))
    return 0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, MB."""
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _pass_summary(op, speed: float) -> dict:
    """Totals of one pass; the rate is at reference speed, ``*_raw`` as measured."""
    ref_wall = op.wall_s * speed
    return {
        "wall_s": op.wall_s,
        "speed": speed,
        "ref_wall_s": ref_wall,
        "sim_s": op.sim_s,
        "sim_rate": op.sim_s / ref_wall if ref_wall > 0 else 0.0,
        "sim_rate_raw": op.sim_s / op.wall_s if op.wall_s > 0 else 0.0,
        "digest": op.digest,
    }


def _per_layer(tracing, tracer, traced, untraced) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the bases of their ratios, and span coverage."""
    tally, counters = tracer.tally, tracer.counters
    metrics = {
        metric: tally.get(span, (0, 0.0, 0.0))[2]
        for span, metric in tracing.SELF_TIME_METRICS.items()
    }
    metrics.update({
        metric: tally.get(span, (0, 0.0, 0.0))[0]
        for span, metric in tracing.CALL_METRICS.items()
    })
    for name in ("sim.engine.events", "sim.hello_batch.oracle_rebuilds"):
        metrics[name] = counters.get(name, 0)
    bases = {
        "core.manager.cache_hit_ratio": (
            counters.get("core.manager.cache_hits", 0),
            metrics["core.manager.decide_calls"], "decide_calls"),
        "geometry.reused_row_ratio": (
            counters.get("geometry.reused_rows", 0),
            counters.get("geometry.reused_rows", 0)
            + counters.get("geometry.recomputed_rows", 0), "rows"),
    }
    for name, (part, base, _) in bases.items():
        metrics[name] = part / base if base else 0.0
    metrics["experiment.step_ms_p95"] = untraced["step_ms_p95"]
    metrics["trace.overhead_frac"] = (
        traced["ref_wall_s"] / untraced["ref_wall_s"] - 1.0
        if untraced["ref_wall_s"] > 0 else 0.0
    )
    self_sum = sum(row[2] for row in tally.values())
    traced_wall = traced["wall_s"]
    coverage = {
        "self_sum_s": self_sum,
        "traced_wall_s": traced_wall,
        "gap_frac": abs(self_sum - traced_wall) / traced_wall if traced_wall else 0.0,
    }
    return metrics, {k: list(v) for k, v in bases.items()}, coverage


def child_main(args: argparse.Namespace) -> int:
    """Run one workload untraced (and traced); print one JSON document."""
    import numpy as np

    tracing, workloads = _import_benchmark_modules()
    workload = args.workload[0]
    problems: list[str] = []
    clock = tracing.StepClock()
    untraced_op = workloads.run_op(workload, args.seed, clock, args.smoke)
    peak_rss_mb = _peak_rss_mb()
    steps = clock.intervals_ms()
    untraced = _pass_summary(untraced_op, clock.speed())
    untraced.update(
        steps=len(steps),
        step_ms_p50=_percentile(steps, 50) * untraced["speed"],
        step_ms_p95=_percentile(steps, 95) * untraced["speed"],
        step_ms_p50_raw=_percentile(steps, 50),
    )
    failed = untraced_op.failed
    problems.extend(untraced_op.errors)
    pins = workloads.load_pins()
    pinned = None
    if not args.smoke and args.seed == pins["seed"]:
        pinned = pins["digests"].get(workload)
        if pinned is not None and untraced_op.digest != pinned:
            failed = untraced_op.attempted
            problems.append(f"digest {untraced_op.digest} != pinned {pinned}")
    attempted = untraced_op.attempted
    doc = {
        "workload": workload,
        "seed": args.seed,
        "untraced": untraced,
        "peak_rss_mb": peak_rss_mb,
        "pinned_digest": pinned,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.trace:
        tracer = tracing.Tracer()
        origin = time.perf_counter()
        traced_op = workloads.run_op(workload, args.seed, tracer, args.smoke)
        traced = _pass_summary(traced_op, tracer.speed())
        problems.extend(traced_op.errors)
        attempted += traced_op.attempted
        if traced_op.digest != untraced_op.digest:
            failed += traced_op.attempted
            problems.append("traced digest differs from untraced")
        else:
            failed += traced_op.failed
        per_layer, bases, coverage = _per_layer(tracing, tracer, traced, untraced)
        if coverage["gap_frac"] > 0.02:
            problems.append(f"span self times miss the traced wall by "
                            f"{coverage['gap_frac']:.2%}")
        spans = tracer.write_jsonl(args.spans, origin) if args.spans else 0
        traced.update(per_layer=per_layer, bases=bases, coverage=coverage,
                      spans=spans, spans_path=str(args.spans or ""),
                      tally={k: list(v) for k, v in sorted(tracer.tally.items())},
                      counters=dict(sorted(tracer.counters.items())))
        doc["traced"] = traced
    doc.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(doc))
    return 0


# --------------------------------------------------------------------- #
# parent


def _run_python(argv: list[str], timeout: float) -> dict:
    """Run this script in a fresh interpreter; parse its last stdout line.

    The child leads its own process group, so a timeout or an interrupt
    takes down anything it started as well.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {argv} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(workload: str, args: argparse.Namespace,
                 spans_path: Path | None) -> dict:
    """Cold starts, then the workload's own child; one result record."""
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    cold = [
        _run_python(["--cold-start", *common], COLD_START_TIMEOUT_S)
        for _ in range(1 if args.smoke else COLD_STARTS)
    ]
    child_argv = ["--child", *common, "--trace", str(args.trace)]
    if spans_path is not None:
        child_argv += ["--spans", str(spans_path)]
    child = _run_python(child_argv, CHILD_TIMEOUT_S)
    untraced = child["untraced"]

    def cold_median(*keys: str) -> float:
        """Median over the cold starts of the summed phases, at reference speed."""
        return statistics.median(
            sum(c[k] for k in keys) * c["speed"] ** speed.SETUP_SPEED_EXPONENT
            for c in cold)

    metrics = {
        "sim_rate": untraced["sim_rate"],
        "step_ms_p50": untraced["step_ms_p50"],
        "setup_s": cold_median("import_s", "build_world_s"),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    per_layer = None
    if args.trace:
        per_layer = dict(child["traced"]["per_layer"])
        per_layer["setup.import_s"] = cold_median("import_s")
        per_layer["setup.build_world_s"] = cold_median("build_world_s")
    return {"metrics": metrics, "per_layer": per_layer, "cold_starts": cold,
            "child": child}


def _print_workload(workload: str, record: dict, bench: dict) -> None:
    child = record["child"]
    for spec in bench["end_to_end"]:
        value = record["metrics"][spec["name"]]
        print(f"{workload} {spec['name']} {value:.6g} {spec['unit']}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"{workload} fail_frac {failed / attempted:.6g} ratio "
          f"({failed} failed / {attempted} operations)")
    untraced = child["untraced"]
    print(f"{workload} step_ms_p95 {untraced['step_ms_p95']:.6g} ms "
          f"(reported, not gated; {untraced['steps']} steps)")
    print(f"{workload} op took {untraced['wall_s']:.3f} s at speed "
          f"{untraced['speed']:.3f} of reference (raw sim_rate "
          f"{untraced['sim_rate_raw']:.6g}, step_ms_p50 {untraced['step_ms_p50_raw']:.6g}); "
          f"cold starts at speed "
          f"{statistics.median(c['speed'] for c in record['cold_starts']):.3f}")
    print(f"{workload} digest {untraced['digest'][:16]} pinned "
          f"{(child['pinned_digest'] or 'none')[:16]}")
    if record["per_layer"] is None:
        return
    traced = child["traced"]
    for spec in bench["per_layer"]:
        value = record["per_layer"][spec["name"]]
        line = f"{workload} {spec['name']} {value:.6g} {spec['unit']}"
        if spec["name"] in traced["bases"]:
            part, base, base_name = traced["bases"][spec["name"]]
            line += f" ({part} / {base_name} {base})"
        print(line)
    coverage = traced["coverage"]
    print(f"{workload} trace.coverage self times {coverage['self_sum_s']:.4f} s of "
          f"traced wall {coverage['traced_wall_s']:.4f} s "
          f"(gap {coverage['gap_frac']:.4%}); {traced['spans']} spans")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.cold_start:
        return cold_start_main(args)
    if args.child:
        return child_main(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    selected = args.workload or known
    unknown = sorted(set(selected) - set(known))
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    started = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = args.out or RESULTS_DIR / f"run-{started}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)

    records = {}
    for workload in selected:
        spans_path = (out.with_name(f"{out.stem}.{workload}.spans.jsonl")
                      if args.trace else None)
        records[workload] = run_workload(workload, args, spans_path)
        _print_workload(workload, records[workload], bench)

    children = [r["child"] for r in records.values()]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for problem in child["problems"]:
            print(f"{child['workload']}: {problem}", file=sys.stderr)
    out.write_text(json.dumps({
        "schema": "repro-e2e-bench/1",
        "started_utc": started,
        "git_rev": _git_rev(),
        "nproc": _nproc(),
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "platform": platform.platform(),
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "workloads": records,
    }, indent=1) + "\n", encoding="utf-8")

    kind, key = ("per_layer", "per_layer") if args.trace else ("end_to_end", "metrics")
    metrics = {}
    for workload, record in records.items():
        prefix = "" if len(records) == 1 else f"{workload}/"
        for spec in bench[kind]:
            metrics[prefix + spec["name"]] = {
                "value": record[key][spec["name"]], "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
