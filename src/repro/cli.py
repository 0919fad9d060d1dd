"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
Run everything at the quick (CI) scale::

    python -m repro.cli all --scale quick

Regenerate Fig. 9 at the paper's full scale and save CSV::

    python -m repro.cli fig9 --scale paper --csv fig9.csv

Run one custom configuration::

    python -m repro.cli run --protocol rng --mechanism view-sync \
        --buffer 10 --speed 40 --repetitions 5
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.experiment import ExperimentSpec, run_repetitions
from repro.analysis.figures import (
    generate_fig6,
    generate_fig7,
    generate_fig8,
    generate_fig9,
    generate_fig10,
)
from repro.analysis.overhead_study import generate_overhead_study
from repro.analysis.plotting import figure_chart
from repro.analysis.report import format_kv, write_csv
from repro.analysis.scales import PAPER, QUICK, SMOKE, STANDARD, Scale
from repro.analysis.tables import generate_table1
from repro.core.consistency import available_mechanisms
from repro.protocols import available_protocols
from repro.sim.propagation import available_propagation_models

__all__ = ["main", "build_parser"]

_SCALES: dict[str, Scale] = {
    "paper": PAPER,
    "standard": STANDARD,
    "quick": QUICK,
    "smoke": SMOKE,
}

_FIGURES = {
    "table1": lambda scale, seed, workers: [
        generate_table1(scale, base_seed=seed, workers=workers)
    ],
    "fig6": lambda scale, seed, workers: [
        generate_fig6(scale, base_seed=seed, workers=workers)
    ],
    "fig7": lambda scale, seed, workers: [
        generate_fig7(scale, base_seed=seed, workers=workers)
    ],
    "fig8": lambda scale, seed, workers: list(
        generate_fig8(scale, base_seed=seed, workers=workers)
    ),
    "fig9": lambda scale, seed, workers: [
        generate_fig9(scale, base_seed=seed, workers=workers)
    ],
    "fig10": lambda scale, seed, workers: [
        generate_fig10(scale, base_seed=seed, workers=workers)
    ],
    "overhead": lambda scale, seed, workers: [
        generate_overhead_study(scale, base_seed=seed, workers=workers)
    ],
}


def _orchestration_parent() -> argparse.ArgumentParser:
    """The shared execution/orchestration flags, as an argparse parent.

    One definition serves every campaign-running verb (run, figures,
    all, report, equivalence, fuzz, serve, submit), so flag names, types,
    defaults, and help text cannot drift between commands.
    """
    from repro.orchestrator.backend import available_backends

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for repetition fan-out (default: REPRO_WORKERS env "
        "var, else 1); results are identical at any worker count",
    )
    parent.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend: inprocess (synchronous, in this process) "
        "or queue (work-stealing worker processes over --store, or over a "
        "throw-away store); default: inprocess when min(--workers, units) "
        "is 1, else queue",
    )
    parent.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="checkpoint every work unit into this SQLite run store "
        "(created if missing); inspect it with `repro runs`",
    )
    parent.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="skip units already completed in --store (default: on); "
        "--no-resume re-executes everything, idempotently overwriting",
    )
    parent.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per failing unit before quarantining it "
        "(default: 1)",
    )
    parent.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock bound, enforced inside worker processes",
    )
    parent.add_argument(
        "--max-units",
        type=int,
        default=None,
        help="execute at most this many fresh units, then stop with exit "
        "code 3 (completed work is checkpointed; rerun to continue)",
    )
    return parent


def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="trace every run: write a repro-telemetry/1 JSONL stream to "
        "PATH, print the metrics/spans summary table, and write per-phase "
        "timings to PATH's .phases.json sibling (works at any --workers "
        "count; at >1 workers the per-event stream holds parent-side "
        "events only, while counters/spans/event totals merge exactly)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro-experiment argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce Wu & Dai, mobility-sensitive topology control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    orchestration = _orchestration_parent()

    for name in [*_FIGURES, "all"]:
        p = sub.add_parser(
            name,
            help=f"regenerate {name}" if name != "all" else "everything",
            parents=[orchestration],
        )
        p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
        p.add_argument("--seed", type=int, default=2026)
        p.add_argument("--csv", help="write result rows to this CSV file")
        p.add_argument(
            "--no-chart", dest="chart", action="store_false",
            help="suppress the ASCII chart rendering",
        )
        _add_telemetry_flag(p)

    p = sub.add_parser(
        "report",
        help="run the full campaign and write EXPERIMENTS.md",
        parents=[orchestration],
    )
    p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.add_argument("--html", help="also write a standalone HTML report here")
    _add_telemetry_flag(p)

    p = sub.add_parser("unicast", help="GFG/GPSR unicast over maintained topologies")
    p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--speed", type=float, default=20.0)

    p = sub.add_parser("lifetime", help="network-lifetime study per protocol")
    p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--budget", type=float, default=5e6)

    p = sub.add_parser(
        "equivalence",
        help="speed-range equivalence study (Sec. 5.1)",
        parents=[orchestration],
    )
    p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    p.add_argument("--seed", type=int, default=2026)
    _add_telemetry_flag(p)

    p = sub.add_parser(
        "fuzz",
        help="differential fault-injection fuzzing against the paper's theorems",
        parents=[orchestration],
    )
    p.add_argument("--runs", type=int, default=25, help="random cases to execute")
    p.add_argument("--seed", type=int, default=0, help="campaign seed (case i is a pure function of (seed, i))")
    p.add_argument(
        "--deep", action="store_true",
        help="audit invariants after every simulation event, not just at samples",
    )
    p.add_argument(
        "--no-differential", dest="differential", action="store_false",
        help="skip the decision-cache-disabled twin runs",
    )
    p.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="report failures without minimizing their fault schedules",
    )
    p.add_argument(
        "--mechanism", action="append", dest="mechanisms", metavar="NAME",
        choices=available_mechanisms(),
        help="restrict to this mechanism (repeatable; default: all shipped)",
    )
    p.add_argument(
        "--propagation", action="append", dest="propagations", metavar="NAME",
        choices=sorted(available_propagation_models()),
        help="restrict the propagation axis to this model (repeatable; "
        "default: weighted sample of all shipped models)",
    )
    p.add_argument(
        "--out-dir", default=None,
        help="write shrunk failing cases as JSON repros into this directory",
    )

    p = sub.add_parser("runs", help="inspect and export a run store")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    p_list = runs_sub.add_parser("list", help="list stored work units")
    p_list.add_argument("--store", required=True, metavar="PATH")
    p_list.add_argument(
        "--status", choices=["pending", "done", "quarantined"], default=None,
        help="only units in this state",
    )
    p_list.add_argument(
        "--kind", default=None, help="only units of this kind (run | fuzz)"
    )
    p_show = runs_sub.add_parser("show", help="show one unit in full")
    p_show.add_argument("--store", required=True, metavar="PATH")
    p_show.add_argument("unit_id", help="unit ID (or unique prefix >= 6 chars)")
    p_export = runs_sub.add_parser(
        "export", help="export the store as JSONL and/or CSV"
    )
    p_export.add_argument("--store", required=True, metavar="PATH")
    p_export.add_argument("--jsonl", metavar="PATH", default=None)
    p_export.add_argument("--csv", metavar="PATH", default=None)

    p = sub.add_parser(
        "run", help="run one custom configuration", parents=[orchestration]
    )
    p.add_argument("--protocol", choices=available_protocols(), default="rng")
    p.add_argument(
        "--mechanism",
        choices=available_mechanisms(),
        default="baseline",
    )
    p.add_argument("--buffer", type=float, default=0.0, help="buffer width, m")
    p.add_argument("--speed", type=float, default=20.0, help="mean speed, m/s")
    p.add_argument("--pn", action="store_true", help="physical-neighbor mode")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--duration", type=float, default=100.0)
    p.add_argument("--sample-rate", type=float, default=10.0)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument(
        "--propagation",
        choices=sorted(available_propagation_models()),
        default="unit-disk",
        help="reachability model (see docs/PROPAGATION.md)",
    )
    p.add_argument(
        "--propagation-param",
        action="append",
        dest="propagation_params",
        metavar="KEY=VALUE",
        default=None,
        help="propagation-model constructor parameter, repeatable "
        "(e.g. --propagation-param sigma_db=6)",
    )
    _add_telemetry_flag(p)

    p = sub.add_parser(
        "serve",
        help="run the HTTP experiment service",
        parents=[orchestration],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--data-dir", default=None,
        help="directory holding one run-store database per campaign "
        "(default: a fresh temporary directory)",
    )

    p = sub.add_parser(
        "submit",
        help="submit a sweep campaign to a running experiment service",
        parents=[orchestration],
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (see `repro serve`)",
    )
    p.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    p.add_argument(
        "--speeds", default=None,
        help="comma-separated mean speeds (m/s) to sweep "
        "(default: the scale's speed axis)",
    )
    p.add_argument("--protocol", choices=available_protocols(), default="rng")
    p.add_argument(
        "--mechanism",
        choices=available_mechanisms(),
        default="baseline",
    )
    p.add_argument("--buffer", type=float, default=0.0, help="buffer width, m")
    p.add_argument("--repetitions", type=int, default=None,
                   help="seeds per speed (default: the scale's repetitions)")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument(
        "--wait", action=argparse.BooleanOptionalAction, default=True,
        help="poll until the campaign finishes (default: on)",
    )
    p.add_argument(
        "--export", metavar="PATH", default=None,
        help="after completion, write the campaign's deterministic "
        "run-store JSONL export here",
    )
    p.add_argument(
        "--events", type=int, default=0, metavar="N",
        help="tail up to N live telemetry JSONL lines while waiting",
    )
    return parser


def _with_telemetry(args: argparse.Namespace, fn) -> int:
    """Run *fn* with an ambient collector armed when ``--telemetry`` asks.

    The collector reaches every :func:`~repro.analysis.experiment.run_once`
    through the :func:`~repro.telemetry.use_telemetry` context variable, so
    figure generators and campaigns need no parameter threading.  At more
    than one worker, each repetition is traced by a process-local collector
    whose frozen summary is absorbed back into this one (see
    :meth:`repro.telemetry.Telemetry.absorb`) — counters, spans, and event
    totals merge exactly; only the per-event stream is parent-side.
    """
    path = getattr(args, "telemetry", None)
    if not path:
        return fn()
    from repro.telemetry import (
        Telemetry,
        summary_table,
        use_telemetry,
        write_jsonl,
        write_phase_timings,
    )

    if getattr(args, "workers", None) not in (None, 1):
        print(
            "[telemetry] multi-worker run: per-event JSONL records cover "
            "parent-side events only; counters/spans/event totals are exact"
        )
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        code = fn()
    meta = {"command": args.command, "seed": getattr(args, "seed", None)}
    records = write_jsonl(path, telemetry, meta=meta)
    print()
    print(summary_table(telemetry, title=f"telemetry — {args.command}"))
    phases_path = f"{path}.phases.json"
    write_phase_timings(phases_path, telemetry, meta=meta)
    print(f"\nwrote {records} telemetry records to {path}")
    print(f"wrote phase timings to {phases_path}")
    return code


def _with_orchestrator(args: argparse.Namespace, fn) -> int:
    """Run *fn* under an armed :class:`OrchestrationContext` when asked.

    Armed by any of ``--store``, ``--backend``, ``--max-units``,
    ``--unit-timeout``, or a non-default ``--retries``; otherwise each
    sweep opens its own store-less context (no retries; a failing unit
    raises).  Sweeps reach the context ambiently through
    :func:`repro.orchestrator.use_orchestrator`, so figure generators and
    campaigns need no parameter threading.  Exit code 3 means the unit
    budget was exhausted (work so far is checkpointed; rerun to continue).
    """
    store_path = getattr(args, "store", None)
    armed = (
        store_path is not None
        or getattr(args, "backend", None) is not None
        or getattr(args, "max_units", None) is not None
        or getattr(args, "unit_timeout", None) is not None
        or getattr(args, "retries", 1) != 1
    )
    if not armed:
        return fn()
    from repro.analysis.experiment import default_workers
    from repro.orchestrator import OrchestrationContext, RunStore
    from repro.orchestrator.runner import CampaignInterrupted

    workers = getattr(args, "workers", None)
    if workers is None:
        workers = default_workers()
    store = RunStore(store_path) if store_path else None
    context = OrchestrationContext(
        store=store,
        workers=max(1, workers),
        retries=getattr(args, "retries", 1),
        unit_timeout=getattr(args, "unit_timeout", None),
        resume=getattr(args, "resume", True),
        max_units=getattr(args, "max_units", None),
        backend=getattr(args, "backend", None),
    )
    try:
        with context:
            code = fn()
        print(f"\n[orchestrator] {context.summary_line()}")
        for quarantined in context.quarantined:
            print(f"[orchestrator] quarantined: {quarantined}")
        return code
    except CampaignInterrupted as exc:
        print(f"\n[orchestrator] interrupted: {exc}")
        print(f"[orchestrator] {context.summary_line()}")
        return 3
    finally:
        if store is not None:
            store.close()


def _run_runs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.report import format_table
    from repro.orchestrator import RunStore

    with RunStore(args.store) as store:
        if args.runs_command == "list":
            rows = [
                {
                    "unit": row.unit_id[:12],
                    "kind": row.kind,
                    "label": row.label,
                    "seed": row.seed,
                    "status": row.status,
                    "attempts": row.attempts,
                    "updated": row.updated_at,
                }
                for row in store.units(status=args.status, kind=args.kind)
            ]
            if rows:
                print(format_table(rows, title=f"run store — {args.store}"))
            tally = store.counts()
            print(
                "\n" + ", ".join(f"{n} {s}" for s, n in tally.items())
                + f" ({sum(tally.values())} total)"
            )
            return 0
        if args.runs_command == "show":
            row = store.get(args.unit_id)
            if row is None:
                print(f"no unit matches {args.unit_id!r} in {args.store}")
                return 1
            print(_json.dumps(row.as_dict(), indent=2, sort_keys=True))
            return 0
        # export
        if not args.jsonl and not args.csv:
            print("runs export: pass --jsonl PATH and/or --csv PATH")
            return 2
        if args.jsonl:
            lines = store.export_jsonl(args.jsonl)
            print(f"wrote {lines} JSONL records to {args.jsonl}")
        if args.csv:
            rows_written = store.export_csv(args.csv)
            print(f"wrote {rows_written} CSV rows to {args.csv}")
        return 0


def _run_figures(args: argparse.Namespace) -> int:
    names = list(_FIGURES) if args.command == "all" else [args.command]
    scale = _SCALES[args.scale]
    all_rows = []
    for name in names:
        t0 = time.perf_counter()
        for result in _FIGURES[name](scale, args.seed, args.workers):
            print(result.format())
            print()
            if getattr(result, "series", None) and getattr(args, "chart", True):
                print(figure_chart(result))
                print()
            rows = result.rows()
            tag = getattr(result, "figure_id", name)
            for row in rows:
                all_rows.append({"artifact": tag, **row})
        print(f"[{name} done in {time.perf_counter() - t0:.1f}s]\n")
    if args.csv and all_rows:
        write_csv(args.csv, all_rows)
        print(f"wrote {len(all_rows)} rows to {args.csv}")
    return 0


def _parse_propagation_params(pairs: list[str] | None) -> dict:
    """Parse repeated ``KEY=VALUE`` flags into constructor kwargs."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--propagation-param expects KEY=VALUE, got {pair!r}"
            )
        try:
            params[key] = float(value)
        except ValueError:
            raise SystemExit(
                f"--propagation-param {key} expects a number, got {value!r}"
            ) from None
    return params


def _run_single(args: argparse.Namespace) -> int:
    scale_cfg = Scale(
        name="custom",
        n_nodes=args.nodes,
        duration=args.duration,
        sample_rate=args.sample_rate,
        repetitions=args.repetitions,
    )
    spec = ExperimentSpec(
        protocol=args.protocol,
        mechanism=args.mechanism,
        buffer_width=args.buffer,
        physical_neighbor_mode=args.pn,
        mean_speed=args.speed,
        config=scale_cfg.config(
            propagation=args.propagation,
            propagation_params=_parse_propagation_params(args.propagation_params),
        ),
    )
    t0 = time.perf_counter()
    agg = run_repetitions(
        spec,
        repetitions=args.repetitions,
        base_seed=args.seed,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - t0
    print(format_kv(
        {
            "configuration": spec.describe(),
            "connectivity": str(agg.connectivity),
            "strict connectivity": str(agg.strict_connectivity),
            "tx range (m)": str(agg.transmission_range),
            "logical degree": str(agg.logical_degree),
            "physical degree": str(agg.physical_degree),
            "repetitions": agg.n_repetitions,
            "wall clock (s)": f"{elapsed:.1f}",
        },
        title="single-configuration run",
    ))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import render_experiments_md, run_campaign

    result = run_campaign(
        _SCALES[args.scale], base_seed=args.seed, workers=args.workers
    )
    text = render_experiments_md(result)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text)
    print(f"\nwrote {args.output} ({result.wall_clock_s:.0f}s of simulation)")
    if getattr(args, "html", None):
        from repro.analysis.html_report import write_html_report

        write_html_report(result, args.html)
        print(f"wrote {args.html}")
    return 0


def _run_unicast(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.analysis.routing_study import run_unicast_study

    scale = _SCALES[args.scale]
    cfg = scale.config()
    rows = []
    for protocol, mechanism, buffer_width in [
        ("rng", "baseline", 0.0),
        ("rng", "view-sync", 30.0),
        ("gabriel", "view-sync", 30.0),
        ("none", "baseline", 0.0),
    ]:
        spec = ExperimentSpec(
            protocol=protocol, mechanism=mechanism, buffer_width=buffer_width,
            mean_speed=args.speed, config=cfg,
        )
        rows.append(run_unicast_study(spec, seed=args.seed).row())
    print(format_table(rows, title=f"GFG/GPSR unicast at {args.speed:g} m/s"))
    return 0


def _run_lifetime(args: argparse.Namespace) -> int:
    from repro.analysis.lifetime_study import run_lifetime_study
    from repro.analysis.report import format_table

    scale = _SCALES[args.scale]
    cfg = scale.config()
    rows = []
    for protocol in ("mst", "rng", "spt2", "none"):
        spec = ExperimentSpec(
            protocol=protocol, mechanism="view-sync", buffer_width=10.0,
            mean_speed=10.0, config=cfg,
        )
        rows.append(
            run_lifetime_study(spec, budget=args.budget, seed=args.seed).row()
        )
    print(format_table(rows, title=f"Network lifetime (budget {args.budget:g})"))
    return 0


def _run_equivalence(args: argparse.Namespace) -> int:
    from repro.analysis.equivalence import generate_equivalence_study
    from repro.analysis.report import format_table

    points = generate_equivalence_study(
        _SCALES[args.scale], base_seed=args.seed, workers=args.workers
    )
    print(
        format_table(
            [p.row() for p in points],
            title="Speed-range equivalence (constant v/R => constant connectivity)",
        )
    )
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.faults.fuzz import MECHANISMS, PROPAGATIONS, fuzz

    mechanisms = tuple(args.mechanisms) if args.mechanisms else MECHANISMS
    propagations = tuple(args.propagations) if args.propagations else PROPAGATIONS
    t0 = time.perf_counter()

    def progress(i, case, result):
        mark = "FAIL" if result.failed else "ok"
        print(f"[{i + 1:>3}/{args.runs}] {mark:<4} {case.describe()}")

    for flag in ("workers", "backend", "unit_timeout"):
        if getattr(args, flag, None) not in (None, 1):
            print(
                f"[fuzz] note: --{flag.replace('_', '-')} does not apply — "
                "fuzz cases run sequentially in-process (case i must see "
                "case i's exact RNG stream)"
            )
    store = None
    if args.store:
        from repro.orchestrator import RunStore

        store = RunStore(args.store)
    from repro.orchestrator.runner import CampaignInterrupted

    try:
        report = fuzz(
            runs=args.runs,
            seed=args.seed,
            deep=args.deep,
            differential=args.differential,
            mechanisms=mechanisms,
            propagations=propagations,
            shrink=args.shrink,
            out_dir=args.out_dir,
            progress=progress,
            store=store,
            resume=args.resume,
            max_fresh=args.max_units,
        )
    except CampaignInterrupted as exc:
        print(f"\n[fuzz] interrupted: {exc}")
        return 3
    finally:
        if store is not None:
            tally = store.counts()
            print(
                "[store] " + ", ".join(f"{n} {s}" for s, n in tally.items())
            )
            store.close()
    elapsed = time.perf_counter() - t0
    print(f"\n{report.runs} cases, {len(report.failures)} failing, {elapsed:.1f}s")
    for result in report.failures:
        print(f"\n{result.case.describe()} "
              f"(shrunk to {len(result.case.schedule)} fault events)")
        for finding in result.findings:
            print(f"  {finding}")
    for path in report.saved:
        print(f"repro written: {path}")
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentService
    from repro.service.server import run_service

    if args.store:
        print(
            "[serve] note: --store is ignored — each campaign gets its own "
            "run store under --data-dir"
        )
    service = ExperimentService(
        data_dir=args.data_dir,
        default_backend=args.backend,
        default_workers=max(1, args.workers or 1),
    )
    return run_service(service, host=args.host, port=args.port)


def _run_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    scale = _SCALES[args.scale]
    speeds = (
        [float(v) for v in args.speeds.split(",") if v.strip()]
        if args.speeds
        else list(scale.speeds)
    )
    cfg = scale.config()
    specs = [
        ExperimentSpec(
            protocol=args.protocol,
            mechanism=args.mechanism,
            buffer_width=args.buffer,
            mean_speed=speed,
            config=cfg,
        ).as_dict()
        for speed in speeds
    ]
    document = {
        "specs": specs,
        "repetitions": args.repetitions or scale.repetitions,
        "base_seed": args.seed,
        "resume": args.resume,
    }
    if args.backend:
        document["backend"] = args.backend
    if args.workers:
        document["workers"] = args.workers
    if args.retries != 1:
        document["retries"] = args.retries
    if args.unit_timeout is not None:
        document["unit_timeout"] = args.unit_timeout
    if args.max_units is not None:
        document["max_units"] = args.max_units
    client = ServiceClient(args.url)
    try:
        created = client.submit(document)
        cid = created["id"]
        print(
            f"[submit] campaign {cid}: {len(specs)} spec(s) × "
            f"{document['repetitions']} repetition(s) via "
            f"{created['backend']} backend at {args.url}"
        )
        if args.events:
            for line in client.events(cid, max_lines=args.events):
                print(line)
        if not args.wait:
            return 0
        final = client.wait(cid)
    except ServiceError as exc:
        print(f"[submit] {exc}")
        return 1
    print(f"[submit] {cid} finished: {final['state']}")
    for key in ("executed_units", "resumed_units", "quarantined_units"):
        if key in final:
            print(f"[submit]   {key.replace('_', ' ')}: {final[key]}")
    for aggregate in final.get("aggregates", ()):
        print(
            f"[submit]   {aggregate['spec']}: connectivity "
            f"{aggregate['connectivity']:.4f} over {aggregate['runs']} run(s)"
        )
    if final.get("error"):
        print(f"[submit]   error: {final['error']}")
    if args.export:
        payload = client.export(cid, deterministic=True)
        with open(args.export, "wb") as fh:
            fh.write(payload)
        print(f"[submit] wrote deterministic export to {args.export}")
    if final["state"] == "interrupted":
        return 3
    return 0 if final["state"] in ("done", "cancelled") else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _with_telemetry(
            args, lambda: _with_orchestrator(args, lambda: _run_single(args))
        )
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "runs":
        return _run_runs(args)
    if args.command == "report":
        return _with_telemetry(
            args, lambda: _with_orchestrator(args, lambda: _run_report(args))
        )
    if args.command == "unicast":
        return _run_unicast(args)
    if args.command == "lifetime":
        return _run_lifetime(args)
    if args.command == "equivalence":
        return _with_telemetry(
            args, lambda: _with_orchestrator(args, lambda: _run_equivalence(args))
        )
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    return _with_telemetry(
        args, lambda: _with_orchestrator(args, lambda: _run_figures(args))
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
