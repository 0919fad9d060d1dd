"""Differential fuzzer over scenario × mechanism × fault schedules.

The fuzzer draws random small scenarios (every consistency mechanism and
a protocol sample), arms each with a random :class:`FaultSchedule`, runs
the simulation, and cross-checks the paper's guarantees at every sampling
instant through :mod:`repro.faults.oracles`.  A failing case is shrunk —
greedy delta-debugging over the schedule's events — to a minimal repro
and serialized as a self-contained JSON :class:`FuzzCase` that
``tests/test_fuzz_corpus.py`` replays verbatim.

Everything is deterministic: case *i* of ``fuzz(seed=s)`` is a pure
function of ``(s, i)``, and replaying a serialized case reproduces the
original run bit for bit (the schedule is descriptive; all stochastic
fault realisations come from the world's named seed streams).

:class:`BrokenViewSync` is the built-in mutation used to validate the
pipeline end to end: a view-synchronization variant that skips the expiry
filter, which the freshness oracle catches as soon as a fault silences a
selected neighbor for longer than the expiry window.

Entry points: ``repro fuzz`` (CLI) and :func:`fuzz` (programmatic).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.orchestrator.store import RunStore

import numpy as np

from repro.analysis.experiment import ExperimentSpec, build_mobility
from repro.core.audit import audit_world
from repro.core.buffer_zone import BufferZonePolicy, buffer_width
from repro.core.consistency import (
    ViewSynchronization,
    available_mechanisms,
    make_mechanism,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import latest_members
from repro.faults.oracles import OracleFinding, check_instant
from repro.faults.schedule import (
    ClockSkew,
    DeliveryDelay,
    FaultSchedule,
    HelloIntervalScale,
    HelloLossBurst,
    NodeOutage,
    PositionNoise,
)
from repro.mobility.base import Area
from repro.protocols.base import make_protocol
from repro.sim.config import ScenarioConfig
from repro.sim.world import NetworkWorld
from repro.util.errors import ConfigurationError
from repro.util.randomness import SeedSequenceFactory

__all__ = [
    "MECHANISMS",
    "PROTOCOLS",
    "PROPAGATIONS",
    "BrokenViewSync",
    "FuzzCase",
    "CaseResult",
    "FuzzReport",
    "build_fuzz_world",
    "random_case",
    "run_case",
    "shrink_case",
    "fuzz",
    "save_case",
    "load_case",
]

#: Shipped mechanisms the fuzzer samples by default — derived from the
#: consistency registry so a newly registered mechanism joins the axis
#: automatically instead of drifting out of sync with the CLI.
MECHANISMS = available_mechanisms()
#: Protocol sample — cheap, structurally diverse (sparsifier, tree,
#: energy, and a predicate-loop protocol), all with a conservative mode,
#: since mechanisms (weak consistency included) are drawn independently.
PROTOCOLS = ("rng", "mst", "spt2", "gabriel")
#: Propagation-model sample; the unit disk is over-weighted because it is
#: the only model arming the static-connectivity oracle (the strictest).
PROPAGATIONS = ("unit-disk", "unit-disk", "log-distance", "sinr")

_CASE_FORMAT = "repro-fuzz-case/1"


class BrokenViewSync(ViewSynchronization):
    """Deliberately broken view synchronization: no expiry filtering.

    Builds its decision view from every retained neighbor, however stale —
    the classic "forgot the liveness check" bug.  Fault-free it behaves
    like the real mechanism (neighbors refresh every interval), but any
    fault that silences a selected neighbor beyond the expiry window makes
    it keep a dead selection, which the freshness oracle flags.  It is
    not cacheable, so the decision cache can never mask the bug.
    """

    name = "broken-view-sync"
    cacheable = False

    def members(self, tables, now, versions):
        # Every retained neighbor's newest position, however stale.
        counts, ids, xy = latest_members(tables, now, expiry=math.inf)
        return counts, ids, np.ones(ids.size, dtype=np.int64), xy


# --------------------------------------------------------------------- #
# case description + JSON form


@dataclass(frozen=True)
class FuzzCase:
    """One self-contained fuzz input: scenario, schedule, seed.

    ``theorem5`` records that the buffer width was sized by Theorem 5
    (``l = 2 Δ'' v``, uncapped), arming the link-coverage oracle.
    """

    spec: ExperimentSpec
    schedule: FaultSchedule
    seed: int
    theorem5: bool = False
    note: str = ""

    def describe(self) -> str:
        """One-line label for progress output."""
        return (
            f"{self.spec.describe()} seed={self.seed} "
            f"events={len(self.schedule)}"
        )

    def as_dict(self) -> dict:
        """Plain-JSON form (the corpus file format)."""
        return {
            "format": _CASE_FORMAT,
            "note": self.note,
            "seed": self.seed,
            "theorem5": self.theorem5,
            "spec": self.spec.as_dict(),
            "schedule": self.schedule.as_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "FuzzCase":
        """Rebuild a case from :meth:`as_dict` output."""
        fmt = data.get("format")
        if fmt != _CASE_FORMAT:
            raise ConfigurationError(
                f"unsupported fuzz-case format {fmt!r} (expected {_CASE_FORMAT!r})"
            )
        return FuzzCase(
            spec=ExperimentSpec.from_dict(data["spec"]),
            schedule=FaultSchedule.from_dict(data["schedule"]),
            seed=int(data["seed"]),
            theorem5=bool(data.get("theorem5", False)),
            note=str(data.get("note", "")),
        )

    def to_json(self) -> str:
        """JSON text (stable field order, human-diffable)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def canonical_json(self) -> str:
        """Compact canonical JSON — the orchestrator unit-hash substrate."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "FuzzCase":
        """Parse :meth:`to_json` output."""
        return FuzzCase.from_dict(json.loads(text))


def save_case(case: FuzzCase, path: str | Path, findings: Sequence[str] = ()) -> Path:
    """Write *case* (plus the findings that motivated it) as a JSON repro."""
    path = Path(path)
    payload = case.as_dict()
    if findings:
        payload["findings"] = list(findings)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: str | Path) -> FuzzCase:
    """Read a JSON repro written by :func:`save_case`."""
    data = json.loads(Path(path).read_text())
    data.pop("findings", None)
    return FuzzCase.from_dict(data)


# --------------------------------------------------------------------- #
# world construction + execution


def build_fuzz_world(
    case: FuzzCase, decision_cache: bool | None = None
) -> NetworkWorld:
    """Wire the world a :class:`FuzzCase` describes.

    Mirrors :func:`repro.analysis.experiment.build_world` but understands
    the :class:`BrokenViewSync` mutation and, for ``theorem5`` cases,
    removes the extended-range cap (the theorem's guarantee is about the
    uncapped width, matching the Theorem-5 integration test).
    """
    spec = case.spec
    seeds = SeedSequenceFactory(case.seed)
    mobility = build_mobility(spec, seeds.rng("mobility"))
    protocol = make_protocol(spec.protocol, **spec.protocol_kwargs)
    if spec.mechanism == BrokenViewSync.name:
        mechanism = BrokenViewSync()
    else:
        mechanism = make_mechanism(spec.mechanism, **spec.mechanism_kwargs)
    cap = None if case.theorem5 else spec.config.normal_range
    manager = MobilitySensitiveTopologyControl(
        protocol,
        mechanism=mechanism,
        buffer_policy=BufferZonePolicy(width=spec.buffer_width, cap=cap),
        physical_neighbor_mode=spec.physical_neighbor_mode,
        decision_cache=decision_cache,
    )
    return NetworkWorld(
        spec.config, mobility, manager, seed=case.seed, faults=case.schedule
    )


def _sample_times(cfg: ScenarioConfig) -> np.ndarray:
    return np.arange(cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate)


def _decision_state(world: NetworkWorld) -> tuple:
    return tuple(
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
    )


@dataclass(frozen=True)
class CaseResult:
    """Outcome of executing one fuzz case."""

    case: FuzzCase
    findings: tuple[str, ...]
    fault_stats: dict

    @property
    def failed(self) -> bool:
        """True if any oracle reported a finding."""
        return bool(self.findings)


def run_case(
    case: FuzzCase,
    deep: bool = False,
    differential: bool = False,
    stop_at_first: bool = True,
    max_findings: int = 20,
) -> CaseResult:
    """Execute one case and collect every oracle finding.

    Parameters
    ----------
    deep:
        Audit the world after *every processed event* (via the engine's
        event hook) rather than only at sampling instants — slower but
        catches transient violations between samples.
    differential:
        Also run a decision-cache-disabled twin of the same case and
        require identical standing decisions at every sampling instant
        (the cache must be a pure memo even under faults).
    stop_at_first:
        Return at the first violating instant (the shrinker's fast path).
    """
    world = build_fuzz_world(case)
    twin = build_fuzz_world(case, decision_cache=False) if differential else None
    findings: list[OracleFinding] = []
    if deep:
        last_audited = [float("nan")]

        def _deep_hook(now: float) -> None:
            if now == last_audited[0] or len(findings) >= max_findings:
                return
            last_audited[0] = now
            for v in audit_world(world):
                findings.append(OracleFinding("audit-deep", now, str(v)))

        world.engine.set_event_hook(_deep_hook)
    for t in _sample_times(case.spec.config):
        world.run_until(float(t))
        findings += check_instant(world, theorem5=case.theorem5)
        if twin is not None:
            twin.run_until(float(t))
            if _decision_state(world) != _decision_state(twin):
                findings.append(
                    OracleFinding(
                        "cache-differential", float(t),
                        "standing decisions differ between the cached and "
                        "uncached runs of the same seed",
                    )
                )
        if findings and stop_at_first:
            break
    return CaseResult(
        case=case,
        findings=tuple(str(f) for f in findings[:max_findings]),
        fault_stats=world.fault_stats(),
    )


# --------------------------------------------------------------------- #
# generation


def _maybe_subset(
    rng: np.random.Generator, n_nodes: int
) -> tuple[int, ...] | None:
    if rng.random() < 0.5:
        return None
    size = int(rng.integers(1, 4))
    return tuple(
        int(x) for x in rng.choice(n_nodes, size=min(size, n_nodes), replace=False)
    )


def _random_event(rng: np.random.Generator, cfg: ScenarioConfig):
    start = float(rng.uniform(0.5, cfg.duration - 1.0))
    end = start + float(rng.uniform(0.5, 2.5))
    node = int(rng.integers(cfg.n_nodes))
    kind = int(rng.integers(6))
    if kind == 0:
        return HelloLossBurst(
            start=start,
            end=end,
            probability=float(rng.choice([1.0, 1.0, 0.5, 0.8])),
            senders=_maybe_subset(rng, cfg.n_nodes),
            receivers=_maybe_subset(rng, cfg.n_nodes),
        )
    if kind == 1:
        return NodeOutage(start=start, end=end, node=node)
    if kind == 2:
        # Positive offsets only: a negative whole-run offset would stamp
        # the first Hellos before t = 0.
        return ClockSkew(node=node, offset=float(rng.uniform(0.05, 0.35)))
    if kind == 3:
        return HelloIntervalScale(
            start=start, end=end, node=node,
            factor=float(rng.choice([0.5, 1.5, 2.0])),
        )
    if kind == 4:
        return DeliveryDelay(
            start=start, end=end,
            delay=float(rng.uniform(0.05, 0.4)),
            senders=_maybe_subset(rng, cfg.n_nodes),
            receivers=_maybe_subset(rng, cfg.n_nodes),
        )
    return PositionNoise(
        start=start, end=end,
        amplitude=float(rng.uniform(1.0, 10.0)),
        nodes=_maybe_subset(rng, cfg.n_nodes),
    )


def random_schedule(rng: np.random.Generator, cfg: ScenarioConfig) -> FaultSchedule:
    """Draw 0-4 random fault events sized to the scenario."""
    count = int(rng.integers(0, 5))
    return FaultSchedule(
        events=tuple(_random_event(rng, cfg) for _ in range(count))
    )


def random_case(
    rng: np.random.Generator,
    index: int = 0,
    mechanisms: Sequence[str] = MECHANISMS,
    protocols: Sequence[str] = PROTOCOLS,
    propagations: Sequence[str] = PROPAGATIONS,
) -> FuzzCase:
    """Draw one random scenario + schedule (pure function of *rng* state).

    Scenarios stay small (10-18 nodes at the paper's density, 6 s runs)
    so a fuzz campaign of dozens of cases finishes in tens of seconds;
    static scenarios are over-weighted because they arm the strictest
    oracle (unconditional connectivity).  The propagation axis samples
    *propagations* (log-distance draws its shadowing depth too); the
    oracles adapt automatically — static connectivity stands down off
    the unit disk, Theorem-5 widens its slack for stochastic reception.
    """
    n_nodes = int(rng.integers(10, 19))
    side = float(np.sqrt(n_nodes * 8100.0) * rng.uniform(0.85, 1.15))
    speed = float(rng.choice([0.0, 0.0, 5.0, 10.0, 20.0]))
    propagation = str(rng.choice(list(propagations)))
    propagation_params: dict = {}
    if propagation == "log-distance":
        propagation_params = {"sigma_db": float(rng.choice([2.0, 4.0, 6.0]))}
    cfg = ScenarioConfig(
        n_nodes=n_nodes,
        area=Area(side, side),
        duration=6.0,
        warmup=2.0,
        sample_rate=2.0,
        propagation=propagation,
        propagation_params=propagation_params,
    )
    theorem5 = False
    buffer = float(rng.choice([0.0, 10.0, 30.0]))
    if speed > 0.0 and rng.random() < 0.6:
        # Theorem-5 sizing: worst info age is expiry + one full interval,
        # worst relative speed twice the waypoint draw ceiling (2 x mean).
        theorem5 = True
        buffer = buffer_width(
            max_speed=2.0 * speed,
            max_delay=cfg.hello_expiry + cfg.max_hello_interval,
        )
    spec = ExperimentSpec(
        protocol=str(rng.choice(list(protocols))),
        mechanism=str(rng.choice(list(mechanisms))),
        buffer_width=buffer,
        mean_speed=speed,
        config=cfg,
    )
    return FuzzCase(
        spec=spec,
        schedule=random_schedule(rng, cfg),
        seed=int(rng.integers(2**31)),
        theorem5=theorem5,
        note=f"generated case {index}",
    )


# --------------------------------------------------------------------- #
# shrinking


def shrink_case(
    case: FuzzCase,
    deep: bool = False,
    differential: bool = False,
    max_runs: int = 200,
) -> FuzzCase:
    """Greedy delta-debugging: drop fault events while the case still fails.

    Repeatedly removes any single event whose removal preserves the
    failure, to a fixpoint — the classic ddmin core, which suffices at
    the single-digit schedule sizes the generator produces.  The returned
    case fails for the same reason with a locally minimal schedule.
    """

    def fails(candidate: FuzzCase) -> bool:
        return run_case(
            candidate, deep=deep, differential=differential, stop_at_first=True
        ).failed

    current = case
    budget = max_runs
    changed = True
    while changed and budget > 0:
        changed = False
        for i in range(len(current.schedule)):
            candidate = replace(current, schedule=current.schedule.without(i))
            budget -= 1
            if fails(candidate):
                current = candidate
                changed = True
                break
            if budget <= 0:
                break
    return current


# --------------------------------------------------------------------- #
# campaign driver


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    runs: int
    seed: int
    failures: list[CaseResult]
    saved: list[Path]

    @property
    def ok(self) -> bool:
        """True when every case passed every oracle."""
        return not self.failures


def fuzz(
    runs: int = 25,
    seed: int = 0,
    deep: bool = False,
    differential: bool = True,
    mechanisms: Sequence[str] = MECHANISMS,
    protocols: Sequence[str] = PROTOCOLS,
    propagations: Sequence[str] = PROPAGATIONS,
    shrink: bool = True,
    out_dir: str | Path | None = None,
    progress: Callable[[int, FuzzCase, CaseResult], None] | None = None,
    store: "RunStore | None" = None,
    resume: bool = True,
    max_fresh: int | None = None,
) -> FuzzReport:
    """Run a deterministic fuzz campaign; shrink and serialize failures.

    Case *i* is a pure function of ``(seed, i)`` — rerunning with the
    same arguments replays the identical campaign.  Failures are shrunk
    (unless *shrink* is False) and, when *out_dir* is given, written as
    JSON repros ready to drop into ``tests/corpus/``.

    With a *store*, every case outcome is persisted as a ``kind="fuzz"``
    work unit (content-hashed over the case's canonical JSON), so a
    killed campaign resumes from the checkpoint: already-executed cases
    are replayed from their stored verdicts (findings included) instead
    of re-simulated.  Resumed failures are not re-shrunk or re-saved —
    shrinking happened in the session that first executed them.

    *max_fresh* bounds the freshly-simulated cases: once the budget is
    spent the campaign stops with
    :class:`~repro.orchestrator.runner.CampaignInterrupted` (executed
    cases are already checkpointed in *store*; rerun with resume to
    continue) — the same budget semantics sweep campaigns get from
    ``--max-units``.
    """
    factory = SeedSequenceFactory(seed)
    failures: list[CaseResult] = []
    saved: list[Path] = []
    fresh = 0
    for i in range(runs):
        rng = factory.rng(f"fuzz-case-{i}")
        case = random_case(
            rng, index=i, mechanisms=mechanisms, protocols=protocols,
            propagations=propagations,
        )
        unit = None
        if store is not None:
            from repro.orchestrator.units import WorkUnit, content_unit_id

            case_json = case.canonical_json()
            unit = WorkUnit(
                spec=case.spec,
                seed=case.seed,
                spec_json=case_json,
                unit_id=content_unit_id("fuzz", case_json, case.seed),
            )
            store.register([unit], kind="fuzz")
            if resume:
                payload = store.completed([unit.unit_id]).get(unit.unit_id)
                if payload is not None:
                    result = CaseResult(
                        case=case,
                        findings=tuple(payload.get("findings", ())),
                        fault_stats=dict(payload.get("fault_stats", {})),
                    )
                    if result.failed:
                        failures.append(result)
                    if progress is not None:
                        progress(i, case, result)
                    continue
        if max_fresh is not None and fresh >= max_fresh:
            from repro.orchestrator.runner import CampaignInterrupted

            raise CampaignInterrupted(
                f"fuzz case budget exhausted after {fresh} fresh case(s); "
                f"executed cases are checkpointed — rerun with --resume to "
                f"continue"
            )
        result = run_case(case, deep=deep, differential=differential)
        fresh += 1
        if result.failed:
            if shrink and len(case.schedule):
                small = shrink_case(case, deep=deep, differential=differential)
                result = run_case(
                    small, deep=deep, differential=differential, stop_at_first=False
                )
            failures.append(result)
            if out_dir is not None:
                path = Path(out_dir) / f"fail-seed{seed}-case{i}.json"
                saved.append(
                    save_case(result.case, path, findings=result.findings)
                )
        if store is not None:
            store.record_result(
                unit,
                {
                    "failed": result.failed,
                    "findings": list(result.findings),
                    "fault_stats": result.fault_stats,
                },
                kind="fuzz",
            )
        if progress is not None:
            progress(i, case, result)
    return FuzzReport(runs=runs, seed=seed, failures=failures, saved=saved)
