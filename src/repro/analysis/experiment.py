"""Experiment runner: specs, single runs, repetition aggregates.

An :class:`ExperimentSpec` is a declarative description of one simulated
configuration (protocol, consistency mechanism, buffer width, PN mode,
mobility level, scenario).  :func:`run_once` executes it with one seed and
returns per-sample series; :func:`run_repetitions` averages independent
repetitions into :class:`~repro.metrics.stats.Estimate` values with 95 %
confidence intervals — the paper's reporting protocol (20 repetitions,
10 samples/s, 95 % CIs).

Repetitions are embarrassingly parallel (independent seeds, independent
worlds); pass ``workers > 1`` to fan them out over processes.  Every
batch runs through an :class:`~repro.orchestrator.OrchestrationContext`,
and each worker runs one complete simulation, so the parallel efficiency
is essentially linear until the machine runs out of cores.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import make_mechanism
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.faults.schedule import FaultSchedule
from repro.metrics.connectivity import strictly_connected
from repro.metrics.stats import Estimate, mean_ci
from repro.metrics.topology import sample_topology
from repro.mobility.base import Area, MobilityModel
from repro.mobility.static import StaticPlacement
from repro.mobility.waypoint import RandomWaypoint
from repro.orchestrator.context import current_orchestrator
from repro.protocols.base import make_protocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood
from repro.sim.world import NetworkWorld
from repro.telemetry.core import Telemetry, TelemetrySummary
from repro.telemetry.runtime import current_telemetry
from repro.util.errors import OrchestrationError, WorkUnitError
from repro.util.randomness import SeedSequenceFactory
from repro.util.validate import check_int_range, check_non_negative

__all__ = [
    "ExperimentSpec",
    "RunStats",
    "RunResult",
    "AggregateResult",
    "run_once",
    "run_repetitions",
    "run_repetitions_many",
    "collect_runs",
    "aggregate_runs",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulated configuration.

    Attributes
    ----------
    protocol:
        Registered protocol name (``rng``, ``mst``, ``spt2``, ...).
    protocol_kwargs:
        Keyword arguments for the protocol constructor.
    mechanism:
        Consistency mechanism name (``baseline``, ``view-sync``,
        ``proactive``, ``reactive``, ``weak``).
    mechanism_kwargs:
        Keyword arguments for the mechanism constructor.
    buffer_width:
        Buffer-zone width in metres (0 = no buffer).
    physical_neighbor_mode:
        Accept data packets from any in-range sender.
    mean_speed:
        Random-waypoint mean speed, m/s; 0 selects a static network.
    config:
        Scenario parameters.
    label:
        Optional display label (defaults to a generated one).
    """

    protocol: str = "rng"
    protocol_kwargs: dict = field(default_factory=dict)
    mechanism: str = "baseline"
    mechanism_kwargs: dict = field(default_factory=dict)
    buffer_width: float = 0.0
    physical_neighbor_mode: bool = False
    mean_speed: float = 10.0
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    label: str = ""

    def __post_init__(self) -> None:
        check_non_negative("buffer_width", self.buffer_width)
        check_non_negative("mean_speed", self.mean_speed)

    def describe(self) -> str:
        """Display label for reports."""
        if self.label:
            return self.label
        parts = [self.protocol, self.mechanism]
        if self.buffer_width:
            parts.append(f"buf{self.buffer_width:g}")
        if self.physical_neighbor_mode:
            parts.append("pn")
        parts.append(f"v{self.mean_speed:g}")
        return "+".join(parts)

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-JSON form with every field, numerics coerced to canon.

        Floats are coerced to ``float`` and flags to ``bool`` so two specs
        that are semantically equal (e.g. ``buffer_width=10`` vs ``10.0``)
        serialize identically — work-unit IDs hash this form.  The
        ``propagation`` / ``propagation_params`` config keys are emitted
        only when non-default, so every unit-disk spec keeps the exact
        canonical JSON (and orchestrator unit id) it had before the
        propagation seam existed.
        """
        cfg = self.config
        out = {
            "protocol": self.protocol,
            "protocol_kwargs": dict(self.protocol_kwargs),
            "mechanism": self.mechanism,
            "mechanism_kwargs": dict(self.mechanism_kwargs),
            "buffer_width": float(self.buffer_width),
            "physical_neighbor_mode": bool(self.physical_neighbor_mode),
            "mean_speed": float(self.mean_speed),
            "label": self.label,
            "config": {
                "n_nodes": int(cfg.n_nodes),
                "area": [float(cfg.area.width), float(cfg.area.height)],
                "normal_range": float(cfg.normal_range),
                "duration": float(cfg.duration),
                "hello_interval": float(cfg.hello_interval),
                "hello_jitter": float(cfg.hello_jitter),
                "hello_expiry": float(cfg.hello_expiry),
                "history_depth": int(cfg.history_depth),
                "sample_rate": float(cfg.sample_rate),
                "warmup": float(cfg.warmup),
                "propagation_delay": float(cfg.propagation_delay),
                "max_clock_skew": float(cfg.max_clock_skew),
                "reactive_flood_delay": float(cfg.reactive_flood_delay),
                "hello_loss_rate": float(cfg.hello_loss_rate),
                "hello_tx_duration": float(cfg.hello_tx_duration),
            },
        }
        if cfg.propagation != "unit-disk" or cfg.propagation_params:
            out["config"]["propagation"] = str(cfg.propagation)
            out["config"]["propagation_params"] = {
                str(k): (float(v) if isinstance(v, (int, float)) else v)
                for k, v in sorted(cfg.propagation_params.items())
            }
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`as_dict` output.

        Missing config keys fall back to :class:`ScenarioConfig` defaults,
        so documents written before a field existed stay loadable.
        """
        cfg_data = dict(data.get("config", {}))
        area = cfg_data.pop("area", None)
        if area is not None:
            cfg_data["area"] = Area(float(area[0]), float(area[1]))
        return ExperimentSpec(
            protocol=str(data.get("protocol", "rng")),
            protocol_kwargs=dict(data.get("protocol_kwargs", {})),
            mechanism=str(data.get("mechanism", "baseline")),
            mechanism_kwargs=dict(data.get("mechanism_kwargs", {})),
            buffer_width=float(data.get("buffer_width", 0.0)),
            physical_neighbor_mode=bool(data.get("physical_neighbor_mode", False)),
            mean_speed=float(data.get("mean_speed", 10.0)),
            label=str(data.get("label", "")),
            config=ScenarioConfig(**cfg_data),
        )

    def to_json(self) -> str:
        """Canonical JSON text: sorted keys, compact separators.

        The canonical form is the hashing substrate for orchestrator work
        units (:func:`repro.orchestrator.units.unit_id`), so it must be
        stable: equal specs produce byte-equal JSON.
        """
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        """Parse :meth:`to_json` output back into a spec."""
        return ExperimentSpec.from_dict(json.loads(text))


def build_manager(spec: ExperimentSpec) -> MobilitySensitiveTopologyControl:
    """Instantiate the topology control stack an :class:`ExperimentSpec` names."""
    protocol = make_protocol(spec.protocol, **spec.protocol_kwargs)
    mechanism = make_mechanism(spec.mechanism, **spec.mechanism_kwargs)
    policy = BufferZonePolicy(width=spec.buffer_width, cap=spec.config.normal_range)
    return MobilitySensitiveTopologyControl(
        protocol,
        mechanism=mechanism,
        buffer_policy=policy,
        physical_neighbor_mode=spec.physical_neighbor_mode,
    )


def build_mobility(spec: ExperimentSpec, rng: np.random.Generator) -> MobilityModel:
    """Random-waypoint mobility at the spec's speed (static when speed = 0)."""
    cfg = spec.config
    if spec.mean_speed == 0.0:
        return StaticPlacement(cfg.area, cfg.n_nodes, cfg.duration, rng=rng)
    return RandomWaypoint(
        cfg.area, cfg.n_nodes, cfg.duration, mean_speed=spec.mean_speed, rng=rng
    )


def build_world(
    spec: ExperimentSpec,
    seed: int,
    faults: "FaultSchedule | None" = None,
    telemetry: "Telemetry | None" = None,
) -> NetworkWorld:
    """Construct the fully wired world for one repetition."""
    seeds = SeedSequenceFactory(seed)
    mobility = build_mobility(spec, seeds.rng("mobility"))
    manager = build_manager(spec)
    return NetworkWorld(
        spec.config,
        mobility,
        manager,
        seed=seed,
        faults=faults,
        telemetry=telemetry,
    )


@dataclass(frozen=True)
class RunStats:
    """Typed per-run counters: channel, decision cache, faults, telemetry.

    The typed replacement for the free-form ``channel_stats`` dict —
    every counter the run produced, as a named field with a fixed type.
    :meth:`as_dict` reproduces the legacy dict shape exactly (``fault_*``
    keys present only when a schedule was armed, telemetry excluded) for
    dict-shaped consumers.

    Attributes
    ----------
    hello_messages .. collisions:
        The channel's :class:`~repro.sim.radio.ChannelStats` counters.
    decision_cache_hits / decision_cache_misses / decision_cache_uncacheable:
        The manager's write-stamp decision-cache counters
        (:meth:`~repro.core.manager.MobilitySensitiveTopologyControl.cache_info`).
    fault_*:
        Injected-disturbance counters; all zero unless *faults_armed*.
    faults_armed:
        Whether a :class:`~repro.faults.FaultSchedule` was in force.
    gossip_*:
        Anti-entropy dissemination counters
        (:meth:`~repro.sim.world.NetworkWorld.gossip_stats`); emitted by
        :meth:`as_dict` only when *gossip_armed*, i.e. the run used the
        gossip consistency mechanism, so every other mechanism's dict —
        and every pinned digest of it — is untouched.
    propagation:
        Name of the run's propagation model (``"unit-disk"`` by
        default); together with ``propagation_losses`` emitted by
        :meth:`as_dict` only for non-unit-disk runs so the legacy dict
        shape — and every pinned digest of it — is untouched.
    telemetry:
        Frozen :class:`~repro.telemetry.TelemetrySummary` when the run
        was traced, else None.
    """

    hello_messages: int = 0
    data_transmissions: int = 0
    sync_messages: int = 0
    deliveries: int = 0
    hello_losses: int = 0
    collisions: int = 0
    propagation_losses: int = 0
    propagation: str = "unit-disk"
    decision_cache_hits: int = 0
    decision_cache_misses: int = 0
    decision_cache_uncacheable: int = 0
    fault_hello_drops: int = 0
    fault_suppressed_sends: int = 0
    fault_blocked_receptions: int = 0
    fault_stale_discards: int = 0
    fault_delayed_deliveries: int = 0
    fault_noisy_positions: int = 0
    faults_armed: bool = False
    gossip_rounds: int = 0
    gossip_messages: int = 0
    gossip_merged: int = 0
    gossip_maydays: int = 0
    gossip_armed: bool = False
    telemetry: TelemetrySummary | None = None

    @classmethod
    def from_world(cls, world: NetworkWorld) -> "RunStats":
        """Collect every counter from a finished world, and the frozen
        summary of its collector when it is armed."""
        return cls(
            **world.channel.stats.as_dict(),
            **world.manager.cache_info(),
            **world.fault_stats(),
            **world.gossip_stats(),
            faults_armed=world.fault_injector is not None,
            gossip_armed=world.gossip is not None,
            propagation=world.propagation.name,
            telemetry=world.telemetry.summary() if world.telemetry.enabled else None,
        )

    def as_dict(self) -> dict[str, int]:
        """Legacy ``channel_stats`` dict shape (bit-compatible).

        ``fault_*`` keys appear only when a schedule was armed, exactly
        as the pre-typed dict behaved; ``propagation`` /
        ``propagation_losses`` only when the run used a non-unit-disk
        model; the telemetry summary is not a counter and is excluded.
        """
        out = {
            "hello_messages": self.hello_messages,
            "data_transmissions": self.data_transmissions,
            "sync_messages": self.sync_messages,
            "deliveries": self.deliveries,
            "hello_losses": self.hello_losses,
            "collisions": self.collisions,
            "decision_cache_hits": self.decision_cache_hits,
            "decision_cache_misses": self.decision_cache_misses,
            "decision_cache_uncacheable": self.decision_cache_uncacheable,
        }
        if self.propagation != "unit-disk":
            out["propagation"] = self.propagation
            out["propagation_losses"] = self.propagation_losses
        if self.faults_armed:
            out.update(
                fault_hello_drops=self.fault_hello_drops,
                fault_suppressed_sends=self.fault_suppressed_sends,
                fault_blocked_receptions=self.fault_blocked_receptions,
                fault_stale_discards=self.fault_stale_discards,
                fault_delayed_deliveries=self.fault_delayed_deliveries,
                fault_noisy_positions=self.fault_noisy_positions,
            )
        if self.gossip_armed:
            out.update(
                gossip_rounds=self.gossip_rounds,
                gossip_messages=self.gossip_messages,
                gossip_merged=self.gossip_merged,
                gossip_maydays=self.gossip_maydays,
            )
        return out

    def cache_info(self) -> dict[str, int]:
        """Decision-cache counters alone, ``cache_info()``-shaped."""
        return {
            "decision_cache_hits": self.decision_cache_hits,
            "decision_cache_misses": self.decision_cache_misses,
            "decision_cache_uncacheable": self.decision_cache_uncacheable,
        }


@dataclass(frozen=True)
class RunResult:
    """Per-sample series of one simulation run.

    ``stats`` is the typed :class:`RunStats` record — channel message
    counters, the manager's decision-cache counters, fault-injection
    counters, and (when the run was traced) the telemetry summary;
    ``stats.as_dict()`` gives the pre-1.1 free-form dict.
    """

    spec: ExperimentSpec
    seed: int
    delivery_ratios: np.ndarray
    mean_actual_ranges: np.ndarray
    mean_extended_ranges: np.ndarray
    mean_logical_degrees: np.ndarray
    mean_physical_degrees: np.ndarray
    strict_connected: np.ndarray
    stats: RunStats

    @property
    def connectivity_ratio(self) -> float:
        """Mean flood delivery ratio over all samples."""
        return float(self.delivery_ratios.mean())

    @property
    def mean_transmission_range(self) -> float:
        """Mean in-force transmission range over nodes and samples."""
        return float(self.mean_extended_ranges.mean())

    @property
    def mean_logical_degree(self) -> float:
        """Mean logical degree over nodes and samples."""
        return float(self.mean_logical_degrees.mean())

    @property
    def mean_physical_degree(self) -> float:
        """Mean physical (in-extended-range) degree over nodes and samples."""
        return float(self.mean_physical_degrees.mean())


def run_once(
    spec: ExperimentSpec,
    seed: int = 0,
    faults: "FaultSchedule | None" = None,
    telemetry: "Telemetry | None" = None,
) -> RunResult:
    """Execute one repetition of *spec* and collect all per-sample metrics.

    When a :class:`~repro.faults.FaultSchedule` is supplied its ``fault_*``
    counters land in ``result.stats`` alongside the channel's own.  Pass a
    :class:`~repro.telemetry.Telemetry` collector (or arm one ambiently
    with :func:`repro.telemetry.use_telemetry`) to trace the run; its
    frozen summary is attached as ``result.stats.telemetry``.
    """
    world = build_world(
        spec, seed, faults=faults,
        telemetry=current_telemetry() if telemetry is None else telemetry,
    )
    tel = world.telemetry
    cfg = spec.config
    seeds = SeedSequenceFactory(seed)
    source_rng = seeds.rng("flood-sources")
    sample_times = np.arange(
        cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate
    )
    tel.event(
        "run_start", t=0.0, seed=seed, label=spec.label,
        n_nodes=cfg.n_nodes, duration=cfg.duration,
    )
    delivery, act_rng, ext_rng, ldeg, pdeg, strict = [], [], [], [], [], []
    for t in sample_times:
        world.run_until(float(t))
        source = int(source_rng.integers(cfg.n_nodes))
        result = flood(world, source)
        tel.count("floods")
        tel.event(
            "flood", t=float(t), node=source,
            delivery_ratio=result.delivery_ratio,
        )
        delivery.append(result.delivery_ratio)
        snap = result.snapshot
        topo = sample_topology(snap)
        act_rng.append(topo.mean_actual_range)
        ext_rng.append(topo.mean_extended_range)
        ldeg.append(topo.mean_logical_degree)
        pdeg.append(topo.mean_physical_degree)
        strict.append(strictly_connected(snap, world.manager.physical_neighbor_mode))
    tel.event(
        "run_end", t=float(cfg.duration), seed=seed,
        samples=len(sample_times),
    )
    return RunResult(
        spec=spec,
        seed=seed,
        delivery_ratios=np.asarray(delivery),
        mean_actual_ranges=np.asarray(act_rng),
        mean_extended_ranges=np.asarray(ext_rng),
        mean_logical_degrees=np.asarray(ldeg),
        mean_physical_degrees=np.asarray(pdeg),
        strict_connected=np.asarray(strict, dtype=bool),
        stats=RunStats.from_world(world),
    )


@dataclass(frozen=True)
class AggregateResult:
    """Repetition-averaged metrics with 95 % confidence intervals."""

    spec: ExperimentSpec
    n_repetitions: int
    connectivity: Estimate
    transmission_range: Estimate
    logical_degree: Estimate
    physical_degree: Estimate
    strict_connectivity: Estimate

    def row(self) -> dict:
        """Flat dict row for tables / CSV."""
        return {
            "label": self.spec.describe(),
            "protocol": self.spec.protocol,
            "mechanism": self.spec.mechanism,
            "buffer": self.spec.buffer_width,
            "pn": self.spec.physical_neighbor_mode,
            "speed": self.spec.mean_speed,
            "connectivity": self.connectivity.mean,
            "connectivity_ci": self.connectivity.half_width,
            "tx_range": self.transmission_range.mean,
            "logical_degree": self.logical_degree.mean,
            "physical_degree": self.physical_degree.mean,
            "strict": self.strict_connectivity.mean,
        }


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1 = sequential)."""
    raw = os.environ.get("REPRO_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring invalid REPRO_WORKERS={raw!r} (not an integer); "
            "falling back to 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1


def aggregate_runs(
    spec: ExperimentSpec, runs: list[RunResult], n_repetitions: int | None = None
) -> AggregateResult:
    """Fold per-seed :class:`RunResult` rows into one :class:`AggregateResult`.

    *runs* must be in seed order for bit-stable confidence intervals.
    ``n_repetitions`` defaults to ``len(runs)`` (it can be fewer than
    requested when the orchestrator quarantined failing units).
    """
    if not runs:
        raise ValueError(f"no completed runs to aggregate for {spec.describe()!r}")
    return AggregateResult(
        spec=spec,
        n_repetitions=len(runs) if n_repetitions is None else n_repetitions,
        connectivity=mean_ci([r.connectivity_ratio for r in runs]),
        transmission_range=mean_ci([r.mean_transmission_range for r in runs]),
        logical_degree=mean_ci([r.mean_logical_degree for r in runs]),
        physical_degree=mean_ci([r.mean_physical_degree for r in runs]),
        strict_connectivity=mean_ci([float(r.strict_connected.mean()) for r in runs]),
    )


def collect_runs(
    specs: list[ExperimentSpec],
    repetitions: int = 5,
    base_seed: int = 1000,
    workers: int | None = None,
) -> list[list[RunResult]]:
    """Run *repetitions* seeds of every spec; one seed-ordered list each.

    The one route every sweep takes.  With an ambient
    :class:`~repro.orchestrator.OrchestrationContext` (see
    :func:`repro.orchestrator.use_orchestrator`) the batch runs through
    it: completed units are loaded from its store, failures are retried
    and quarantined per unit, fresh results are persisted incrementally,
    and *workers* is ignored in favour of the context's.  Otherwise a
    store-less context with *workers* (default ``REPRO_WORKERS``) runs
    the whole batch, then the first failing unit in (spec, seed) order
    raises :class:`~repro.util.errors.WorkUnitError` naming its (spec,
    seed).

    Seeds are ``base_seed + i`` per spec, and the whole batch fans out at
    once, so results are bit-identical to per-spec calls at any worker
    count.  An ambient telemetry collector receives every unit's
    summary — and, for units run in this process, its events.
    """
    from repro.orchestrator.runner import OrchestrationContext

    check_int_range("repetitions", repetitions, 1)
    orchestrator = current_orchestrator()
    if orchestrator is not None:
        return orchestrator.run_spec_batch(specs, repetitions, base_seed)
    workers = default_workers() if workers is None else max(1, int(workers))
    context = OrchestrationContext(workers=workers, retries=0)
    try:
        grouped = context.run_spec_batch(specs, repetitions, base_seed)
    except OrchestrationError:
        if not context.quarantined:
            raise
    if context.quarantined:
        # The first failure in (spec, seed) order, not completion order,
        # so the named unit does not depend on scheduling.
        labels = [spec.describe() for spec in specs]
        failed = min(
            context.quarantined, key=lambda q: (labels.index(q.label), q.seed)
        )
        prefix = str(WorkUnitError(failed.label, failed.seed, ""))
        raise WorkUnitError(
            failed.label, failed.seed, failed.error.removeprefix(prefix)
        )
    return grouped


def run_repetitions_many(
    specs: list[ExperimentSpec],
    repetitions: int = 5,
    base_seed: int = 1000,
    workers: int | None = None,
) -> list[AggregateResult]:
    """Run *repetitions* seeds of every spec and aggregate each.

    The whole batch — every ``(spec, seed)`` pair — is fanned out at
    once, so a multi-point sweep keeps all workers busy instead of
    barriering between sweep points; see :func:`collect_runs` for how it
    runs and how ambient orchestration / telemetry contexts are honoured.
    """
    grouped = collect_runs(specs, repetitions, base_seed, workers)
    return [aggregate_runs(spec, runs) for spec, runs in zip(specs, grouped)]


def run_repetitions(
    spec: ExperimentSpec,
    repetitions: int = 5,
    base_seed: int = 1000,
    workers: int | None = None,
) -> AggregateResult:
    """Run *repetitions* independent seeds of *spec* and aggregate.

    Parameters
    ----------
    workers:
        Processes to spread repetitions over; default from the
        ``REPRO_WORKERS`` environment variable (1 = in-process).  Results
        are identical regardless of worker count — seeds, not schedulers,
        define each run.

    See :func:`run_repetitions_many` for batching several specs into one
    fan-out and for how ambient orchestration / telemetry contexts are
    honoured.
    """
    return run_repetitions_many(
        [spec], repetitions=repetitions, base_seed=base_seed, workers=workers
    )[0]
