"""Consistency-vs-overhead study: what each mechanism buys and costs.

The paper argues qualitatively that stronger consistency costs more
control traffic (Section 5's discussion); this study makes the trade
quantitative across the full mechanism axis — baseline, view-sync,
proactive, reactive and the anti-entropy gossip layer — by running every
mechanism over the same seeds and reporting consistency benefit
(connectivity / strict-connectivity fractions) beside per-node, per-second
message costs: the Hello stream, the reactive scheme's sync floods, and
gossip's epidemic digest/delta/push traffic.

The result duck-types the CLI figure protocol (``figure_id`` / ``rows()``
/ ``format()`` with an empty ``series``), so ``repro overhead`` and
``repro all`` render and CSV it like any other figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiment import ExperimentSpec, RunResult, collect_runs
from repro.analysis.report import format_table
from repro.analysis.scales import QUICK, Scale

__all__ = ["STUDY_MECHANISMS", "OverheadStudyResult", "generate_overhead_study"]

#: Mechanism axis of the study, weakest consistency first.
STUDY_MECHANISMS: tuple[str, ...] = (
    "baseline",
    "view-sync",
    "proactive",
    "reactive",
    "gossip",
)


@dataclass(frozen=True)
class OverheadStudyResult:
    """Mechanism-by-mechanism consistency and control-cost table."""

    figure_id: str
    title: str
    scale: Scale
    mean_speed: float
    table: tuple[dict, ...]
    #: No curves — the CLI skips chart rendering on a falsy series.
    series: tuple = ()

    def rows(self) -> list[dict]:
        """Flat rows for tables and CSV."""
        return [dict(row) for row in self.table]

    def format(self) -> str:
        """ASCII rendering."""
        return format_table(
            self.rows(),
            title=f"{self.figure_id} — {self.title} (scale={self.scale.name})",
        )


def _fold(
    spec: ExperimentSpec, runs: list[RunResult]
) -> dict:
    """Average one mechanism's repetitions into a study row."""
    cfg = spec.config
    node_seconds = max(cfg.n_nodes * cfg.duration, 1e-9)
    k = len(runs)

    def rate(count_of) -> float:
        return sum(count_of(r.stats) for r in runs) / k / node_seconds

    hello = rate(lambda s: s.hello_messages)
    sync = rate(lambda s: s.sync_messages)
    gossip = rate(lambda s: s.gossip_messages)
    return {
        "mechanism": spec.mechanism,
        "connectivity": sum(r.connectivity_ratio for r in runs) / k,
        "strict": sum(float(r.strict_connected.mean()) for r in runs) / k,
        "hello_per_node_s": hello,
        "sync_per_node_s": sync,
        "gossip_per_node_s": gossip,
        "control_per_node_s": hello + sync + gossip,
    }


def generate_overhead_study(
    scale: Scale = QUICK,
    base_seed: int = 7000,
    workers: int | None = None,
    mean_speed: float = 20.0,
    buffer_width: float = 10.0,
) -> OverheadStudyResult:
    """Run every mechanism over the scale's repetitions and tabulate.

    All mechanisms share the same protocol (``rng``), buffer width, speed
    and seed set, so the rows differ *only* in the consistency mechanism —
    the message-rate columns are directly comparable.  Repetitions run
    through :func:`~repro.analysis.experiment.collect_runs` exactly like
    the other figures (``workers`` defaulting to ``REPRO_WORKERS``);
    results are bit-identical at any worker count because seeds, not
    schedulers, define each run.
    """
    specs = [
        ExperimentSpec(
            protocol="rng",
            mechanism=mechanism,
            buffer_width=buffer_width,
            mean_speed=mean_speed,
            config=scale.config(),
        )
        for mechanism in STUDY_MECHANISMS
    ]
    grouped = collect_runs(specs, scale.repetitions, base_seed, workers)
    table = tuple(_fold(spec, runs) for spec, runs in zip(specs, grouped))
    return OverheadStudyResult(
        figure_id="overhead",
        title="consistency benefit vs control-message overhead",
        scale=scale,
        mean_speed=mean_speed,
        table=table,
    )
