"""Unicast routing over maintained topologies: the payoff experiment.

Mobility-tolerant management exists so that "a normal routing protocol can
be used and a short delay can be expected" (Section 2.2).  This study runs
that normal protocol — geographic GFG/GPSR — over the effective topology
each mechanism maintains, and reports what an application actually sees:

- unicast delivery ratio,
- hop-count stretch versus the shortest path in the snapshot's *original*
  (normal-range) topology,
- how often perimeter recovery had to engage (a void/quality indicator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import shortest_path

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.routing.geographic import GeographicRouter
from repro.util.randomness import SeedSequenceFactory
from repro.util.validate import check_int_range

__all__ = ["UnicastStudyResult", "run_unicast_study"]


@dataclass(frozen=True)
class UnicastStudyResult:
    """Aggregated unicast routing outcomes for one configuration.

    Attributes
    ----------
    spec:
        The configuration routed over.
    attempts:
        Number of (snapshot, source, destination) routing attempts.
    delivery_ratio:
        Delivered / attempted.
    mean_hop_stretch:
        Mean (GPSR hops) / (original-topology shortest hops) over delivered
        packets whose endpoints were connected in the original topology.
    perimeter_fraction:
        Fraction of delivered packets that needed perimeter recovery.
    """

    spec: ExperimentSpec
    attempts: int
    delivery_ratio: float
    mean_hop_stretch: float
    perimeter_fraction: float

    def row(self) -> dict:
        """Flat dict row for tables."""
        return {
            "configuration": self.spec.describe(),
            "attempts": self.attempts,
            "delivery": self.delivery_ratio,
            "hop_stretch": self.mean_hop_stretch,
            "perimeter_frac": self.perimeter_fraction,
        }


def run_unicast_study(
    spec: ExperimentSpec,
    seed: int = 0,
    n_snapshots: int = 4,
    pairs_per_snapshot: int = 10,
) -> UnicastStudyResult:
    """Route random unicast pairs over snapshots of one simulated run."""
    check_int_range("n_snapshots", n_snapshots, 1)
    check_int_range("pairs_per_snapshot", pairs_per_snapshot, 1)
    world = build_world(spec, seed)
    cfg = spec.config
    rng = SeedSequenceFactory(seed).rng("unicast-pairs")
    times = np.linspace(cfg.warmup + 1.0, cfg.duration, n_snapshots)
    attempts = delivered = perimeter_used = 0
    stretches: list[float] = []
    for t in times:
        world.run_until(float(t))
        snap = world.snapshot()
        effective = snap.effective_bidirectional_csr(
            world.manager.physical_neighbor_mode
        )
        router = GeographicRouter(effective.to_dense(), snap.positions)
        original_hops = shortest_path(
            snap.original_csr().to_scipy(), method="D", directed=False,
            unweighted=True,
        )
        for _ in range(pairs_per_snapshot):
            s, d = rng.choice(cfg.n_nodes, size=2, replace=False)
            attempts += 1
            result = router.route(int(s), int(d))
            if not result.delivered:
                continue
            delivered += 1
            if result.perimeter_hops > 0:
                perimeter_used += 1
            base = original_hops[s, d]
            if np.isfinite(base) and base >= 1:
                stretches.append(result.hops / base)
    return UnicastStudyResult(
        spec=spec,
        attempts=attempts,
        delivery_ratio=delivered / attempts if attempts else 0.0,
        mean_hop_stretch=float(np.mean(stretches)) if stretches else float("nan"),
        perimeter_fraction=perimeter_used / delivered if delivered else 0.0,
    )
