"""Network-lifetime study: the paper's energy motivation, quantified.

Topology control exists "to reduce energy consumption and signal
interference" (Section 1).  This study turns the range savings of Table 1
into the operational quantity deployments care about — *network lifetime*
under a per-node energy budget:

- every node pays the Hello cost each interval (Hellos go out at the
  normal range, for every protocol — the paper's control plane);
- every flood forwarder pays the data cost at its current extended range;
- a node whose budget hits zero dies; lifetime metrics follow the
  fraction of nodes still alive and the time of first death.

Because Hello costs are identical across protocols, differences isolate
exactly what the protocols control: the data-plane transmission range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.metrics.energy import EnergyModel
from repro.sim.flood import flood
from repro.util.randomness import SeedSequenceFactory
from repro.util.validate import check_positive

__all__ = ["LifetimeResult", "run_lifetime_study"]


@dataclass(frozen=True)
class LifetimeResult:
    """Energy-drain outcome of one configuration.

    Attributes
    ----------
    spec:
        Configuration simulated.
    budget:
        Per-node energy budget (arbitrary units matching the model).
    first_death:
        Time the first node ran out (inf if none did).
    alive_fraction_end:
        Fraction of nodes still alive at the end of the run.
    mean_data_energy_per_step:
        Mean per-probe data-plane energy (the protocol-controlled part).
    """

    spec: ExperimentSpec
    budget: float
    first_death: float
    alive_fraction_end: float
    mean_data_energy_per_step: float

    def row(self) -> dict:
        """Flat dict row for tables."""
        return {
            "configuration": self.spec.describe(),
            "first_death_s": self.first_death,
            "alive_at_end": self.alive_fraction_end,
            "data_energy_per_probe": self.mean_data_energy_per_step,
        }


def run_lifetime_study(
    spec: ExperimentSpec,
    budget: float,
    seed: int = 0,
    energy_model: EnergyModel | None = None,
    hello_cost_fraction: float = 1.0,
) -> LifetimeResult:
    """Drain per-node budgets over one simulated run.

    Parameters
    ----------
    budget:
        Per-node energy budget in the model's units.
    energy_model:
        Transmit-cost model (default alpha = 2, no overhead).
    hello_cost_fraction:
        Hello transmissions cost this fraction of a data transmission at
        the same range (control packets are short).
    """
    check_positive("budget", budget)
    model = energy_model or EnergyModel()
    world = build_world(spec, seed)
    cfg = spec.config
    rng = SeedSequenceFactory(seed).rng("lifetime-sources")
    n = cfg.n_nodes
    remaining = np.full(n, float(budget))
    death_time = np.full(n, np.inf)
    hello_cost = hello_cost_fraction * float(model.per_message(cfg.normal_range))
    last_hello_counts = np.zeros(n)
    data_energies: list[float] = []

    sample_times = np.arange(cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate)
    for t in sample_times:
        world.run_until(float(t))
        # Hello drain since the last sample.
        counts = np.array([node.hellos_sent for node in world.nodes], dtype=float)
        alive = remaining > 0
        remaining -= (counts - last_hello_counts) * hello_cost * alive
        last_hello_counts = counts
        # One data probe: forwarders pay at their extended range.
        probe = flood(world, source=int(rng.integers(n)))
        costs = np.where(
            probe.reached, model.per_message(probe.snapshot.extended_ranges), 0.0
        )
        data_energies.append(float(costs[alive].sum()))
        remaining -= costs * alive
        newly_dead = (remaining <= 0) & np.isinf(death_time)
        death_time[newly_dead] = float(t)
    return LifetimeResult(
        spec=spec,
        budget=budget,
        first_death=float(death_time.min(initial=np.inf)),
        alive_fraction_end=float((remaining > 0).mean()),
        mean_data_energy_per_step=float(np.mean(data_energies)) if data_energies else 0.0,
    )
