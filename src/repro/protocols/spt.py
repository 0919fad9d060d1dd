"""SPT-based (minimum-energy) topology control (Rodoplu & Meng 1999;
Li & Halpern 2001).

With the energy cost ``c = d**alpha`` the local shortest-path tree keeps a
direct link only when no relay path consumes less energy — removal
condition 2.  The paper simulates alpha = 2 (free space, "SPT-2") and
alpha = 4 (two-ray ground, "SPT-4"); larger alpha favours relaying, so
SPT-4 prunes far more aggressively than SPT-2.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import EnergyCost
from repro.core.framework import spt_removable_batch
from repro.protocols.base import ConditionProtocol, owner_path_costs, register_protocol

__all__ = ["SptProtocol", "Spt2Protocol", "Spt4Protocol"]


class SptProtocol(ConditionProtocol):
    """Minimum-energy / local shortest-path-tree protocol (condition 2).

    Single-version selection computes every owner's shortest-path costs
    of a padded batch of views at once (:meth:`select_batch`;
    :meth:`select` is a batch of one) and drops a link iff some path is
    strictly cheaper.  Condition 2 has no ID tie-break.  Conservative
    selection keeps :func:`repro.core.framework.spt_removable_batch`,
    which is also the reference the batched kernel is tested against.

    Parameters
    ----------
    alpha:
        Path-loss exponent of the energy model ``E = d**alpha``.
    const:
        Constant per-hop energy overhead (0 in the paper's simulation).
    """

    name = "spt"

    def __init__(self, alpha: float = 2.0, const: float = 0.0) -> None:
        super().__init__(EnergyCost(alpha=alpha, const=const))
        self.alpha = float(alpha)

    @property
    def _removable(self):
        return spt_removable_batch

    def _batch_removable(self, ids, dist, adj, cost):
        return owner_path_costs(adj, cost, np.add) < cost[:, 0, :]

    def __repr__(self) -> str:
        return f"SptProtocol(alpha={self.alpha:g})"


@register_protocol
class Spt2Protocol(SptProtocol):
    """SPT with the free-space exponent (alpha = 2) — the paper's "SPT-2"."""

    name = "spt2"

    def __init__(self) -> None:
        super().__init__(alpha=2.0)


@register_protocol
class Spt4Protocol(SptProtocol):
    """SPT with the two-ray-ground exponent (alpha = 4) — the paper's "SPT-4"."""

    name = "spt4"

    def __init__(self) -> None:
        super().__init__(alpha=4.0)
