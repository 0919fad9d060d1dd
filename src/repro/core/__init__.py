"""The paper's contribution: views, consistency, removal framework, buffers."""

from repro.core.audit import Violation, audit_world
from repro.core.buffer_zone import (
    BufferZonePolicy,
    buffer_width,
    max_delay_bound,
    required_history_depth,
)
from repro.core.consistency import (
    BaselineConsistency,
    ConsistencyMechanism,
    ProactiveConsistency,
    ReactiveConsistency,
    ViewSynchronization,
    WeakConsistency,
    make_mechanism,
)
from repro.core.costs import CostModel, DistanceCost, EnergyCost, cost_key
from repro.core.framework import SelectionResult
from repro.core.manager import MobilitySensitiveTopologyControl, NodeDecision
from repro.core.tables import NeighborTable
from repro.core.views import (
    Hello,
    LocalView,
    MultiVersionView,
    link_cost,
    views_consistent,
    views_weakly_consistent,
)

__all__ = [
    "Violation",
    "audit_world",
    "Hello",
    "LocalView",
    "MultiVersionView",
    "link_cost",
    "views_consistent",
    "views_weakly_consistent",
    "CostModel",
    "DistanceCost",
    "EnergyCost",
    "cost_key",
    "SelectionResult",
    "NeighborTable",
    "ConsistencyMechanism",
    "BaselineConsistency",
    "ViewSynchronization",
    "ProactiveConsistency",
    "ReactiveConsistency",
    "WeakConsistency",
    "make_mechanism",
    "BufferZonePolicy",
    "buffer_width",
    "max_delay_bound",
    "required_history_depth",
    "MobilitySensitiveTopologyControl",
    "NodeDecision",
]
