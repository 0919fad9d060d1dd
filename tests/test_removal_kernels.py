"""Removal kernels against the reference predicates.

Every condition protocol decides with one array kernel,
``_batch_removable(ids, adj, cost_low, cost_high)``, over a padded block
of views.  On random blocks its verdicts must equal the per-graph
reference predicates of :mod:`removal_oracles` on every owner link:
for each condition and cost model, on single-version views (one bound
array passed twice) and on interval views (the members' distance
bounds), with generic positions and with positions on an integer
lattice, where distinct links cost exactly the same and only the
``(cost, min id, max id)`` order decides.  The block
:func:`~repro.core.views.distance_bounds` of ragged views, padded with
missing members and repeated newest positions, must equal on every
row the grouped ``reduceat`` reduction it replaced, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from removal_oracles import (
    LocalCostGraph,
    reduceat_distance_bounds,
    removable_of,
    removal_verdicts,
)
from repro.core.costs import EnergyCost
from repro.core.views import distance_bounds
from repro.protocols import (
    EnclosureProtocol,
    GabrielProtocol,
    MstProtocol,
    RngProtocol,
    SptProtocol,
)

#: every condition, under a distance and an energy cost model
CONDITIONS = {
    "rng": RngProtocol,
    "rng-energy2": lambda: RngProtocol(EnergyCost(2.0)),
    "spt2": lambda: SptProtocol(alpha=2.0),
    "spt-2.5+1": lambda: SptProtocol(alpha=2.5, const=1.0),
    "mst": MstProtocol,
    "mst-energy4": lambda: MstProtocol(EnergyCost(4.0)),
    "gabriel": GabrielProtocol,
    "enclosure": EnclosureProtocol,
    "enclosure-2+1": lambda: EnclosureProtocol(alpha=2.0, receiver_cost=1.0),
}

BLOCKS = 16
BLOCK_SIZE = 12


def _histories(rng, lattice: bool, depth: int):
    """Member IDs (owner first), per-member position counts and the
    stacked positions of one view."""
    m = int(rng.integers(1, 11))
    ids = rng.choice(60, size=m, replace=False)
    counts = rng.integers(1, depth + 1, size=m)
    if lattice:
        pts = 10.0 * rng.integers(0, 5, size=(int(counts.sum()), 2))
    else:
        pts = rng.random((int(counts.sum()), 2)) * 60.0
    return ids, counts, pts


def _history_block(histories):
    """``(B, W, K, 2)`` positions of a block of views given as ``(counts,
    pts)``: every history padded to the longest by repeating its newest
    position, missing members NaN."""
    width = max(counts.size for counts, _ in histories)
    depth = max(int(counts.max()) for counts, _ in histories)
    block = np.full((len(histories), width, depth, 2), np.nan)
    for b, (counts, pts) in enumerate(histories):
        end = 0
        for i, count in enumerate(counts.tolist()):
            held = pts[end : end + count]
            block[b, i, :count] = held
            block[b, i, count:] = held[-1]
            end += count
    return block


def _padded(graphs, single: bool):
    """The kernel's inputs for a block of graphs: ``-1`` / ``False`` /
    NaN padding, and one cost array twice on single-version graphs."""
    width = max(g.size for g in graphs)
    ids = np.full((len(graphs), width), -1, dtype=np.int64)
    adj = np.zeros((len(graphs), width, width), dtype=bool)
    low = np.full((len(graphs), width, width), np.nan)
    high = low if single else low.copy()
    for b, g in enumerate(graphs):
        m = g.size
        ids[b, :m] = g.ids
        adj[b, :m, :m] = g.adj
        low[b, :m, :m] = g.cost_low
        high[b, :m, :m] = g.cost_high
    return ids, adj, low, high


@pytest.mark.parametrize("layout", ["random", "lattice"])
@pytest.mark.parametrize("bounds", ["single", "interval"])
@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_kernel_equals_reference_predicate(name, bounds, layout):
    protocol = CONDITIONS[name]()
    predicate = removable_of(protocol)
    single = bounds == "single"
    rng = np.random.default_rng(
        [sorted(CONDITIONS).index(name), int(single), int(layout == "lattice")]
    )
    for _ in range(BLOCKS):
        views = [
            _histories(rng, layout == "lattice", 1 if single else 3)
            for _ in range(BLOCK_SIZE)
        ]
        block_low, block_high = distance_bounds(_history_block([v[1:] for v in views]))
        # One position per member: the one distance array is both bounds.
        assert (block_low is block_high) == single
        graphs = []
        for b, (ids, counts, pts) in enumerate(views):
            m = ids.size
            dist_low, dist_high = block_low[b, :m, :m], block_high[b, :m, :m]
            reference = reduceat_distance_bounds(counts, pts)
            np.testing.assert_array_equal(dist_low, reference[0])
            np.testing.assert_array_equal(dist_high, reference[1])
            # Missing members have no bounds to any other member of the row.
            off = ~np.eye(block_low.shape[1], dtype=bool)[m:]
            assert np.isnan(block_low[b, m:][off]).all()
            assert np.isnan(block_high[b, m:][off]).all()
            graphs.append(LocalCostGraph.from_distance_bounds(
                ids.tolist(), dist_low, dist_high,
                float(rng.choice([15.0, 30.0, 45.0, 200.0])), protocol.cost_model,
            ))
        got = protocol._batch_removable(*_padded(graphs, single))
        for b, graph in enumerate(graphs):
            want = removal_verdicts(graph, predicate)
            assert {v: bool(got[b, v]) for v in want} == want


@pytest.mark.parametrize("ids, kept", [([0, 1, 2], {1}), ([0, 2, 1], {1, 2})])
def test_mst_owner_upper_bound_equal_to_another_lower_bound(ids, kept):
    # cMax(0, u) == cMin(0, v) == 20 and cMax(u, v) < 20: the path
    # (0, u, v) witnesses against (0, v) iff (0, u)'s ID pair orders first.
    counts = np.array([1, 2, 2])
    pts = np.array([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (16.0, 12.0), (18.0, 13.5)])
    (result,) = MstProtocol().select_histories(
        np.array([ids]), _history_block([(counts, pts)]), np.array([100.0])
    )
    assert result.logical_neighbors == frozenset(kept)
    graph = LocalCostGraph.from_distance_bounds(
        ids, *reduceat_distance_bounds(counts, pts), 100.0, MstProtocol().cost_model
    )
    verdicts = removal_verdicts(graph, removable_of(MstProtocol()))
    assert {ids[v] for v, dropped in verdicts.items() if not dropped} == kept
