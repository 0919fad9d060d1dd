"""Property-based bit-identity of the CSR pipeline.

Every edge set, degree, distance, reachability mask and metric value the
CSR structures produce must be *bit-identical* to a dense ``(n, n)``
construction.  Hypothesis searches quarter-metre-lattice point sets
(exactly representable coordinates, so comparison conventions — not
floating-point luck — are what the properties exercise), including
boundary-inclusive radii, and degenerate empty / singleton / collinear
deployments.  The world-level suite builds the dense reference of a
snapshot inside the test — from its positions, the world's standing
decisions and :func:`~repro.geometry.points.pairwise_distances` — and
checks every snapshot consumer against it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.geometry.csr as csr_mod
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import BaselineConsistency, ProactiveConsistency
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.geometry.csr import (
    CSRGraph,
    csr_bfs,
    csr_bfs_parents,
    csr_connected_components,
)
from repro.geometry.graphs import is_connected, largest_component_fraction
from repro.geometry.grid import GraphBackend, GridIndex
from repro.geometry.points import pairwise_distances
from repro.geometry.sparse import IncrementalNeighborhoods, neighborhood_csr
from repro.metrics.connectivity import (
    largest_effective_component,
    logical_topology_connected,
    original_topology_connected,
    pairwise_connectivity_ratio,
    strictly_connected,
)
from repro.metrics.interference import graph_interference, snapshot_interference
from repro.metrics.kconn import edge_connectivity, snapshot_edge_connectivity
from repro.metrics.links import LinkLifetimeTracker
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import directed_bfs, flood
from repro.sim.world import NetworkWorld, WorldSnapshot
from repro.util.errors import DenseMaterializationError
from repro.util.randomness import SeedSequenceFactory

# Quarter-metre lattice: squared distances are exact binary64 values.
_COORD = st.integers(min_value=0, max_value=4000).map(lambda k: k * 0.25)
_POINTS = st.lists(
    st.tuples(_COORD, _COORD), min_size=1, max_size=60, unique=True
).map(lambda rows: np.array(rows, dtype=np.float64))
_RADIUS = st.integers(min_value=1, max_value=1600).map(lambda k: k * 0.25)


def assert_csr_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert a.n == b.n
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    if a.data is None or b.data is None:
        assert a.data is None and b.data is None
    else:
        # bitwise, not approximate: both paths must run the same IEEE ops
        assert np.array_equal(a.data, b.data)


def dense_oracle(points: np.ndarray, radius: float) -> CSRGraph:
    """Reference CSR built from the full distance matrix."""
    n = points.shape[0]
    if n == 0:
        return CSRGraph.empty(0)
    d = pairwise_distances(points)
    mask = d <= radius
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return CSRGraph.from_edges(rows, cols, n, data=d[rows, cols], presorted=True)


# ---------------------------------------------------------------------- #
# neighborhood_csr: grid path vs dense oracle


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=_POINTS, radius=_RADIUS)
def test_neighborhood_csr_grid_matches_dense(points, radius):
    grid = neighborhood_csr(points, radius, mode="grid")
    dense = neighborhood_csr(points, radius, mode="dense")
    assert_csr_equal(grid, dense)
    assert_csr_equal(dense, dense_oracle(points, radius))
    # adjacency and degrees agree with the dense boolean matrix
    d = pairwise_distances(points)
    mask = d <= radius
    np.fill_diagonal(mask, False)
    assert np.array_equal(grid.to_dense(), mask)
    assert np.array_equal(grid.degrees(), mask.sum(axis=1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=_POINTS, data=st.data())
def test_neighborhood_csr_boundary_radius_inclusive(points, data):
    # Radius equal to an exact measured inter-point distance: the edge on
    # the boundary must appear on both paths (d <= r convention).
    i = data.draw(st.integers(0, len(points) - 1), label="i")
    j = data.draw(st.integers(0, len(points) - 1), label="j")
    radius = float(pairwise_distances(points)[i, j])
    if radius <= 0.0:
        return  # i == j: no boundary to test
    grid = neighborhood_csr(points, radius, mode="grid")
    dense = neighborhood_csr(points, radius, mode="dense")
    assert_csr_equal(grid, dense)
    hit = grid.contains_edges(
        np.array([i, j], dtype=np.intp), np.array([j, i], dtype=np.intp)
    )
    assert hit.all(), "boundary edge must be included in both directions"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=_POINTS, radius=_RADIUS)
def test_flood_reachability_csr_matches_dense_bfs(points, radius):
    graph = neighborhood_csr(points, radius, mode="grid")
    adj = graph.to_dense()
    for source in range(min(len(points), 4)):
        assert np.array_equal(
            csr_bfs(graph, source), directed_bfs(adj, source)
        )


_EDGES = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60, unique=True
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edges=_EDGES)
# 9 is queued before 7, so 10's first discoverer is 9, not the lower id 7
@example(edges=[(0, 3), (0, 5), (3, 9), (5, 7), (9, 10), (7, 10)])
def test_bfs_parents_follow_queue_order(edges):
    n = 20
    edges = sorted((u, v) for u, v in edges if u != v)
    graph = CSRGraph.from_edges(
        np.array([u for u, _ in edges], dtype=np.intp),
        np.array([v for _, v in edges], dtype=np.intp),
        n,
    )
    adj = graph.to_dense()
    parent = np.full(n, -1, dtype=np.intp)
    parent[0] = 0
    queue = [0]
    for u in queue:  # grows while iterating: a FIFO queue
        for v in np.flatnonzero(adj[u]):
            if parent[v] < 0:
                parent[v] = u
                queue.append(int(v))
    assert np.array_equal(csr_bfs_parents(graph, 0), parent)
    assert np.array_equal(csr_bfs(graph, 0), parent >= 0)


def test_zero_length_edges_are_edges():
    # Co-located nodes: their edge has length 0 and must still be crossed.
    points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    graph = neighborhood_csr(points, 0.0)
    assert graph.nnz == 2 and not graph.data.any()
    assert list(csr_bfs(graph, 0)) == [True, True, False]
    assert list(csr_bfs_parents(graph, 1)) == [1, 1, -1]
    labels = csr_connected_components(graph)
    assert labels[0] == labels[1] != labels[2]


# ---------------------------------------------------------------------- #
# degenerate deployments


def test_empty_point_set():
    empty = np.empty((0, 2), dtype=np.float64)
    graph = neighborhood_csr(empty, 10.0)
    assert graph.n == 0 and graph.nnz == 0
    assert IncrementalNeighborhoods().csr(empty, 10.0).nnz == 0


def test_singleton_point_set():
    one = np.array([[12.25, 7.5]])
    for mode in ("dense", "grid"):
        graph = neighborhood_csr(one, 5.0, mode=mode)
        assert graph.n == 1 and graph.nnz == 0
    index = GridIndex(one, cell_size=5.0)
    assert index.neighbor_pairs(5.0).nnz == 0


def test_collinear_points_boundary_spacing():
    # Equally spaced on a line, radius exactly one step: each node links
    # to its immediate neighbors only, inclusively.
    xs = np.arange(16, dtype=np.float64) * 25.0
    points = np.stack([xs, np.zeros_like(xs)], axis=1)
    for mode in ("dense", "grid"):
        graph = neighborhood_csr(points, 25.0, mode=mode)
        degrees = graph.degrees()
        assert degrees[0] == degrees[-1] == 1
        assert (degrees[1:-1] == 2).all()
        assert_csr_equal(graph, dense_oracle(points, 25.0))


# ---------------------------------------------------------------------- #
# incremental dirty-region rebuilds vs fresh builds

_MOVE = st.tuples(
    st.integers(min_value=0, max_value=59),          # node (mod n)
    st.integers(min_value=-200, max_value=200),      # dx on the lattice
    st.integers(min_value=-200, max_value=200),      # dy on the lattice
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    points=_POINTS,
    radius=_RADIUS,
    generations=st.lists(st.lists(_MOVE, max_size=6), min_size=1, max_size=5),
)
def test_incremental_bit_identical_to_fresh(points, radius, generations):
    builder = IncrementalNeighborhoods()
    pts = points.copy()
    # grid-mode backends put the builder in the incremental regime even at
    # hypothesis-sized n, exercising the splice path, not just rebuilds
    assert_csr_equal(
        builder.csr(pts, radius, backend=GraphBackend(pts, mode="grid")),
        neighborhood_csr(pts, radius, mode="dense"),
    )
    for moves in generations:
        pts = pts.copy()
        for node, dx, dy in moves:
            i = node % pts.shape[0]
            pts[i, 0] = abs(pts[i, 0] + dx * 0.25)
            pts[i, 1] = abs(pts[i, 1] + dy * 0.25)
        incremental = builder.csr(pts, radius, backend=GraphBackend(pts, mode="grid"))
        assert_csr_equal(incremental, neighborhood_csr(pts, radius, mode="dense"))
    assert builder.full_rebuilds + builder.incremental_updates == len(generations) + 1


def test_incremental_no_movement_reuses_graph():
    rng = np.random.default_rng(5)
    pts = np.floor(rng.uniform(0, 1000, size=(80, 2)) * 4) / 4
    builder = IncrementalNeighborhoods()
    first = builder.csr(pts, 100.0, backend=GraphBackend(pts, mode="grid"))
    again = builder.csr(pts.copy(), 100.0, backend=GraphBackend(pts, mode="grid"))
    assert again is first  # same object: nothing moved, nothing rebuilt
    assert builder.reused_rows == pts.shape[0]


# ---------------------------------------------------------------------- #
# world snapshots: the CSR snapshot vs a dense reference of the same instant


def _make_world(mechanism, speed: float, seed: int, n: int = 24) -> NetworkWorld:
    cfg = ScenarioConfig(
        n_nodes=n,
        area=Area(500.0, 500.0),
        normal_range=180.0,
        duration=8.0,
        sample_rate=2.0,
        warmup=2.0,
    )
    seeds = SeedSequenceFactory(seed)
    if speed == 0.0:
        mobility = StaticPlacement(cfg.area, n, cfg.duration, rng=seeds.rng("m"))
    else:
        mobility = RandomWaypoint(
            cfg.area, n, cfg.duration, mean_speed=speed, rng=seeds.rng("m")
        )
    manager = MobilitySensitiveTopologyControl(
        RngProtocol(),
        mechanism=mechanism,
        buffer_policy=BufferZonePolicy(width=30.0, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed)


def dense_reference(world: NetworkWorld, snap: WorldSnapshot) -> SimpleNamespace:
    """The snapshot's topologies as dense matrices, built from first
    principles: true positions, the world's standing decisions and
    ``pairwise_distances``."""
    n = snap.n_nodes
    dist = pairwise_distances(snap.positions)
    logical = np.zeros((n, n), dtype=bool)
    extended = np.zeros(n)
    for node in world.nodes:
        if node.decision is not None:
            logical[node.node_id, sorted(node.decision.logical_neighbors)] = True
            extended[node.node_id] = node.decision.extended_range
    in_range = dist <= extended[:, np.newaxis]
    np.fill_diagonal(in_range, False)
    original = dist <= world.config.normal_range
    np.fill_diagonal(original, False)

    def directed(pn: bool) -> np.ndarray:
        return in_range if pn else in_range & logical

    return SimpleNamespace(
        dist=dist,
        logical=logical,
        extended=extended,
        in_range=in_range,
        original=original,
        directed=directed,
        bidirectional=lambda pn: directed(pn) & directed(pn).T,
    )


@pytest.mark.parametrize("speed", [0.0, 10.0])
@pytest.mark.parametrize("seed", [3, 11])
def test_snapshot_sparse_matches_dense(speed, seed):
    world = _make_world(BaselineConsistency(), speed, seed)
    world.run_until(5.0)
    snap = world.snapshot()
    ref = dense_reference(world, snap)

    assert np.array_equal(snap.extended_ranges, ref.extended)
    assert np.array_equal(snap.logical_csr.to_dense(), ref.logical)
    assert np.array_equal(snap.in_range_csr().to_dense(), ref.in_range)
    for pn in (False, True):
        assert np.array_equal(
            snap.effective_directed_csr(pn).to_dense(), ref.directed(pn)
        )
        assert np.array_equal(
            snap.effective_bidirectional_csr(pn).to_dense(), ref.bidirectional(pn)
        )
    assert np.array_equal(snap.original_csr().to_dense(), ref.original)
    assert np.array_equal(snap.logical_degrees(), ref.logical.sum(axis=1))
    assert np.array_equal(snap.physical_degrees(), ref.in_range.sum(axis=1))
    # the edge lengths the CSR forms carry are the reference distances
    reach = snap.in_range_csr()
    assert np.array_equal(reach.data, ref.dist[reach.rows_array(), reach.indices])
    for u in range(0, snap.n_nodes, 5):
        for v in range(snap.n_nodes):
            assert snap.pair_distance(u, v) == ref.dist[u, v]


def _pairwise_ratio(directed: np.ndarray) -> float:
    """Ordered-pair reachability by one dense BFS per source."""
    n = directed.shape[0]
    pairs = sum(int(directed_bfs(directed, u).sum()) - 1 for u in range(n))
    return pairs / (n * (n - 1))


def _links(adj: np.ndarray) -> list[tuple[int, int]]:
    iu, iv = np.nonzero(np.triu(adj, k=1))
    return sorted(zip(iu.tolist(), iv.tolist()))


@pytest.mark.parametrize(
    "mechanism_factory", [BaselineConsistency, ProactiveConsistency]
)
@pytest.mark.parametrize("speed", [0.0, 10.0])
def test_metrics_sparse_match_dense(mechanism_factory, speed):
    world = _make_world(mechanism_factory(), speed, seed=7)
    world.run_until(5.0)
    snap = world.snapshot()
    ref = dense_reference(world, snap)
    effective = ref.bidirectional(False)
    expected = (
        is_connected(effective),
        largest_component_fraction(effective),
        _pairwise_ratio(ref.directed(False)),
        is_connected(ref.logical | ref.logical.T),
        is_connected(ref.original),
        graph_interference(effective, snap.positions, dist=ref.dist),
        edge_connectivity(effective),
        _links(effective),
        _links(ref.logical | ref.logical.T),
        _links(ref.original),
    )
    actual = (
        strictly_connected(snap),
        largest_effective_component(snap),
        pairwise_connectivity_ratio(snap),
        logical_topology_connected(snap),
        original_topology_connected(snap),
        snapshot_interference(snap),
        snapshot_edge_connectivity(snap),
        sorted(LinkLifetimeTracker("effective")._links_of(snap)),
        sorted(LinkLifetimeTracker("logical")._links_of(snap)),
        sorted(LinkLifetimeTracker("original")._links_of(snap)),
    )
    assert actual == expected


@pytest.mark.parametrize("speed", [0.0, 10.0])
def test_flood_sparse_matches_dense(speed):
    world = _make_world(BaselineConsistency(), speed, seed=9)
    world.run_until(5.0)
    for s in range(0, 24, 6):
        result = flood(world, s)
        expect = directed_bfs(dense_reference(world, result.snapshot).directed(False), s)
        assert np.array_equal(result.reached, expect)
        assert result.transmissions == int(expect.sum())


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_stretch_factors_sparse_match_dense(alpha):
    from repro.metrics.spanner import stretch_factors

    world = _make_world(BaselineConsistency(), 0.0, seed=5)
    world.run_until(5.0)
    snap = world.snapshot()
    ref = dense_reference(world, snap)
    dense = stretch_factors(
        ref.bidirectional(False),
        ref.original,
        snap.positions,
        alpha=alpha,
        dist=ref.dist,
    )
    sparse = stretch_factors(
        snap.effective_bidirectional_csr(),
        snap.original_csr(),
        snap.positions,
        alpha=alpha,
    )
    assert sparse == dense
    with pytest.raises(ValueError):
        stretch_factors(
            snap.effective_bidirectional_csr(),
            ref.original,
            snap.positions,
        )


# ---------------------------------------------------------------------- #
# the dense guard: CSRGraph.to_dense is the one (n, n) densification


def test_dense_materialization_guard(monkeypatch):
    world = _make_world(BaselineConsistency(), 0.0, seed=3)
    world.run_until(3.0)
    snap = world.snapshot()  # 24 nodes > limit of 8
    monkeypatch.setattr(csr_mod, "DENSE_NODE_LIMIT", 8)
    # above the limit every densification raises
    for csr in (
        snap.effective_directed_csr(),
        snap.logical_csr,
        snap.in_range_csr(),
        snap.effective_bidirectional_csr(),
        snap.original_csr(),
    ):
        with pytest.raises(DenseMaterializationError):
            csr.to_dense()
    # the CSR API keeps working above the limit
    assert snap.effective_directed_csr().n == 24
    assert snap.pair_distance(0, 1) >= 0.0


def test_dense_limit_not_hit_below_threshold(monkeypatch):
    world = _make_world(BaselineConsistency(), 0.0, seed=3)
    world.run_until(3.0)
    snap = world.snapshot()
    reach = snap.in_range_csr()
    # 24 nodes are below the default limit: the matrix materializes
    dense = reach.to_dense()
    assert dense.shape == (24, 24)
    rows, cols = np.nonzero(dense)
    assert np.array_equal(rows, reach.rows_array())
    assert np.array_equal(cols, reach.indices)
    # the limit is inclusive: exactly n nodes still densify
    monkeypatch.setattr(csr_mod, "DENSE_NODE_LIMIT", 24)
    assert np.array_equal(reach.to_dense(), dense)
    monkeypatch.setattr(csr_mod, "DENSE_NODE_LIMIT", 8)
    # the guard only fires on materialization: the matrix in hand stays
    assert dense.shape == (24, 24)
