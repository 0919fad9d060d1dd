"""Batched selection against the per-owner oracle route.

Every protocol selects for a padded block of single-version views at
once (:meth:`~repro.protocols.base.TopologyControlProtocol.select_batch`).
For the removal-condition protocols, each result must equal
:func:`apply_removal_condition` over
:meth:`LocalCostGraph.from_local_view` with the protocol's predicate:
:func:`spt_removable_batch` (one Dijkstra), :func:`mst_removable_batch`
(one Prim pass over the rank matrix), :func:`gabriel_removable` and
:func:`enclosure_removable`.  Ragged batches cover empty and one-member
views, duplicate and collinear positions, and exact equal-cost links,
which only the ID pair can order and which send MST rows to the
rank-based fallback.  Every registered protocol, and a composite, must
give a ragged block the results of its rows as batches of one.  Twin
worlds then check the SPT and MST array kernels against the per-row
predicate over whole runs.

Weak consistency selects from arrays too: every live neighbor's retained
positions, gathered straight from the store
(:func:`~repro.core.tables.history_members`).  On random tables (depths
1, 2, 3 and 5, wrapped rings, expired and pruned senders, private and
shared stores) its decision must equal the protocol's
``select_conservative`` on the table's Hello-built ``multi_view``, for
every protocol with a conservative mode.  So must one selection over
the gather of more owners than a block holds, young rings and empty
views among them, with one protocol call per padded block.  A weak
world must build no Hello beyond the ones its nodes emit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gather, interval_graph, select_one
from neighbor_oracles import count_hello_builds, multi_view
from repro.analysis.experiment import ExperimentSpec, RunStats, build_world
from repro.core.consistency import _SELECT_BLOCK, WeakConsistency
from repro.core.costs import EnergyCost
from removal_oracles import (
    LocalCostGraph,
    apply_removal_condition,
    enclosure_removable,
    gabriel_removable,
    mst_removable_batch,
    oracle_batch_removable,
    removable_of,
    spt_removable_batch,
)
from repro.core.framework import SelectionResult
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable, history_members
from repro.core.views import Hello, LocalView
from repro.mobility.base import Area
from repro.protocols import (
    MstProtocol,
    SptProtocol,
    available_protocols,
    make_protocol,
)
from repro.protocols.base import owner_path_costs
from repro.protocols.composite import CompositeProtocol
from repro.protocols.none import NoTopologyControl
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood

#: name -> (protocol factory, oracle predicate)
PROTOCOLS = {
    "spt2": (lambda: make_protocol("spt2"), spt_removable_batch),
    "spt4": (lambda: make_protocol("spt4"), spt_removable_batch),
    "spt-2.5+1": (lambda: SptProtocol(alpha=2.5, const=1.0), spt_removable_batch),
    "mst": (lambda: make_protocol("mst"), mst_removable_batch),
    "mst-energy4": (lambda: MstProtocol(EnergyCost(4.0)), mst_removable_batch),
    "gabriel": (lambda: make_protocol("gabriel"), gabriel_removable),
    "enclosure": (lambda: make_protocol("enclosure"), enclosure_removable),
}


def _hello(sender: int, xy) -> Hello:
    return Hello(
        sender=sender, version=1, position=(float(xy[0]), float(xy[1])),
        sent_at=0.0, timestamp=0.0,
    )


def _view(ids: list[int], pts: list, normal_range: float) -> LocalView:
    return LocalView(
        owner=ids[0],
        own_hello=_hello(ids[0], pts[0]),
        neighbor_hellos={i: _hello(i, p) for i, p in zip(ids[1:], pts[1:])},
        normal_range=normal_range,
        sampled_at=0.0,
    )


def _oracle_route(protocol, removable, view: LocalView):
    graph = LocalCostGraph.from_local_view(view, protocol.cost_model)
    return apply_removal_condition(graph, removable)


def _oracle(name: str, view: LocalView):
    factory, removable = PROTOCOLS[name]
    return _oracle_route(factory(), removable, view)


def _padded(views: list[tuple[list[int], list, float]]):
    width = max(len(ids) for ids, _, _ in views)
    ids = np.full((len(views), width), -1, dtype=np.int64)
    pts = np.full((len(views), width, 2), np.nan)
    for b, (vids, vpts, _) in enumerate(views):
        ids[b, : len(vids)] = vids
        pts[b, : len(vids)] = vpts
    return ids, pts, np.array([r for _, _, r in views])


# A coarse lattice makes duplicates, collinear triples and exact cost
# ties common; the fine coordinates cover generic positions.
coordinate = st.one_of(
    st.integers(0, 4).map(lambda k: 10.0 * k),
    st.floats(0.0, 60.0, allow_nan=False, width=32),
)
member_view = st.integers(1, 10).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(0, 40), min_size=m, max_size=m, unique=True),
        st.lists(st.tuples(coordinate, coordinate), min_size=m, max_size=m),
        st.sampled_from([15.0, 30.0, 45.0, 200.0]),
    )
)

names = pytest.mark.parametrize("name", sorted(PROTOCOLS))


class TestBatchedConditions:
    @names
    @settings(max_examples=150, deadline=None)
    @given(views=st.lists(member_view, min_size=1, max_size=6))
    def test_ragged_batch_matches_per_owner_oracle(self, name, views):
        got = PROTOCOLS[name][0]().select_batch(*_padded(views))
        assert len(got) == len(views)
        for (ids, pts, radius), result in zip(views, got):
            assert result == _oracle(name, _view(ids, pts, radius))

    @pytest.mark.parametrize("name", [*available_protocols(), "rng&spt2"])
    @settings(max_examples=50, deadline=None)
    @given(views=st.lists(member_view, min_size=1, max_size=6))
    def test_ragged_block_equals_batches_of_one(self, name, views):
        # Padding must not leak into any row: a row decides the same
        # whatever the width of its block and whoever shares it.
        protocol = make_protocol(name)
        got = protocol.select_batch(*_padded(views))
        assert got == [protocol.select_batch(*_padded([view]))[0] for view in views]

    @names
    @settings(max_examples=60, deadline=None)
    @given(view=member_view)
    def test_select_is_a_batch_of_one(self, name, view):
        protocol = PROTOCOLS[name][0]()
        ids, pts, radius = view
        (batched,) = protocol.select_batch(*_padded([view]))
        assert protocol.select(_view(ids, pts, radius)) == batched

    @names
    def test_empty_and_one_member_views(self, name):
        views = [([7], [(0.0, 0.0)], 50.0), ([3, 9], [(0.0, 0.0), (10.0, 0.0)], 50.0)]
        empty, single = PROTOCOLS[name][0]().select_batch(*_padded(views))
        assert empty.logical_neighbors == frozenset() and empty.actual_range == 0.0
        assert single.logical_neighbors == frozenset({9})
        assert single.actual_range == 10.0

    @names
    def test_duplicate_and_collinear_positions(self, name):
        views = [
            ([4, 2, 8, 6], [(0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (5.0, 0.0)], 50.0),
            ([1, 2, 3, 4], [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)], 50.0),
        ]
        got = PROTOCOLS[name][0]().select_batch(*_padded(views))
        assert got == [_oracle(name, _view(*view)) for view in views]

    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, 2, 1], [5, 1, 2], [1, 5, 0]])
    def test_mst_equal_cost_links_are_ordered_by_id_pair(self, ids):
        # c(o, v) == c(o, w) == 10 and c(v, w) < 10: the float bottleneck
        # test keeps both owner links, the total order drops the one whose
        # ID pair orders last.
        pts = [(0.0, 0.0), (6.0, 8.0), (10.0, 0.0)]
        protocol = MstProtocol()
        (result,) = protocol.select_batch(*_padded([(ids, pts, 50.0)]))
        assert result == _oracle("mst", _view(ids, pts, 50.0))
        o, v, w = ids
        kept = v if (min(o, v), max(o, v)) < (min(o, w), max(o, w)) else w
        assert result.logical_neighbors == frozenset({kept})

    def test_mst_tie_fallback_leaves_other_rows_alone(self):
        tied = ([0, 1, 2], [(0.0, 0.0), (6.0, 8.0), (10.0, 0.0)], 50.0)
        generic = ([3, 4, 5, 6], [(0.0, 0.0), (9.0, 1.0), (17.0, 3.0), (4.0, 13.0)], 50.0)
        got = MstProtocol().select_batch(*_padded([generic, tied, generic]))
        assert got == [_oracle("mst", _view(*view)) for view in (generic, tied, generic)]

    def test_spt_equal_costs_keep_the_link(self):
        # The relay path costs exactly the direct link: condition 2 is
        # strict and has no ID tie-break, so the direct link stays.
        view = ([0, 1, 2], [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)], 50.0)
        protocol = SptProtocol(alpha=1.0)
        (result,) = protocol.select_batch(*_padded([view]))
        assert result.logical_neighbors == frozenset({1, 2})
        assert result == _oracle_route(protocol, spt_removable_batch, _view(*view))

    def test_owner_path_costs_match_dijkstra(self):
        rng = np.random.default_rng(5)
        pts = rng.random((12, 2)) * 80.0
        view = _view(list(range(12)), pts.tolist(), 40.0)
        graph = LocalCostGraph.from_local_view(view, EnergyCost(2.0))
        d = owner_path_costs(graph.adj[np.newaxis], graph.cost_low[np.newaxis], np.add)[0]
        verdicts = spt_removable_batch(graph)
        assert {j: bool(d[j] < graph.cost_low[0, j]) for j in verdicts} == verdicts


# --------------------------------------------------------------------- #
# twin worlds: array kernels vs the per-row predicate

SPEC_CONFIG = ScenarioConfig(
    n_nodes=16,
    area=Area(math.sqrt(16 * 8100.0), math.sqrt(16 * 8100.0)),
    duration=3.0,
    warmup=1.0,
    sample_rate=4.0,
)


def _drive(protocol, mechanism):
    spec = ExperimentSpec(
        protocol=protocol, mechanism=mechanism, buffer_width=10.0,
        mean_speed=20.0, config=SPEC_CONFIG,
    )
    world = build_world(spec, seed=3)
    sources = np.random.default_rng(3)
    trace = []
    for t in np.arange(1.0, 3.0 + 1e-9, 0.5):
        world.run_until(float(t))
        world.redecide_all()
        flood(world, int(sources.integers(16)))
        trace.append([node.decision for node in world.nodes])
    return trace, RunStats.from_world(world).as_dict()


@pytest.mark.parametrize("mechanism", ["baseline", "view-sync", "proactive", "gossip"])
@pytest.mark.parametrize("protocol", ["mst", "spt4"])
def test_batched_world_matches_view_route(protocol, mechanism, monkeypatch):
    batched = _drive(protocol, mechanism)
    cls = type(make_protocol(protocol))
    monkeypatch.setattr(cls, "_batch_removable", oracle_batch_removable)
    assert _drive(protocol, mechanism) == batched


# --------------------------------------------------------------------- #
# weak consistency: the history gather against the multi-version view

#: every protocol with a conservative mode, and one non-distance cost model
CONSERVATIVE = {
    **{
        name: (lambda name=name: make_protocol(name))
        for name in [*available_protocols(), "rng&spt2"]
        if make_protocol(name).supports_conservative
    },
    "mst-energy4": PROTOCOLS["mst-energy4"][0],
}

#: non-zero, so a private store's row differs from its owner
OWNER = 6
#: a second receiver of every Hello in the shared store
OTHER = 10
EXPIRY = 1.0

# One operation on the owner's table: a Hello (sender, version, x, y), an
# own advertisement at (x, y), or a prune.  Time advances by 0.3 s per
# operation, so a prune drops senders silent for more than three of them.
weak_hello_op = st.tuples(
    st.just("hello"),
    st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9]),
    st.integers(0, 4),
    coordinate,
    coordinate,
)
weak_own_op = st.tuples(st.just("own"), coordinate, coordinate)
weak_operations = st.lists(
    st.one_of(weak_hello_op, weak_hello_op, weak_hello_op, weak_own_op,
              st.tuples(st.just("prune"))),
    max_size=40,
)


def _weak_tables(ops, k: int, normal_range: float):
    """``(private-store table, shared-store table, final time)`` after
    *ops*; in the shared store a second receiver hears every Hello, so
    the owner's slots interleave with another row's."""
    state = NeighborState(OTHER + 1, history_depth=k)
    private = NeighborTable(OWNER, normal_range, history_depth=k, expiry=EXPIRY)
    shared = NeighborTable(
        OWNER, normal_range, history_depth=k, expiry=EXPIRY, state=state
    )
    t = 0.0
    for op in ops:
        t += 0.3
        if op[0] == "hello":
            _, sender, version, x, y = op
            hello = Hello(sender, version, (x, y), t, t + 0.001)
            private.record_hello(hello)
            state.record_batch(hello, np.array([OWNER, OTHER]))
        elif op[0] == "own":
            own = Hello(OWNER, 1, (op[1], op[2]), t, t)
            private.record_own(own)
            shared.record_own(own)
        else:
            private.prune(t)
            shared.prune(t)
    return private, shared, t


#: owners of the many-owner gather, more than one selection block
MANY_OWNERS = _SELECT_BLOCK + 8
#: owners that hear no one, so their views have no members
DEAF = 3


def _many_weak_tables(seed: int, k: int, normal_range: float):
    """``(tables, final time)`` of :data:`MANY_OWNERS` owners on one
    store after random Hellos, each heard by a random third of the
    owners; owners advertise now and then, so own rings are young,
    full or wrapped.  The first :data:`DEAF` owners hear no one, and a
    last sender is heard once by all others, so its ring holds one
    position."""
    rng = np.random.default_rng(seed)
    n = MANY_OWNERS + 4
    state = NeighborState(n, history_depth=k)
    tables = [
        NeighborTable(owner, normal_range, history_depth=k, expiry=EXPIRY, state=state)
        for owner in range(MANY_OWNERS)
    ]
    owners = np.arange(DEAF, MANY_OWNERS)
    versions = [0] * n
    t = 0.0
    for sender in [*rng.integers(n - 1, size=60).tolist(), n - 1]:
        t += 0.03
        versions[sender] += 1
        xy = tuple(rng.uniform(-40.0, 40.0, size=2).tolist())
        hello = Hello(sender, versions[sender], xy, t, t + 0.001)
        heard = owners if sender == n - 1 else owners[rng.random(owners.size) < 0.3]
        state.record_batch(hello, heard[heard != sender])
        if sender < MANY_OWNERS and rng.random() < 0.5:
            tables[sender].record_own(hello)
    return tables, t


class _BlockCounter:
    """Stands in for a protocol and records the rows of each
    ``select_histories`` call."""

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.rows: list[int] = []

    def select_histories(self, ids, pts, normal_range):
        self.rows.append(ids.shape[0])
        return self.protocol.select_histories(ids, pts, normal_range)


def _conservative_oracle(protocol, view):
    """The conservative selection of *view* as the Hello-built route made
    it: condition predicates on the interval graph, ``none`` on the
    newest Hellos, a composite's farthest retained Hello pair."""
    if isinstance(protocol, NoTopologyControl):
        return protocol.select(view.to_local_view())
    if isinstance(protocol, CompositeProtocol):
        survivors = frozenset.intersection(
            *(_conservative_oracle(p, view).logical_neighbors for p in protocol.protocols)
        )
        reach = max(
            (
                own.distance_to(hello)
                for v in survivors
                for own in view.hellos_of(view.owner)
                for hello in view.hellos_of(v)
            ),
            default=0.0,
        )
        return SelectionResult(view.owner, survivors, reach)
    return apply_removal_condition(
        interval_graph(view, protocol.cost_model), removable_of(protocol)
    )


def _weak_equals_multi_view(protocol, table, now, current):
    got = select_one(WeakConsistency(), protocol, table, now, current.position)
    view = multi_view(table, now, own_hello=current)
    assert got == protocol.select_conservative(view)
    assert got == _conservative_oracle(protocol, view)


class TestWeakFromHistories:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=weak_operations,
        k=st.sampled_from([1, 2, 3, 5]),
        later=st.sampled_from([0.0, 0.5, 2.0]),
    )
    def test_gather_matches_multi_view(self, ops, k, later):
        *tables, t = _weak_tables(ops, k, 30.0)
        gathered = []
        for table in tables:
            counts, ids, fills, xy = history_members([table], t + later)
            view = multi_view(table, t + later, own_hello=Hello(OWNER, 1, (0, 0), t, t))
            assert counts.tolist() == [ids.size] and fills.sum() == xy.shape[0]
            assert ids.tolist() == list(view.neighbor_hellos)
            ends = np.cumsum(fills)
            for nid, end, fill in zip(ids.tolist(), ends, fills):
                assert [tuple(p) for p in xy[end - fill : end].tolist()] == [
                    h.position for h in view.neighbor_hellos[nid]
                ]
            gathered.append((ids.tolist(), fills.tolist(), xy.tolist()))
        assert gathered[0] == gathered[1]

    @pytest.mark.parametrize("name", sorted(CONSERVATIVE))
    @settings(max_examples=60, deadline=None)
    @given(
        ops=weak_operations,
        k=st.sampled_from([1, 2, 3, 5]),
        later=st.sampled_from([0.0, 0.5, 2.0]),
        normal_range=st.sampled_from([15.0, 30.0, 45.0, 200.0]),
        current=st.tuples(coordinate, coordinate),
        seed=st.integers(0, 2**16),
    )
    def test_weak_decision_equals_select_conservative(
        self, name, ops, k, later, normal_range, current, seed
    ):
        protocol = CONSERVATIVE[name]()
        *tables, t = _weak_tables(ops, k, normal_range)
        hello = Hello(OWNER, 9, current, t + later, t + later)
        for table in tables:
            _weak_equals_multi_view(protocol, table, t + later, hello)
        # One selection over many owners' gather, in padded blocks.
        tables, t = _many_weak_tables(seed, k, normal_range)
        now = t + later
        hellos = [
            Hello(table.owner, 9, (current[0] + table.owner, current[1]), now, now)
            for table in tables
        ]
        mechanism = WeakConsistency()
        views, errors = gather(mechanism, tables, now, [h.position for h in hellos])
        assert not errors and (views.counts[:DEAF] == 0).all()
        assert later > EXPIRY or k == 1 or (views.fills < k).any()
        counter = _BlockCounter(protocol)
        assert mechanism.select(counter, views) == [
            protocol.select_conservative(multi_view(table, now, own_hello=hello))
            for table, hello in zip(tables, hellos)
        ]
        assert counter.rows == [_SELECT_BLOCK, MANY_OWNERS - _SELECT_BLOCK]

    @pytest.mark.parametrize("name", sorted(CONSERVATIVE))
    def test_wrapped_rings_expiry_and_prune(self, name):
        # k=2: sender 1 writes five times (its ring wraps twice), sender 2
        # once and then falls silent, sender 3 returns after a prune with
        # a fresh history.
        protocol = CONSERVATIVE[name]()
        ops = [
            ("own", 0.0, 0.0), ("hello", 1, 1, 10.0, 0.0), ("hello", 2, 1, 0.0, 20.0),
            ("hello", 3, 1, 40.0, 0.0), ("hello", 1, 2, 12.0, 3.0),
            ("hello", 1, 3, 14.0, 6.0), ("own", 2.0, 2.0), ("hello", 1, 4, 16.0, 9.0),
            ("hello", 1, 5, 18.0, 12.0), ("prune",), ("hello", 3, 2, 30.0, 10.0),
        ]
        for k in (1, 2, 5):
            *tables, t = _weak_tables(ops, k, 45.0)
            for later in (0.0, 0.5, 0.8, 3.0):
                hello = Hello(OWNER, 9, (1.0, 1.0), t + later, t + later)
                for table in tables:
                    _weak_equals_multi_view(protocol, table, t + later, hello)


@pytest.mark.parametrize("protocol", ["rng", "rng&spt2"])
def test_weak_world_builds_no_hello(protocol, monkeypatch):
    # Every decision, at Hello time and at packet time, reads the ring
    # columns: the only Hellos a weak world's run builds are the ones its
    # nodes emit.
    built = count_hello_builds(monkeypatch)
    _, stats = _drive(protocol, "weak")
    assert built == {"repro.sim.world": stats["hello_messages"]}
