"""Batched packet-time redecision: the kernel, the gather and the world route.

Three layers:

- the batched RNG kernel (:meth:`RngProtocol.select_batch`) against the
  per-owner rank-based oracle :func:`rng_removable_batch`, on ragged
  padded batches — empty and one-member views, duplicate and collinear
  positions, and exact cost ties that only the ID pair can break;
- twin worlds: :meth:`NetworkWorld.redecide_all` (one
  :meth:`MobilitySensitiveTopologyControl.decide_many` call) against the
  per-node :meth:`decide` loop it replaced, for every mechanism, the
  decision cache on and off, and a faulted world.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import select_all, select_one
from neighbor_oracles import history_of, latest_view
from removal_oracles import LocalCostGraph, apply_removal_condition, rng_removable_batch
from repro.analysis.experiment import ExperimentSpec, RunStats, build_world
from repro.core.consistency import ViewSynchronization, available_mechanisms
from repro.core.costs import DistanceCost, EnergyCost
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import (
    NeighborTable,
    latest_members,
    live_unchanged,
    pin_versioned_members,
    read_pinned,
)
from repro.core.neighbor_state import NeighborState
from repro.core.views import Hello, LocalView
from repro.faults.schedule import FaultSchedule, NodeOutage
from repro.mobility.base import Area
from repro.protocols import RngProtocol, make_protocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood
from repro.telemetry import Telemetry
from repro.util.errors import ViewError

COST_MODELS = (DistanceCost(), EnergyCost(2.0), EnergyCost(4.0))


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


def _oracle(view: LocalView, cost_model) -> object:
    graph = LocalCostGraph.from_local_view(view, cost_model)
    return apply_removal_condition(graph, rng_removable_batch)


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
member_view = st.integers(1, 9).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(0, 40), min_size=m, max_size=m, unique=True),
        st.lists(st.tuples(coordinate, coordinate), min_size=m, max_size=m),
        st.sampled_from([15.0, 30.0, 45.0, 200.0]),
    )
)


class TestBatchedRngKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        views=st.lists(member_view, min_size=1, max_size=6),
        cost_index=st.integers(0, len(COST_MODELS) - 1),
    )
    def test_ragged_batch_matches_per_owner_oracle(self, views, cost_index):
        cost_model = COST_MODELS[cost_index]
        got = RngProtocol(cost_model).select_batch(*_padded(views))
        assert len(got) == len(views)
        for (ids, pts, radius), result in zip(views, got):
            assert result == _oracle(_view(ids, pts, radius), cost_model)

    @settings(max_examples=50, deadline=None)
    @given(view=member_view, seed=st.integers(0, 2**16))
    def test_member_order_does_not_matter(self, view, seed):
        # The world gathers neighbors in record order, the oracle's view
        # sorts them; the owner stays in column 0.
        ids, pts, radius = view
        perm = [0, *(1 + np.random.default_rng(seed).permutation(len(ids) - 1))]
        shuffled = ([ids[i] for i in perm], [pts[i] for i in perm], radius)
        protocol = RngProtocol()
        assert protocol.select_batch(*_padded([view])) == protocol.select_batch(
            *_padded([shuffled])
        )

    def test_empty_and_one_member_views(self):
        views = [([7], [(0.0, 0.0)], 50.0), ([3, 9], [(0.0, 0.0), (10.0, 0.0)], 50.0)]
        empty, single = RngProtocol().select_batch(*_padded(views))
        assert empty.logical_neighbors == frozenset() and empty.actual_range == 0.0
        assert single.logical_neighbors == frozenset({9})
        assert single.actual_range == 10.0

    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, 2, 1], [5, 1, 2], [1, 5, 0]])
    def test_exact_cost_tie_is_broken_by_id_pair(self, ids):
        # c(o, v) == c(o, w) == 10 and c(v, w) < 10: exactly one of the
        # owner's two links falls, the one whose ID pair orders last.
        pts = [(0.0, 0.0), (6.0, 8.0), (10.0, 0.0)]
        (result,) = RngProtocol().select_batch(*_padded([(ids, pts, 50.0)]))
        assert result == _oracle(_view(ids, pts, 50.0), DistanceCost())
        o, v, w = ids
        kept = v if (min(o, v), max(o, v)) < (min(o, w), max(o, w)) else w
        assert result.logical_neighbors == frozenset({kept})

    def test_duplicate_positions(self):
        ids, pts = [4, 2, 8, 6], [(0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (5.0, 0.0)]
        (result,) = RngProtocol().select_batch(*_padded([(ids, pts, 50.0)]))
        assert result == _oracle(_view(ids, pts, 50.0), DistanceCost())

    def test_select_is_a_batch_of_one(self):
        view = _view([2, 0, 1, 3], [(0, 0), (10, 0), (20, 0), (0, 30)], 40.0)
        assert RngProtocol().select(view) == _oracle(view, DistanceCost())


class TestLatestPositions:
    def _tables(self):
        """A standalone table and one whose row sits in a shared store."""
        state = NeighborState(3, history_depth=2)
        alone = NeighborTable(0, normal_range=100.0, history_depth=2, expiry=1.0)
        shared = NeighborTable(
            0, normal_range=100.0, history_depth=2, expiry=1.0, state=state
        )
        for sender, xy, t in ((2, (5.0, 1.0), 0.0), (1, (3.0, 4.0), 0.5),
                              (2, (6.0, 2.0), 1.0), (2, (7.0, 3.0), 1.2)):
            hello = Hello(sender, 1, xy, t, t)
            alone.record_hello(hello)
            shared.record_hello(hello)
        return alone, shared

    @pytest.mark.parametrize("now", [1.2, 1.6])
    def test_both_tables_match_latest_view(self, now):
        for table in self._tables():
            _, ids, xy = latest_members([table], now)
            view = latest_view(table, now, own_hello=Hello(0, 1, (0.0, 0.0), now, now))
            assert ids.tolist() == list(view.neighbor_hellos)
            assert [tuple(p) for p in xy.tolist()] == [
                h.position for h in view.neighbor_hellos.values()
            ]


# --------------------------------------------------------------------- #
# the columnar gather of many owners

N_OWNERS = 40  # more than one select_batch block

# (receiver, sender, version, x, y) Hellos and prunes, 0.2 s apart.
gather_op = st.one_of(
    st.tuples(
        st.integers(0, N_OWNERS - 1), st.integers(0, N_OWNERS - 1),
        st.integers(0, 3), st.integers(0, 200).map(float),
        st.integers(0, 200).map(float),
    ),
    st.tuples(st.integers(0, N_OWNERS - 1)),
)


def _shared_tables(ops, k):
    state = NeighborState(N_OWNERS, history_depth=k)
    tables = [
        NeighborTable(o, normal_range=150.0, history_depth=k, expiry=1.0, state=state)
        for o in range(N_OWNERS)
    ]
    for o, table in enumerate(tables):
        table.record_own(Hello(o, 0, (float(o), 0.0), 0.0, 0.0))
    t = 0.0
    for op in ops:
        t += 0.2
        if len(op) == 1:
            tables[op[0]].prune(t)
        elif op[0] != op[1]:
            receiver, sender, version, x, y = op
            tables[receiver].record_hello(Hello(sender, version, (x, y), t, t))
    return tables, t


class TestColumnarGather:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(gather_op, max_size=150), k=st.integers(1, 3),
           ahead=st.sampled_from([0.0, 0.5, 1.5]))
    def test_members_match_the_hello_views(self, ops, k, ahead):
        tables, t = _shared_tables(ops, k)
        now = t + ahead
        counts, ids, xy = latest_members(tables, now)
        assert counts.tolist() == [
            len(latest_view(table, now, own_hello=table.last_advertised).neighbor_hellos)
            for table in tables
        ]
        want = [
            (s, h.position)
            for table in tables
            for s, h in latest_view(table, now, table.last_advertised)
            .neighbor_hellos.items()
        ]
        assert list(zip(ids.tolist(), map(tuple, xy.tolist()))) == want
        versions = [o % 4 for o in range(N_OWNERS)]
        counts, ids, xy = read_pinned(pin_versioned_members(tables, versions))
        want = []
        for table, v in zip(tables, versions):
            for s in table._state.senders(table._row):
                held = [h for h in history_of(table, s) if h.version == v]
                if held:
                    want.append((s, held[0].position))
        assert list(zip(ids.tolist(), map(tuple, xy.tolist()))) == want

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(gather_op, max_size=150), k=st.integers(1, 3),
           later=st.sampled_from([0.0, 0.3, 0.9, 2.0]))
    def test_live_unchanged_compares_live_sets(self, ops, k, later):
        tables, t = _shared_tables(ops, k)
        then = [t - 0.1 * (o % 5) for o in range(N_OWNERS)]
        got = live_unchanged(tables, then, t + later)
        assert got.tolist() == [
            table.known_neighbors(t + later) == table.known_neighbors(at)
            for table, at in zip(tables, then)
        ]

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(gather_op, max_size=150), k=st.integers(1, 3))
    def test_degree_sorted_blocks_match_one_decision_per_owner(self, ops, k):
        tables, t = _shared_tables(ops, k)
        protocol, mechanism = RngProtocol(), ViewSynchronization()
        owns = [table.last_advertised.position for table in tables]
        assert select_all(mechanism, protocol, tables, t, owns) == [
            select_one(mechanism, protocol, table, t, own)
            for table, own in zip(tables, owns)
        ]


# --------------------------------------------------------------------- #
# twin worlds

SPEC_CONFIG = ScenarioConfig(
    n_nodes=16,
    area=Area(math.sqrt(16 * 8100.0), math.sqrt(16 * 8100.0)),
    duration=3.0,
    warmup=1.0,
    sample_rate=4.0,
)


def _per_node_redecide(world, version):
    """The per-node loop that ``redecide_all`` ran before batching; its
    decisions are adopted before it returns, as ``redecide_all`` adopts
    its own (a waiting one would be dropped by the next redecision)."""
    inj = world.fault_injector
    now = world.engine.now
    for node in world.nodes:
        if inj is not None and inj.node_down(node.node_id, now):
            continue
        try:
            world.decide_node(node.node_id, version=version)
            node.packet_decisions += 1
        except ViewError:
            continue
    world._settle()


def _drive(mechanism, faults=None, reference=False):
    spec = ExperimentSpec(
        protocol="rng", mechanism=mechanism, buffer_width=10.0,
        mean_speed=20.0, config=SPEC_CONFIG,
    )
    tel = Telemetry()
    world = build_world(spec, seed=3, faults=faults, telemetry=tel)
    if reference:
        world.redecide_all = lambda version=None: _per_node_redecide(world, version)
    sources = np.random.default_rng(3)
    trace = []
    for t in np.arange(1.0, 3.0 + 1e-9, 0.25):
        world.run_until(float(t))
        world.redecide_all()
        flood(world, int(sources.integers(16)))
        trace.append([node.decision for node in world.nodes])
    return world, tel, trace


def _assert_twins(mechanism, faults=None):
    world, tel, trace = _drive(mechanism, faults)
    ref_world, ref_tel, ref_trace = _drive(mechanism, faults, reference=True)
    assert trace == ref_trace
    assert [n.packet_decisions for n in world.nodes] == [
        n.packet_decisions for n in ref_world.nodes
    ]
    assert sum(n.packet_decisions for n in world.nodes) > 0
    assert (RunStats.from_world(world).as_dict()
            == RunStats.from_world(ref_world).as_dict())
    # The reference loop's decisions count as Hello-phase ones.
    assert _phaseless(tel) == _phaseless(ref_tel)
    assert tel.events.kind_counts() == ref_tel.events.kind_counts()


def _phaseless(tel) -> dict[str, float]:
    """Counters with the decision cache's ``phase`` label summed away."""
    out: dict[str, float] = {}
    for key, value in tel.registry.counters_dict().items():
        key = key.replace(",phase=hello", "").replace(",phase=packet", "")
        out[key] = out.get(key, 0) + value
    return out


class TestTwinWorlds:
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("mechanism", available_mechanisms())
    def test_decide_many_matches_per_node_loop(self, mechanism, cache, monkeypatch):
        monkeypatch.setattr(
            MobilitySensitiveTopologyControl, "decision_cache_default", cache
        )
        _assert_twins(mechanism)

    def test_faulted_world(self):
        schedule = FaultSchedule(events=(
            NodeOutage(node=2, start=1.2, end=2.4),
            NodeOutage(node=5, start=0.0, end=1.6),
        ))
        _assert_twins("view-sync", faults=schedule)

    def test_protocol_without_batch_takes_the_default_route(self):
        protocol = make_protocol("gabriel")
        table = NeighborTable(0, normal_range=100.0)
        table.record_hello(Hello(1, 1, (30.0, 0.0), 0.0, 0.0))
        own = (0.0, 0.0)
        (result,) = select_all(ViewSynchronization(), protocol, [table], 0.0, [own])
        assert result == select_one(ViewSynchronization(), protocol, table, 0.0, own)
