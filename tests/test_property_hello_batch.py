"""The Hello delivery route: fault seams, neighbor state, batch events.

Every Hello travels one route: the receiver oracle finds who hears it,
and each distinct arrival time is one engine event that records the
Hello at all of its receivers in the columnar :class:`NeighborState`.
Pinned here:

- the stale-grid receiver oracle against the full range scan
  ``IdealChannel.receivers``, under every propagation model;
- the fault seams on that route — a receiver down at arrival is blocked,
  a delayed Hello overtaken by a fresher one is discarded, and delivery
  delays split one transmission into one event per arrival time;
- the ``_drop_collided`` expiry boundary;
- :class:`NeighborState` ring semantics and its newest-version read;
- the engine's handle-free ``schedule_batch``.

End-to-end behaviour of faulted, log-distance and weak worlds is pinned
by the golden cells in ``tests/test_golden_digests.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neighbor_oracles import history, history_of
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import make_mechanism
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.neighbor_state import NO_VERSION, NeighborState
from repro.core.views import Hello
from repro.faults.schedule import DeliveryDelay, FaultSchedule, NodeOutage
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.protocols import RngProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.engine import Engine
from repro.sim.hello_batch import HelloReceiverOracle
from repro.sim.propagation import make_propagation
from repro.sim.radio import IdealChannel
from repro.sim.world import NetworkWorld
from repro.util.errors import ScheduleError
from repro.util.randomness import SeedSequenceFactory


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        n_nodes=10,
        area=Area(300.0, 300.0),
        normal_range=150.0,
        duration=5.0,
        sample_rate=2.0,
        warmup=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _world(cfg: ScenarioConfig, mechanism: str, seed: int) -> NetworkWorld:
    seeds = SeedSequenceFactory(seed)
    mobility = RandomWaypoint(
        cfg.area, cfg.n_nodes, cfg.duration, mean_speed=8.0, rng=seeds.rng("m")
    )
    manager = MobilitySensitiveTopologyControl(
        RngProtocol(),
        mechanism=make_mechanism(mechanism),
        buffer_policy=BufferZonePolicy(width=20.0, cap=cfg.normal_range),
    )
    return NetworkWorld(cfg, mobility, manager, seed=seed)


def _quiet_world(*events) -> NetworkWorld:
    """Six static nodes that all hear each other, *events* armed, and no
    Hello timers pending: only what a test emits or delivers happens."""
    cfg = _config(n_nodes=6, area=Area(50.0, 50.0))
    mobility = StaticPlacement(
        cfg.area, cfg.n_nodes, cfg.duration, rng=np.random.default_rng(0)
    )
    world = NetworkWorld(
        cfg, mobility, MobilitySensitiveTopologyControl(RngProtocol()),
        seed=0, faults=FaultSchedule(events),
    )
    world.engine.clear()
    return world


def _versions(world: NetworkWorld, sender: int) -> list[list[int]]:
    """Per node, the retained versions of *sender*'s Hellos."""
    return [
        [h.version for h in history_of(node.table, sender)] for node in world.nodes
    ]


class TestReceiverOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        model=st.sampled_from(["unit-disk", "log-distance", "sinr"]),
        steps=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=12),
    )
    def test_matches_full_range_scan(self, seed, model, steps):
        radius = 120.0
        mobility = RandomWaypoint(
            Area(500.0, 500.0), 40, 20.0, mean_speed=15.0,
            rng=np.random.default_rng(seed),
        )
        bound = None if model == "unit-disk" else make_propagation(model).bind(seed)
        oracle = HelloReceiverOracle(mobility.trajectories, radius, propagation=bound)
        channel = IdealChannel(propagation=bound)
        t = 0.0
        for i, step in enumerate(steps):
            t += step  # the world queries in nondecreasing time
            sender = (seed + 7 * i) % 40
            want = channel.receivers(sender, mobility.positions(t), radius, now=t)
            got = oracle.receivers(sender, t)
            assert got.tolist() == want.tolist()
            assert oracle.propagation_losses == channel.stats.propagation_losses

    # The oracle's cells are the query radius plus the slack wide, so
    # every receiver sits in the 3x3 block around the sender's cell.
    # The cases below sit on the edges of that argument.

    MODELS = ["unit-disk", "log-distance", "sinr"]
    RADIUS = 120.0

    @staticmethod
    def _pair(mobility, model, radius=RADIUS):
        bound = None if model == "unit-disk" else make_propagation(model).bind(3)
        oracle = HelloReceiverOracle(mobility.trajectories, radius, propagation=bound)
        return oracle, IdealChannel(propagation=bound)

    @staticmethod
    def _agree(mobility, oracle, channel, t, senders=None):
        radius = oracle.radius
        positions = mobility.positions(t)
        for sender in range(positions.shape[0]) if senders is None else senders:
            want = channel.receivers(sender, positions, radius, now=t)
            assert oracle.receivers(sender, t).tolist() == want.tolist()
            assert oracle.propagation_losses == channel.stats.propagation_losses

    def _cell(self, model):
        probe = StaticPlacement(Area(1.0, 1.0), 1, 5.0, positions=[[0.0, 0.0]])
        return self._pair(probe, model)[0]._cell

    @pytest.mark.parametrize("model", MODELS)
    def test_static_nodes_on_cell_boundaries(self, model):
        cell = self._cell(model)
        r = self.RADIUS
        # A lattice on the cell edges, plus nodes exactly one radius
        # (the unit-disk boundary) and one cell beyond a lattice node.
        lattice = [(i * cell, j * cell) for i in range(4) for j in range(4)]
        extra = [(r, 0.0), (cell, r), (2 * cell + r, 3 * cell), (3 * cell, 2 * cell + r)]
        points = np.array(lattice + extra)
        side = float(points.max()) + 1.0
        mobility = StaticPlacement(Area(side, side), len(points), 5.0, positions=points)
        oracle, channel = self._pair(mobility, model)
        assert oracle._cell == cell
        for t in (0.0, 2.5):
            self._agree(mobility, oracle, channel, t)
        assert oracle.rebuilds == 1  # static nodes never leave their cells

    @pytest.mark.parametrize("model", MODELS)
    def test_last_reuse_before_a_rebuild(self, model):
        mobility = RandomWaypoint(
            Area(600.0, 600.0), 60, 20.0, mean_speed=15.0,
            rng=np.random.default_rng(11),
        )
        oracle, channel = self._pair(mobility, model)
        t0 = 1.0
        self._agree(mobility, oracle, channel, t0, senders=[0])
        vmax, slack = oracle._vmax, oracle._slack
        # The latest instant the stale grid still serves:
        # v_max * (t - t_g) == slack, to the last bit.
        t = t0 + slack / vmax
        while vmax * (t - t0) > slack:
            t = np.nextafter(t, -np.inf)
        while vmax * (np.nextafter(t, np.inf) - t0) <= slack:
            t = np.nextafter(t, np.inf)
        self._agree(mobility, oracle, channel, float(t))
        assert oracle.rebuilds == 1
        later = float(np.nextafter(t, np.inf))
        self._agree(mobility, oracle, channel, later, senders=[0])
        assert oracle.rebuilds == 2

    @pytest.mark.parametrize("model", MODELS)
    def test_sender_alone_in_its_block(self, model):
        cell = self._cell(model)
        # Five cells wide: a cluster in one corner and a node in the far
        # corner, more than a cell from the cluster's blocks.
        side = 5 * cell
        cluster = [(10.0 + 30.0 * i, 10.0 + 25.0 * j) for i in range(3) for j in range(3)]
        points = np.array(cluster + [(side - 1.0, side - 1.0)])
        mobility = StaticPlacement(Area(side, side), len(points), 5.0, positions=points)
        oracle, channel = self._pair(mobility, model)
        lonely = len(points) - 1
        self._agree(mobility, oracle, channel, 1.0)
        key = tuple(np.floor(points[lonely] / cell).astype(int).tolist())
        assert oracle._block(key).tolist() == [lonely]
        assert oracle.receivers(lonely, 1.0).size == 0

    @pytest.mark.parametrize("model", MODELS)
    def test_query_right_after_a_rebuild(self, model):
        # Seven cells a side, so a block memoized before the rebuild
        # would miss nodes that have moved into it since.
        mobility = RandomWaypoint(
            Area(1200.0, 1200.0), 120, 20.0, mean_speed=20.0,
            rng=np.random.default_rng(5),
        )
        oracle, channel = self._pair(mobility, model)
        self._agree(mobility, oracle, channel, 0.5)
        t = 0.5 + 2.0 * oracle._slack / oracle._vmax
        self._agree(mobility, oracle, channel, t, senders=[7])
        assert oracle.rebuilds == 2 and oracle._grid_t == t
        # Every sender at the rebuild instant, then once more just after.
        self._agree(mobility, oracle, channel, t)
        self._agree(mobility, oracle, channel, t + 0.01)
        assert oracle.rebuilds == 2


class TestFaultSeams:
    def test_receiver_down_at_arrival_is_blocked(self):
        world = _quiet_world(NodeOutage(0.0, 1.0, node=2))
        hello = Hello(1, 4, (0.0, 0.0), 0.0, 0.0)
        world._receive_hello_batch(hello, np.array([0, 2, 3], dtype=np.intp))
        assert _versions(world, 1) == [[4], [], [], [4], [], []]
        assert world.fault_stats()["fault_blocked_receptions"] == 1
        assert world.fault_stats()["fault_stale_discards"] == 0

    def test_overtaken_delayed_hello_is_discarded(self):
        world = _quiet_world()
        receivers = np.array([0, 3, 4], dtype=np.intp)
        world._receive_hello_batch(Hello(1, 5, (1.0, 0.0), 1.0, 1.0), receivers[:2])
        # Version 4 arrives late: discarded where 5 is held, kept at node 4.
        world._receive_hello_batch(Hello(1, 4, (0.0, 0.0), 0.0, 0.0), receivers)
        # An equal version is not strictly newer either.
        world._receive_hello_batch(Hello(1, 5, (2.0, 0.0), 1.0, 1.0), receivers[:1])
        assert _versions(world, 1) == [[5], [], [], [5], [4], []]
        assert world.fault_stats()["fault_stale_discards"] == 3
        assert history_of(world.nodes[0].table, 1)[0].position == (1.0, 0.0)

    def test_delay_groups_arrive_at_their_own_times(self):
        world = _quiet_world(
            DeliveryDelay(0.0, 1.0, delay=0.5, receivers=(2, 3)),
            DeliveryDelay(0.0, 1.0, delay=0.2, receivers=(3,)),
        )
        hello = world._emit_hello(0, 1)
        assert hello is not None
        # One batch event per distinct arrival time.
        assert world.engine.pending_events == 3
        world.run_until(0.1)
        assert _versions(world, 0) == [[], [1], [], [], [1], [1]]
        world.run_until(0.6)
        assert _versions(world, 0) == [[], [1], [1], [], [1], [1]]
        world.run_until(0.8)
        assert _versions(world, 0) == [[], [1], [1], [1], [1], [1]]
        assert world.fault_stats()["fault_delayed_deliveries"] == 2
        assert world.channel.stats.deliveries == 5

    def test_down_sender_sends_nothing(self):
        world = _quiet_world(NodeOutage(0.0, 1.0, node=0))
        assert world._emit_hello(0, 1) is None
        assert world.engine.pending_events == 0
        assert world.nodes[0].table.last_advertised is None
        assert world.fault_stats()["fault_suppressed_sends"] == 1


class TestDropCollidedBoundary:
    """The airtime window is boundary-inclusive: age == window still collides."""

    @staticmethod
    def _world(window: float) -> NetworkWorld:
        return _world(_config(hello_tx_duration=window), "baseline", 5)

    def test_entry_exactly_at_window_edge_still_on_air(self):
        world = self._world(0.1)
        origin = np.array([0.0, 0.0])
        none = np.empty(0, dtype=np.intp)
        world._drop_collided(0.0, 0, origin, none, np.empty((0, 2)))
        # Exactly window seconds later: t - entry[0] == window, kept on air,
        # so a receiver inside the earlier sender's range collides.
        receivers = np.array([3], dtype=np.intp)
        survivors = world._drop_collided(
            0.1, 1, np.array([50.0, 0.0]), receivers, np.array([[10.0, 0.0]])
        )
        assert survivors.size == 0
        assert world.channel.stats.collisions == 1

    def test_entry_just_past_window_is_pruned(self):
        world = self._world(0.1)
        origin = np.array([0.0, 0.0])
        none = np.empty(0, dtype=np.intp)
        world._drop_collided(0.0, 0, origin, none, np.empty((0, 2)))
        receivers = np.array([3], dtype=np.intp)
        survivors = world._drop_collided(
            0.1 + 1e-9, 1, np.array([50.0, 0.0]), receivers, np.array([[10.0, 0.0]])
        )
        assert survivors.tolist() == [3]
        assert world.channel.stats.collisions == 0
        assert len(world._recent_hellos) == 1  # only the new transmission


def _hello(sender: int, version: int, sent_at: float, x: float = 1.0) -> Hello:
    return Hello(
        sender=sender,
        version=version,
        position=(x, 2.0),
        sent_at=sent_at,
        timestamp=sent_at + 0.001,
    )


def _one_by_one(state: NeighborState, receiver: int, hellos) -> None:
    for hello in hellos:
        state.record_entries(receiver, [hello])


class TestNeighborState:
    def test_ring_evicts_oldest_beyond_depth(self):
        state = NeighborState(4, history_depth=3)
        _one_by_one(state, 0, [_hello(1, v, float(v)) for v in range(5)])
        retained = history(state, 0, 1)
        assert [h.version for h in retained] == [2, 3, 4]
        assert state.hellos_received[0] == 5 and state.mutations[0] == 5

    def test_record_batch_equals_single_hello_splices(self):
        batch, one = NeighborState(6, 2), NeighborState(6, 2)
        receivers = np.array([0, 2, 5], dtype=np.intp)
        for v in range(3):
            hello = _hello(1, v, float(v))
            batch.record_batch(hello, receivers)  # second call hits the slot cache
            for rid in receivers:
                one.record_entries(int(rid), [hello])
        for rid in receivers:
            assert history(batch, int(rid), 1) == history(one, int(rid), 1)
            assert batch.senders(int(rid)) == one.senders(int(rid))
        assert np.array_equal(batch.mutations, one.mutations)
        assert np.array_equal(batch.hellos_received, one.hellos_received)

    @settings(max_examples=60, deadline=None)
    @given(
        held=st.lists(st.integers(1, 6), max_size=4),
        entries=st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 9)), max_size=12
        ),
        depth=st.integers(1, 3),
    )
    def test_record_entries_equals_one_by_one(self, held, entries, depth):
        # Senders the receiver already holds and new ones, some recurring
        # (written by further splices), against one splice per Hello.
        spliced, one = NeighborState(2, depth), NeighborState(2, depth)
        before = [_hello(s, 0, 0.5, x=float(s)) for s in held]
        hellos = [_hello(s, v, float(v), x=float(10 * s + v)) for s, v in entries]
        for state in (spliced, one):
            _one_by_one(state, 1, before)
        spliced.record_entries(1, hellos)
        _one_by_one(one, 1, hellos)
        assert spliced.senders(1) == one.senders(1)
        for sender in one.senders(1):
            assert history(spliced, 1, sender) == history(one, 1, sender)
        assert np.array_equal(spliced.mutations, one.mutations)
        assert np.array_equal(spliced.hellos_received, one.hellos_received)
        assert spliced.retained(1) == one.retained(1) == sum(
            len(history(one, 1, s)) for s in one.senders(1)
        )

    def test_newest_versions_reads_the_ring_head(self):
        state = NeighborState(4, history_depth=2)
        for v in (3, 7, 5):
            state.record_batch(_hello(1, v, float(v)), np.array([0, 2], dtype=np.intp))
        state.record_entries(3, [_hello(1, 9, 9.0)])
        state.record_entries(0, [_hello(2, 1, 9.0)])
        got = state.newest(np.array([3, 1, 0, 2], dtype=np.intp), 1)[0]
        assert got.tolist() == [9, NO_VERSION, 5, 5]
        assert state.newest(0, np.array([2, 1, 3]))[0].tolist() == [
            1, 5, NO_VERSION,
        ]
        assert state.newest(np.empty(0, dtype=np.intp), 1)[0].size == 0

    def test_newest_is_the_last_retained_hello(self):
        state = NeighborState(3, history_depth=2)
        for v in (1, 2, 3):
            state.record_batch(_hello(4, v, v + 0.25, x=float(v)), np.array([0, 1]))
        state.record_entries(1, [_hello(5, 8, 7.5, x=-3.0)])
        version, sent, xy, ts = state.newest(1, [4, 6, 5])
        for i, sender in enumerate((4, 6, 5)):
            retained = history(state, 1, sender)
            if not retained:
                assert version[i] == NO_VERSION and sent[i] == -np.inf
                continue
            last = retained[-1]
            assert (version[i], sent[i], tuple(xy[i]), ts[i]) == (
                last.version, last.sent_at, last.position, last.timestamp,
            )

    def test_live_ids_preserve_insertion_order(self):
        state = NeighborState(2, 3)
        state.record_entries(0, [_hello(sender, 0, 1.0) for sender in (7, 3, 5)])
        assert state.live_ids(0, now=2.0, expiry=2.5) == (7, 3, 5)
        assert state.latest_members([0], 2.0, 2.5)[1].tolist() == [7, 3, 5]


class TestScheduleBatch:
    def test_interleaves_with_schedule_at_in_seq_order(self):
        engine = Engine()
        seen: list[str] = []
        engine.schedule_at(1.0, seen.append, "a")
        engine.schedule_batch(1.0, seen.append, "b")
        engine.schedule_at(1.0, seen.append, "c")
        engine.run(until=2.0)
        assert seen == ["a", "b", "c"]

    def test_validates_like_schedule_at(self):
        engine = Engine()
        engine.run(until=1.0)
        with pytest.raises(ScheduleError, match="past"):
            engine.schedule_batch(0.5, lambda: None)
        with pytest.raises(ScheduleError, match="finite"):
            engine.schedule_batch(float("nan"), lambda: None)

    def test_counts_as_pending_and_clears(self):
        engine = Engine()
        engine.schedule_batch(1.0, lambda: None)
        handle = engine.schedule_at(1.5, lambda: None)
        assert engine.pending_events == 2
        engine.clear()
        assert engine.pending_events == 0
        assert handle.cancelled

    def test_compaction_keeps_handle_free_entries(self):
        engine = Engine()
        fired: list[int] = []
        engine.schedule_batch(1.0, fired.append, 1)
        # Cancel enough handled events that tombstones dominate and the
        # heap compacts; the handle-free entry must survive compaction.
        handles = [engine.schedule_at(2.0, fired.append, 99) for _ in range(8)]
        for handle in handles:
            handle.cancel()
        engine.run(until=3.0)
        assert fired == [1]
