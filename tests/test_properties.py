"""Property-based tests (hypothesis) for the paper's theorems.

- Theorem 1: consistent views + any removal condition => connected logical
  topology whenever the original topology is connected.
- Theorem 2: one Hello version per node in use => views are consistent.
- Theorem 3: bounded view-time spread + k = ceil(delta/Delta)+1 retained
  Hellos => weakly consistent views.
- Theorem 4: weakly consistent views + enhanced conditions => connected
  logical topology.
- Engine determinism and trajectory sanity under random inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_hello, make_view
from neighbor_oracles import multi_view, versioned_view
from repro.core.tables import NeighborTable
from repro.core.views import views_consistent, views_weakly_consistent
from repro.geometry.graphs import is_connected, unit_disk_graph
from repro.mobility.base import Area
from repro.mobility.waypoint import RandomWaypoint
from repro.protocols import MstProtocol, RngProtocol, Spt2Protocol, Spt4Protocol

CONDITION_PROTOCOLS = [RngProtocol(), Spt2Protocol(), Spt4Protocol(), MstProtocol()]


def _points(draw, n_min=4, n_max=12, span=100.0):
    n = draw(st.integers(n_min, n_max))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(0, span, allow_nan=False, width=32),
                st.floats(0, span, allow_nan=False, width=32),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return np.asarray(coords, dtype=np.float64)


def consistent_views_of(points: np.ndarray, normal_range: float):
    views = []
    n = len(points)
    for owner in range(n):
        members = {owner: tuple(points[owner])}
        for other in range(n):
            d = math.hypot(*(points[other] - points[owner]))
            if other != owner and d <= normal_range:
                members[other] = tuple(points[other])
        views.append(make_view(owner, members, normal_range=normal_range))
    return views


def logical_union(protocol, views, n):
    adj = np.zeros((n, n), dtype=bool)
    for view in views:
        for v in protocol.select(view).logical_neighbors:
            adj[view.owner, v] = True
    # The logical topology is the union of logical neighbor sets.
    return adj | adj.T


class TestTheorem1:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_consistent_views_preserve_connectivity(self, data):
        points = _points(data.draw)
        normal_range = data.draw(st.floats(30.0, 160.0))
        if not is_connected(unit_disk_graph(points, normal_range)):
            return  # premise not met
        views = consistent_views_of(points, normal_range)
        for protocol in CONDITION_PROTOCOLS:
            adj = logical_union(protocol, views, len(points))
            assert is_connected(adj), f"{protocol.name} partitioned the topology"

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_consistent_views_predicate_holds(self, data):
        points = _points(data.draw)
        views = consistent_views_of(points, 80.0)
        assert views_consistent(views)


class TestTheorem2:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_single_version_in_use_implies_consistency(self, data):
        # Every node's table holds exactly the version-1 Hello of everyone.
        points = _points(data.draw, n_min=3, n_max=8)
        n = len(points)
        views = []
        for owner in range(n):
            table = NeighborTable(owner=owner, normal_range=200.0, expiry=100.0)
            table.record_own(make_hello(owner, tuple(points[owner]), version=1))
            for other in range(n):
                if other != owner:
                    table.record_hello(
                        make_hello(other, tuple(points[other]), version=1)
                    )
            views.append(versioned_view(table, 1.0, version=1))
        assert views_consistent(views)


class TestTheorem3:
    @settings(max_examples=15, deadline=None)
    @given(
        delta=st.floats(0.1, 3.0),
        interval=st.floats(0.5, 2.0),
        seed=st.integers(0, 10_000),
    )
    def test_history_depth_guarantees_weak_consistency(self, delta, interval, seed):
        """Nodes move, advertise every *interval*, and sample views at
        times spread over *delta*; k = ceil(delta/interval)+1 retained
        Hellos must leave a common version => weak consistency."""
        from repro.core.buffer_zone import required_history_depth

        rng = np.random.default_rng(seed)
        k = required_history_depth(delta, interval)
        n = 5
        base = rng.random((n, 2)) * 50
        drift = rng.normal(0, 5.0, size=(n, 2))

        def position(node: int, t: float) -> tuple[float, float]:
            p = base[node] + drift[node] * t
            return (float(p[0]), float(p[1]))

        # Hello m of node i is sent at t = m * interval (synchronous
        # enough; Theorem 3 only needs the fixed interval).
        horizon = 10.0 * interval
        n_hellos = int(horizon / interval)
        sample_base = 6.0 * interval
        sample_times = sample_base + rng.random(n) * delta

        views = []
        for owner in range(n):
            tau = float(sample_times[owner])
            table = NeighborTable(
                owner=owner, normal_range=1e9, history_depth=k, expiry=1e9
            )
            for m in range(n_hellos):
                t_send = m * interval
                if t_send > tau:
                    break
                for node in range(n):
                    hello = make_hello(
                        node, position(node, t_send), version=m + 1, sent_at=t_send
                    )
                    if node == owner:
                        table.record_own(hello)
                    else:
                        table.record_hello(hello)
            views.append(multi_view(table, tau))
        assert views_weakly_consistent(views)


class TestTheorem4:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 9999))
    def test_enhanced_conditions_preserve_connectivity(self, data, seed):
        """Two Hello generations with movement in between; every node
        retains both (k = 2, weakly consistent by shared versions); the
        conservative selections must keep the logical topology connected
        as long as the original (conservative any-pair) topology is."""
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(4, 9))
        normal_range = 80.0
        old = rng.random((n, 2)) * 100
        new = old + rng.normal(0, 8.0, size=(n, 2))

        # Original topology: links supported by the OLD generation (the
        # common version all nodes hold).
        if not is_connected(unit_disk_graph(old, normal_range)):
            return

        # Each node samples either before or after the second generation
        # lands, so some views have one version of some neighbors.
        views = []
        for owner in range(n):
            table = NeighborTable(
                owner=owner, normal_range=normal_range, history_depth=2, expiry=1e9
            )
            table.record_own(make_hello(owner, tuple(old[owner]), version=1, sent_at=0.0))
            sees_new_own = rng.random() < 0.5
            if sees_new_own:
                table.record_own(
                    make_hello(owner, tuple(new[owner]), version=2, sent_at=1.0)
                )
            for other in range(n):
                if other == owner:
                    continue
                table.record_hello(
                    make_hello(other, tuple(old[other]), version=1, sent_at=0.0)
                )
                if rng.random() < 0.7:
                    table.record_hello(
                        make_hello(other, tuple(new[other]), version=2, sent_at=1.0)
                    )
            views.append(multi_view(table, 2.0))

        assert views_weakly_consistent(views)

        for protocol in CONDITION_PROTOCOLS:
            adj = np.zeros((n, n), dtype=bool)
            for view in views:
                for v in protocol.select_conservative(view).logical_neighbors:
                    adj[view.owner, v] = True
            adj = adj | adj.T
            # Every old-generation link is in the conservative views, so
            # the union selection must keep the old graph connected.
            assert is_connected(adj), f"{protocol.name} broke Theorem 4"


class TestEngineDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=40)
    )
    def test_events_always_fire_in_sorted_order(self, times):
        from repro.sim.engine import Engine

        eng = Engine()
        fired = []
        for t in times:
            eng.schedule_at(t, lambda t=t: fired.append(t))
        eng.run(until=101.0)
        assert fired == sorted(times)


class TestTrajectoryProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 99999),
        speed=st.floats(0.5, 120.0),
        n=st.integers(2, 20),
    )
    def test_waypoint_positions_always_inside_and_continuous(self, seed, speed, n):
        area = Area(300.0, 300.0)
        model = RandomWaypoint(
            area, n, horizon=15.0, mean_speed=speed, rng=np.random.default_rng(seed)
        )
        prev = model.positions(0.0)
        vmax = model.max_speed()
        assert vmax <= 2.0 * speed + 1e-9
        for t in np.linspace(0.0, 15.0, 31):
            pts = model.positions(float(t))
            assert area.contains(pts).all()
            step = np.linalg.norm(pts - prev, axis=1)
            assert (step <= vmax * 0.5 + 1e-6).all()
            prev = pts
