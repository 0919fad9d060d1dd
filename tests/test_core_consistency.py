"""Tests for repro.core.consistency: the five mechanism strategies."""

from __future__ import annotations

import pytest

from conftest import make_hello
from repro.core.consistency import (
    BaselineConsistency,
    ProactiveConsistency,
    ReactiveConsistency,
    ViewSynchronization,
    WeakConsistency,
    make_mechanism,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import NeighborTable
from repro.protocols import MstProtocol, RngProtocol
from repro.util.errors import ConfigurationError, ViewError


@pytest.fixture
def table():
    t = NeighborTable(owner=0, normal_range=100.0, history_depth=3, expiry=10.0)
    t.record_own(make_hello(0, (0, 0), version=1, sent_at=0.0))
    t.record_hello(make_hello(1, (10, 0), version=1, sent_at=0.1))
    t.record_hello(make_hello(2, (5, 1), version=1, sent_at=0.2))
    return t


@pytest.fixture
def current():
    """The owner's current position."""
    return (0.5, 0.0)


def decide(mechanism, protocol, table, now, position, version=None):
    """One decision through the manager, the one decide entry point."""
    manager = MobilitySensitiveTopologyControl(protocol, mechanism)
    return manager.decide(table, now, position, version)


class TestBaseline:
    def test_uses_current_position(self, table, current):
        result = decide(BaselineConsistency(), RngProtocol(), table, 1.0, current)
        # (0,1) removable via witness 2: decision exists and excludes 1.
        assert result.logical_neighbors == frozenset({2})

    def test_flags(self):
        m = BaselineConsistency()
        assert not m.recompute_on_packet
        assert not m.synchronized_versions


class TestViewSynchronization:
    def test_uses_last_advertised_position(self, table, current):
        # Advertised position is (0,0); current is (0.5,0) — the decision
        # must be identical to one taken from (0,0).
        vs = decide(ViewSynchronization(), RngProtocol(), table, 1.0, current)
        base_from_advertised = decide(
            BaselineConsistency(), RngProtocol(), table, 1.0, table.last_advertised.position
        )
        assert vs.logical_neighbors == base_from_advertised.logical_neighbors

    def test_falls_back_to_current_when_never_advertised(self, current):
        empty = NeighborTable(owner=0, normal_range=100.0)
        empty.record_hello(make_hello(1, (10, 0), sent_at=0.0))
        result = decide(ViewSynchronization(), RngProtocol(), empty, 1.0, current)
        assert 1 in result.logical_neighbors

    def test_recomputes_on_packet(self):
        assert ViewSynchronization().recompute_on_packet


class TestProactive:
    def test_decides_on_requested_version(self, table, current):
        table.record_own(make_hello(0, (0, 0), version=2, sent_at=1.0))
        table.record_hello(make_hello(1, (50, 0), version=2, sent_at=1.1))
        r1 = decide(ProactiveConsistency(), RngProtocol(), table, 2.0, current, version=1)
        r2 = decide(ProactiveConsistency(), RngProtocol(), table, 2.0, current, version=2)
        # version-2 view lacks node 2, so the long link (0,1) survives there.
        assert 1 not in r1.logical_neighbors
        assert 1 in r2.logical_neighbors

    def test_default_version_is_latest(self, table, current):
        result = decide(ProactiveConsistency(), RngProtocol(), table, 1.0, current)
        assert result.logical_neighbors == frozenset({2})

    def test_falls_back_to_older_version(self, table, current):
        # Version 5 never advertised: fall back to version 1.
        result = decide(
            ProactiveConsistency(), RngProtocol(), table, 1.0, current, version=5
        )
        assert result.logical_neighbors == frozenset({2})

    def test_raises_before_first_advertisement(self, current):
        empty = NeighborTable(owner=0, normal_range=100.0)
        with pytest.raises(ViewError):
            decide(ProactiveConsistency(), RngProtocol(), empty, 0.0, current)

    def test_flags(self):
        m = ProactiveConsistency()
        assert m.recompute_on_packet and m.synchronized_versions


class TestReactive:
    def test_inherits_versioned_behavior(self, table, current):
        result = decide(
            ReactiveConsistency(), RngProtocol(), table, 1.0, current, version=1
        )
        assert result.logical_neighbors == frozenset({2})

    def test_does_not_recompute_on_packet(self):
        m = ReactiveConsistency()
        assert not m.recompute_on_packet and m.synchronized_versions


class TestWeak:
    def test_conservative_selection_keeps_more(self, current):
        # Neighbor 1 oscillates: conservative mode must keep the link that
        # a single-version view would drop.
        t = NeighborTable(owner=0, normal_range=100.0, history_depth=3, expiry=10.0)
        t.record_own(make_hello(0, (0, 0), version=1, sent_at=0.0))
        t.record_hello(make_hello(1, (10, 0), version=1, sent_at=0.0))
        t.record_hello(make_hello(1, (4, 0), version=2, sent_at=1.0))
        t.record_hello(make_hello(2, (5, 1), version=1, sent_at=0.0))
        weak = decide(WeakConsistency(), MstProtocol(), t, 1.5, current)
        base = decide(BaselineConsistency(), MstProtocol(), t, 1.5, current)
        assert base.logical_neighbors <= weak.logical_neighbors

    def test_history_depth_is_not_a_mechanism_option(self):
        # The retained depth k sizes the neighbor tables and comes from
        # ScenarioConfig.history_depth alone; the mechanism takes no depth.
        with pytest.raises(ConfigurationError, match="history_depth"):
            make_mechanism("weak", history_depth=5)


class TestMakeMechanism:
    @pytest.mark.parametrize(
        "name", ["baseline", "view-sync", "proactive", "reactive", "weak"]
    )
    def test_all_names_constructible(self, name):
        assert make_mechanism(name).name == name

    def test_kwargs_forwarded(self):
        m = make_mechanism("gossip", fanout=5)
        assert m.fanout == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(ViewError):
            make_mechanism("nope")
