"""Tests for repro.core.manager: the mobility-sensitive TC orchestrator."""

from __future__ import annotations

import pytest

from conftest import gather, make_hello
from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import (
    ViewSynchronization,
    WeakConsistency,
    available_mechanisms,
    make_mechanism,
)
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.tables import NeighborTable
from repro.protocols import CbtcProtocol, RngProtocol
from repro.util.errors import ConfigurationError, ProtocolError, ViewError


@pytest.fixture
def table():
    t = NeighborTable(owner=0, normal_range=100.0, expiry=10.0)
    t.record_own(make_hello(0, (0, 0), sent_at=0.0))
    t.record_hello(make_hello(1, (10, 0), sent_at=0.1))
    t.record_hello(make_hello(2, (5, 1), sent_at=0.2))
    return t


@pytest.fixture
def current():
    """The owner's current position."""
    return (0.0, 0.0)


class TestDecide:
    def test_buffer_extends_range(self, table, current):
        mstc = MobilitySensitiveTopologyControl(
            RngProtocol(), buffer_policy=BufferZonePolicy(width=10.0)
        )
        decision = mstc.decide(table, 1.0, current)
        assert decision.extended_range == pytest.approx(decision.actual_range + 10.0)

    def test_no_buffer_by_default(self, table, current):
        mstc = MobilitySensitiveTopologyControl(RngProtocol())
        decision = mstc.decide(table, 1.0, current)
        assert decision.extended_range == decision.actual_range

    def test_decision_carries_time_and_owner(self, table, current):
        mstc = MobilitySensitiveTopologyControl(RngProtocol())
        decision = mstc.decide(table, 1.0, current)
        assert decision.owner == 0 and decision.decided_at == 1.0

    def test_logical_set_comes_from_protocol(self, table, current):
        mstc = MobilitySensitiveTopologyControl(RngProtocol())
        assert mstc.decide(table, 1.0, current).logical_neighbors == frozenset({2})


#: The mechanisms whose decision at an owner that has not advertised
#: reads its current position.
READING = ("baseline", "gossip", "view-sync", "weak")


def reads_position(mechanism, table) -> bool:
    """Whether a decision at *table*'s owner reads its current position:
    the mechanism's ``resolve`` refuses a None one."""
    try:
        mechanism.resolve(table, None, None)
    except ConfigurationError:
        return True
    except ViewError:
        pass
    return False


class TestNoCurrentHello:
    """A table whose owner has not advertised, decided with no current
    position: every mechanism that reads it refuses, naming the owner
    and itself, before any cache stamp is stored or counted."""

    @pytest.fixture
    def unadvertised(self):
        t = NeighborTable(owner=7, normal_range=100.0, expiry=10.0)
        t.record_hello(make_hello(1, (10, 0), sent_at=0.1))
        return t

    @pytest.mark.parametrize("entry", ["decide", "decide_many", "gather"])
    @pytest.mark.parametrize("name", available_mechanisms())
    def test_refused_before_the_cache(self, name, entry, unadvertised):
        mstc = MobilitySensitiveTopologyControl(RngProtocol(), make_mechanism(name))
        call = {
            "decide": lambda: mstc.decide(unadvertised, 1.0, None),
            "decide_many": lambda: mstc.decide_many([unadvertised], 1.0, [None]),
            "gather": lambda: mstc.gather([unadvertised], 1.0, [None]),
        }[entry]
        if reads_position(mstc.mechanism, unadvertised):
            with pytest.raises(ConfigurationError, match=rf"node 7 .*'{name}'"):
                call()
            assert mstc.cache_info() == dict.fromkeys(mstc.cache_info(), 0)
            assert not mstc._cache.stamps
        elif entry == "decide":
            # Versioned views never read it: no advertisement, no view.
            with pytest.raises(ViewError):
                call()
        elif entry == "decide_many":
            assert call() == [None]
        else:
            assert list(call().errors) == [0]
        # The mechanism's own entry points refuse alike.
        if reads_position(mstc.mechanism, unadvertised):
            with pytest.raises(ConfigurationError, match="node 7"):
                mstc.mechanism.resolve_many([unadvertised], [None], None)
            with pytest.raises(ConfigurationError, match="node 7"):
                mstc.mechanism.resolve(unadvertised, None, None)
            with pytest.raises(ConfigurationError, match="node 7"):
                gather(mstc.mechanism, [unadvertised], 1.0, [None])

    @pytest.mark.parametrize("name", READING)
    def test_gather_refuses_before_storing_any_row(self, name, table, unadvertised):
        """An owner that can decide, then one that reads a missing
        position: the gather raises, and the first owner's stamp is not
        stored."""
        mstc = MobilitySensitiveTopologyControl(RngProtocol(), make_mechanism(name))
        current = (0.0, 0.0)
        with pytest.raises(ConfigurationError, match=rf"node 7 .*'{name}'"):
            mstc.gather([table, unadvertised], 1.0, [current, None], phase="hello")
        assert mstc.cache_info() == dict.fromkeys(mstc.cache_info(), 0)
        assert not mstc._cache.stamps

    def test_every_reading_mechanism_is_covered(self, unadvertised):
        reads = {
            name
            for name in available_mechanisms()
            if reads_position(make_mechanism(name), unadvertised)
        }
        assert reads == set(READING)


class TestConfiguration:
    def test_weak_mechanism_requires_conservative_protocol(self):
        with pytest.raises(ProtocolError):
            MobilitySensitiveTopologyControl(CbtcProtocol(), mechanism=WeakConsistency())

    def test_weak_with_condition_protocol_ok(self):
        mstc = MobilitySensitiveTopologyControl(RngProtocol(), mechanism=WeakConsistency())
        assert mstc.mechanism.name == "weak"

    def test_recompute_flag_delegates(self):
        mstc = MobilitySensitiveTopologyControl(
            RngProtocol(), mechanism=ViewSynchronization()
        )
        assert mstc.recompute_on_packet
        assert not mstc.synchronized_versions

    def test_describe_label(self):
        mstc = MobilitySensitiveTopologyControl(
            RngProtocol(),
            mechanism=ViewSynchronization(),
            buffer_policy=BufferZonePolicy(width=10.0),
            physical_neighbor_mode=True,
        )
        assert mstc.describe() == "rng+view-sync+buf10+pn"

    def test_describe_minimal(self):
        assert MobilitySensitiveTopologyControl(RngProtocol()).describe() == "rng+baseline"
