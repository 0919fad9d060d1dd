"""Tests for repro.core.tables: neighbor tables and view materialisation."""

from __future__ import annotations

import pytest

from conftest import make_hello
from neighbor_oracles import (
    available_versions,
    history_of,
    latest_view,
    message_versions_in_use,
    multi_view,
    versioned_view,
)
from repro.core.neighbor_state import NO_VERSION, NeighborState
from repro.core.tables import NeighborTable
from repro.util.errors import ViewError


@pytest.fixture
def table():
    return NeighborTable(owner=0, normal_range=100.0, history_depth=3, expiry=2.5)


class TestRecording:
    def test_record_and_read_back(self, table):
        h = make_hello(1, (10, 0), sent_at=0.0)
        table.record_hello(h)
        assert history_of(table, 1) == (h,)
        assert table.hellos_received == 1

    def test_history_depth_bounds_queue(self, table):
        for i in range(5):
            table.record_hello(make_hello(1, (i, 0), version=i + 1, sent_at=float(i)))
        hist = history_of(table, 1)
        assert len(hist) == 3
        assert [h.version for h in hist] == [3, 4, 5]

    def test_own_hello_rejected_as_neighbor(self, table):
        with pytest.raises(ViewError):
            table.record_hello(make_hello(0, (0, 0)))

    def test_record_own(self, table):
        h = make_hello(0, (0, 0))
        table.record_own(h)
        assert table.last_advertised is h

    def test_record_own_rejects_foreign(self, table):
        with pytest.raises(ViewError):
            table.record_own(make_hello(3, (0, 0)))

    def test_unknown_neighbor_history_empty(self, table):
        assert history_of(table, 42) == ()


class TestExpiry:
    def test_known_neighbors_filters_stale(self, table):
        table.record_hello(make_hello(1, (1, 0), sent_at=0.0))
        table.record_hello(make_hello(2, (2, 0), sent_at=9.0))
        assert table.known_neighbors(now=10.0) == [2]
        assert table.known_neighbors() == [1, 2]

    def test_prune_drops_stale_records(self, table):
        table.record_hello(make_hello(1, (1, 0), sent_at=0.0))
        table.prune(now=10.0)
        assert history_of(table, 1) == ()

    def test_latest_view_excludes_expired(self, table):
        table.record_hello(make_hello(1, (1, 0), sent_at=0.0))
        table.record_hello(make_hello(2, (2, 0), sent_at=9.5))
        view = latest_view(table, 10.0, own_hello=make_hello(0, (0, 0), sent_at=10.0))
        assert 2 in view and 1 not in view


class TestVersionedViews:
    def _fill(self, table):
        table.record_own(make_hello(0, (0, 0), version=1, sent_at=0.0))
        table.record_own(make_hello(0, (0, 1), version=2, sent_at=1.0))
        table.record_hello(make_hello(1, (5, 0), version=1, sent_at=0.1))
        table.record_hello(make_hello(1, (6, 0), version=2, sent_at=1.1))
        table.record_hello(make_hello(2, (9, 0), version=1, sent_at=0.2))

    def test_versioned_view_selects_exact_version(self, table):
        self._fill(table)
        view = versioned_view(table, 2.0, version=1)
        assert view.position_of(1) == (5.0, 0.0)
        assert view.position_of(2) == (9.0, 0.0)
        assert view.own_hello.version == 1

    def test_versioned_view_drops_missing_versions(self, table):
        self._fill(table)
        view = versioned_view(table, 2.0, version=2)
        assert 1 in view and 2 not in view

    def test_versioned_view_requires_own_version(self, table):
        self._fill(table)
        with pytest.raises(ViewError):
            versioned_view(table, 2.0, version=7)

    def test_available_versions(self, table):
        self._fill(table)
        assert available_versions(table) == {1, 2}

    def test_message_versions_in_use(self, table):
        self._fill(table)
        assert message_versions_in_use(table, 1) == {1, 2}
        assert message_versions_in_use(table, 2) == {1}


class TestMultiView:
    def test_multi_view_carries_histories(self, table):
        table.record_own(make_hello(0, (0, 0), sent_at=0.0))
        table.record_hello(make_hello(1, (5, 0), version=1, sent_at=0.0))
        table.record_hello(make_hello(1, (6, 0), version=2, sent_at=1.0))
        view = multi_view(table, 1.5)
        assert [h.position for h in view.hellos_of(1)] == [(5.0, 0.0), (6.0, 0.0)]

    def test_multi_view_appends_current_hello(self, table):
        table.record_own(make_hello(0, (0, 0), version=1, sent_at=0.0))
        current = make_hello(0, (1, 1), version=2, sent_at=1.0)
        view = multi_view(table, 1.0, own_hello=current)
        assert view.hellos_of(0)[-1] is current

    def test_multi_view_without_any_own_record_raises(self, table):
        with pytest.raises(ViewError):
            multi_view(table, 0.0)

    def test_multi_view_filters_expired_neighbors(self, table):
        table.record_own(make_hello(0, (0, 0), sent_at=9.0))
        table.record_hello(make_hello(1, (5, 0), sent_at=0.0))
        view = multi_view(table, 10.0)
        assert 1 not in view


class TestStorage:
    """A table keeps its Hellos in a NeighborState row: a private one-row
    store when built alone, the owner's row of a shared store otherwise."""

    @staticmethod
    def _fill(table):
        table.record_own(make_hello(5, (0, 0), version=1, sent_at=0.0))
        table.record_hello(make_hello(2, (5, 0), version=1, sent_at=0.0))
        table.record_hello(make_hello(7, (9, 0), version=1, sent_at=0.5))
        table.record_hello(make_hello(2, (6, 0), version=2, sent_at=2.0))

    def test_standalone_table_with_nonzero_owner(self):
        table = NeighborTable(owner=5, normal_range=100.0, expiry=2.5)
        self._fill(table)
        assert table.known_neighbors() == [2, 7]
        assert table.known_neighbors(now=3.5) == [2]
        assert [h.version for h in history_of(table, 2)] == [1, 2]
        assert table.newest([2, 3, 7])[0].tolist() == [2, NO_VERSION, 1]
        assert table.hellos_received == 3 and table.mutations == 4
        assert table.retained == 3
        view = versioned_view(table, 3.5, version=1)
        assert view.owner == 5 and set(view.neighbor_hellos) == {2, 7}
        table.prune(now=3.5)
        assert history_of(table, 7) == () and table.mutations == 5
        assert table.retained == 2

    def test_shared_store_row_is_the_owner(self):
        state = NeighborState(8, history_depth=3)
        table = NeighborTable(owner=5, normal_range=100.0, state=state)
        other = NeighborTable(owner=6, normal_range=100.0, state=state)
        self._fill(table)
        assert state.senders(5) == [2, 7] and state.senders(6) == []
        assert other.known_neighbors() == [] and other.mutations == 0
        alone = NeighborTable(owner=5, normal_range=100.0)
        self._fill(alone)
        assert table.mutations == alone.mutations
        assert table.known_neighbors(1.0) == alone.known_neighbors(1.0)
        assert history_of(table, 2) == history_of(alone, 2)

    def test_history_depth_must_match_the_store(self):
        with pytest.raises(ViewError, match="history_depth"):
            NeighborTable(
                owner=0, normal_range=100.0, history_depth=2,
                state=NeighborState(4, history_depth=3),
            )


class TestValidation:
    def test_rejects_bad_history_depth(self):
        with pytest.raises(Exception):
            NeighborTable(owner=0, normal_range=100.0, history_depth=0)

    def test_rejects_bad_expiry(self):
        with pytest.raises(Exception):
            NeighborTable(owner=0, normal_range=100.0, expiry=0.0)
