"""Hello-free single-version decisions: the versioned gather and its users.

Three layers:

- the columnar versioned gather (:func:`pin_versioned_members` read at
  once by :func:`read_pinned`) on a standalone table and on one whose
  row sits in a shared store, against the members of the reference
  :func:`versioned_view` and the
  ``next(h for h in history if h.version == v)`` rule — ring wrap-around,
  repeated versions, a version nobody holds, an empty directory;
- the reference :func:`versioned_view`, whose Hellos (one per matching
  sender, built from the retained histories) must be the ones in each
  history;
- the mechanisms: a batched decision (``gather`` + ``select`` of one
  owner and of many) against the LocalView route it replaced, on every
  proactive fallback branch including the :class:`ViewError` one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import select_all, select_one
from neighbor_oracles import (
    advertisement,
    available_versions,
    history_of,
    latest_view,
    versioned_view,
)
from repro.core.consistency import (
    BaselineConsistency,
    GossipConsistency,
    ProactiveConsistency,
    ReactiveConsistency,
    ViewSynchronization,
)
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable, pin_versioned_members, read_pinned
from repro.core.views import Hello
from repro.protocols import RngProtocol, make_protocol
from repro.util.errors import ViewError

#: non-zero, so a standalone table's private row differs from its owner
OWNER = 6
EXPIRY = 1.0
VERSIONS = range(-1, 6)

# One operation on the receiver's table: a Hello (sender, version, x, y)
# or an own advertisement (version).  Time advances by 0.3 s per
# operation.
hello_op = st.tuples(
    st.just("hello"),
    st.integers(1, 5),
    st.integers(0, 4),
    st.integers(0, 60).map(float),
    st.integers(0, 60).map(float),
)
own_op = st.tuples(st.just("own"), st.integers(0, 4))
operations = st.lists(st.one_of(hello_op, hello_op, hello_op, own_op), max_size=40)


def _hello(sender, version, xy, t):
    return Hello(sender, version, (float(xy[0]), float(xy[1])), t, t + 0.001)


def _replay(ops, k):
    """``(standalone table, shared-store table)`` after *ops*, at the
    final time.

    The shared store has a second receiver that hears every Hello too,
    so the owner's slots interleave with another receiver's.
    """
    state = NeighborState(8, history_depth=k)
    alone = NeighborTable(OWNER, 50.0, history_depth=k, expiry=EXPIRY)
    shared = NeighborTable(
        OWNER, 50.0, history_depth=k, expiry=EXPIRY, state=state
    )
    t = 0.0
    for op in ops:
        t += 0.3
        if op[0] == "hello":
            _, sender, version, x, y = op
            hello = _hello(sender, version, (x, y), t)
            alone.record_hello(hello)
            state.record_batch(hello, np.array([OWNER, 7]))
        else:
            own = _hello(OWNER, op[1], (0.0, 0.0), t)
            alone.record_own(own)
            shared.record_own(own)
    return alone, shared, t


def _reference(table, version):
    """``{sender: position}`` by the first-match rule over the history."""
    out = {}
    for nid in table.known_neighbors():
        match = next((h for h in history_of(table, nid) if h.version == version), None)
        if match is not None:
            out[nid] = match.position
    return out


def _as_map(ids, xy):
    return dict(zip(ids.tolist(), map(tuple, xy.tolist())))


def _positions(table, version):
    """One table's version-*version* members, from the columnar gather."""
    _, ids, xy = read_pinned(pin_versioned_members([table], [version]))
    return ids, xy


class TestVersionedPositions:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations, k=st.integers(1, 3))
    def test_gather_matches_versioned_view_on_both_tables(self, ops, k):
        scalar, columnar, now = _replay(ops, k)
        for version in VERSIONS:
            gathered = []
            for table in (scalar, columnar):
                ids, xy = _positions(table, version)
                assert ids.dtype == np.int64 and xy.shape == (ids.size, 2)
                assert _as_map(ids, xy) == _reference(table, version)
                if version in available_versions(table):
                    view = versioned_view(table, now, version)
                    view_ids, view_pts = view.positions()
                    members = {
                        i: tuple(p)
                        for i, p in zip(view_ids, view_pts.tolist())
                        if i != OWNER
                    }
                    assert _as_map(ids, xy) == members
                    assert ids.tolist() == list(view.neighbor_hellos)
                gathered.append(ids.tolist())
            assert gathered[0] == gathered[1]

    @settings(max_examples=150, deadline=None)
    @given(ops=operations, k=st.integers(1, 3))
    def test_columnar_versioned_view_hellos_are_identical(self, ops, k):
        *tables, now = _replay(ops, k)
        for table in tables:
            for version in available_versions(table):
                view = versioned_view(table, now, version)
                want = {}
                for nid in table.known_neighbors():
                    history = history_of(table, nid)
                    match = next((h for h in history if h.version == version), None)
                    if match is not None:
                        want[nid] = match
                assert view.neighbor_hellos == want
                assert list(view.neighbor_hellos) == [
                    nid for nid in table._state.senders(table._row) if nid in want
                ]
                assert view.own_hello == advertisement(table, version)

    def _tables(self, k=2):
        state = NeighborState(8, history_depth=k)
        return (
            NeighborTable(OWNER, 50.0, history_depth=k, expiry=EXPIRY),
            NeighborTable(OWNER, 50.0, history_depth=k, expiry=EXPIRY,
                          state=state),
        )

    def test_empty_directory(self):
        for table in self._tables():
            ids, xy = _positions(table, 1)
            assert ids.shape == (0,) and xy.shape == (0, 2)

    def test_ring_wrap_and_repeated_version(self):
        # k=2: sender 1 writes versions 1, 2, 2, 3 — the ring keeps (2, 3)
        # after wrapping; sender 2 writes 4, 4 — the oldest of the two wins.
        writes = [(1, 1, (1, 0)), (1, 2, (2, 0)), (1, 2, (3, 0)), (1, 3, (4, 0)),
                  (2, 4, (5, 0)), (2, 4, (6, 0))]
        for table in self._tables():
            for i, (sender, version, xy) in enumerate(writes):
                table.record_hello(_hello(sender, version, xy, 0.1 * i))
            assert _as_map(*_positions(table, 1)) == {}
            assert _as_map(*_positions(table, 2)) == {1: (3.0, 0.0)}
            assert _as_map(*_positions(table, 3)) == {1: (4.0, 0.0)}
            assert _as_map(*_positions(table, 4)) == {2: (5.0, 0.0)}
            assert _as_map(*_positions(table, 9)) == {}



# --------------------------------------------------------------------- #
# mechanisms: batched decisions against the LocalView route


def _old_proactive_view(table, now, version):
    """The LocalView the proactive scheme decided from before batching."""
    if version is None:
        version = max(available_versions(table), default=None)
        if version is None:
            raise ViewError("not advertised")
    try:
        return versioned_view(table, now, version)
    except ViewError:
        candidates = [v for v in available_versions(table) if v < version]
        if not candidates:
            raise
        return versioned_view(table, now, max(candidates))


requested = st.one_of(st.none(), st.sampled_from(list(VERSIONS)))


class TestProactiveDecisions:
    @pytest.mark.parametrize("mechanism", [ProactiveConsistency(),
                                           ReactiveConsistency()])
    @settings(max_examples=100, deadline=None)
    @given(
        histories=st.lists(st.tuples(operations, st.integers(1, 3)),
                           min_size=1, max_size=4),
        version=requested,
    )
    def test_decide_and_decide_many_agree_on_every_branch(
        self, mechanism, histories, version
    ):
        protocol = RngProtocol()
        tables, expected = [], []
        for ops, k in histories:
            for table in _replay(ops, k)[:2]:
                tables.append(table)
                try:
                    view = _old_proactive_view(table, 10.0, version)
                except ViewError:
                    with pytest.raises(ViewError):
                        select_one(mechanism, protocol, table, 10.0, None, version=version)
                    expected.append(None)
                    continue
                result = select_one(mechanism, protocol, table, 10.0, None, version=version)
                assert result == protocol.select(view)
                expected.append(result)
        got = select_all(
            mechanism, protocol, tables, 10.0, [None] * len(tables), version=version
        )
        assert got == expected

    def _table(self):
        table = NeighborTable(OWNER, 50.0, history_depth=3)
        for v in (2, 3, 5):
            table.record_own(_hello(OWNER, v, (0.0, 0.0), float(v)))
            table.record_hello(_hello(1, v, (10.0 * v, 0.0), float(v)))
        return table

    @pytest.mark.parametrize(
        "version, used",
        [(None, 5), (3, 3), (4, 3), (9, 5), (1, None), (-1, None)],
        ids=["newest", "exact", "fallback", "fallback-far", "none-lower",
             "negative"],
    )
    def test_fallback_branches(self, version, used):
        table = self._table()
        protocol = RngProtocol()
        mechanism = ProactiveConsistency()
        (many,) = select_all(mechanism, protocol, [table], 9.0, [None], version=version)
        if used is None:
            with pytest.raises(ViewError, match="has not advertised"):
                select_one(mechanism, protocol, table, 9.0, None, version=version)
            assert many is None
            return
        result = select_one(mechanism, protocol, table, 9.0, None, version=version)
        assert result == many
        assert result.actual_range == 10.0 * used

    def test_nothing_advertised(self):
        table = NeighborTable(OWNER, 50.0)
        with pytest.raises(ViewError, match="before advertising"):
            select_one(ProactiveConsistency(), RngProtocol(), table, 0.0, None)
        assert select_all(
            ProactiveConsistency(), RngProtocol(), [table], 0.0, [None]
        ) == [None]

    def test_protocol_without_batch_keeps_the_view_route(self):
        table = self._table()
        protocol = make_protocol("gabriel")
        result = select_one(ProactiveConsistency(), protocol, table, 9.0, None, version=4)
        assert result == protocol.select(versioned_view(table, 9.0, 3))


class TestLatestDecisions:
    @pytest.mark.parametrize(
        "mechanism",
        [BaselineConsistency(), ViewSynchronization(), GossipConsistency()],
        ids=lambda m: m.name,
    )
    @settings(max_examples=60, deadline=None)
    @given(ops=operations, k=st.integers(1, 3))
    def test_batch_of_one_matches_view_route(self, mechanism, ops, k):
        protocol = RngProtocol()
        current = _hello(OWNER, 9, (3.0, 4.0), 12.0)
        for table in _replay(ops, k)[:2]:
            now = 12.0
            own = current
            if mechanism.name != "baseline":
                own = table.last_advertised or current
            want = protocol.select(latest_view(table, now, own_hello=own))
            assert select_one(mechanism, protocol, table, now, current.position) == want
            assert select_all(mechanism, protocol, [table], now, [current.position]) == [want]
