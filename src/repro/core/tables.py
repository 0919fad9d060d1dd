"""Per-node neighbor tables: the Hello history behind every local view.

A :class:`NeighborTable` is one node's row of the neighbor store: the
``k`` most recent Hellos per 1-hop neighbor, plus the owner's own
advertisement history.  The paper's mechanisms decide from three kinds of
views over it:

- the *latest* single-version view (baseline and view-synchronization),
- a *versioned* view using one global Hello version everywhere (proactive
  and reactive strong consistency, Theorem 2's ``|M(t, v)| = 1``),
- the *multi-version* view (weak consistency, Definition 2).

Received Hellos live in a columnar
:class:`~repro.core.neighbor_state.NeighborState`: a world passes its
shared store, which its Hello delivery updates for every receiver of a
transmission at once; a table built alone keeps a private one-row store.

No view is built from Hellos.  The module functions
:func:`latest_members` and :func:`history_members` give each view's
members as arrays, read straight from the store for many tables at once;
versioned members are pinned now and read later, as of now
(:func:`pin_versioned_members`, :func:`read_pinned`).  Gossip, packets
and overhead accounting read the arrays of :meth:`~NeighborTable.newest`,
and the audit reads each pair's ring (:meth:`~NeighborTable.rings`).
The Hello-built views these gathers are tested against live with the
test suite, as free functions over a table.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.core.neighbor_state import NeighborState, VersionedRead
from repro.core.views import Hello
from repro.util.errors import ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = [
    "NeighborTable", "latest_members", "history_members",
    "pin_versioned_members", "read_pinned", "live_unchanged",
]

class NeighborTable:
    """Hello history of one node.

    Parameters
    ----------
    owner:
        Owning node's ID.
    normal_range:
        Normal transmission range (view link threshold).
    history_depth:
        How many recent Hellos to retain per neighbor (``k`` of Theorem 3).
    expiry:
        A neighbor whose most recent Hello is older than this many seconds
        is dropped from views (the paper's ``[t - Delta, t]`` link rule,
        with slack for jitter).
    state:
        Shared :class:`~repro.core.neighbor_state.NeighborState` whose row
        *owner* holds this node's received Hellos; its ``k`` must equal
        *history_depth*.  None (the default) gives the table a private
        one-row store.
    """

    def __init__(
        self,
        owner: int,
        normal_range: float,
        history_depth: int = 3,
        expiry: float = 2.5,
        state: NeighborState | None = None,
    ) -> None:
        self.owner = owner
        self.normal_range = check_positive("normal_range", normal_range)
        self.history_depth = check_int_range("history_depth", history_depth, 1)
        self.expiry = check_positive("expiry", expiry)
        if state is None:
            state = NeighborState(1, self.history_depth)
            self._row = 0
        elif state.k != self.history_depth:
            raise ViewError(
                f"table history_depth={history_depth} does not match the "
                f"neighbor store's k={state.k}"
            )
        else:
            self._row = owner
        self._state = state
        self._own: deque[Hello] = deque(maxlen=self.history_depth)

    @property
    def hellos_received(self) -> int:
        """Neighbor Hellos recorded so far."""
        return int(self._state.hellos_received[self._row])

    @property
    def mutations(self) -> int:
        """Monotone content revision: every change of the retained Hellos
        (received records or own history) bumps it.  With the table's
        identity it pins the retained state exactly, which is what the
        decision cache stamps."""
        return int(self._state.mutations[self._row])

    # ------------------------------------------------------------------ #
    # recording

    def record_own(self, hello: Hello) -> None:
        """Remember a Hello the owner just advertised."""
        if hello.sender != self.owner:
            raise ViewError(f"record_own got a Hello from {hello.sender}, not {self.owner}")
        self._own.append(hello)
        self._state.mutations[self._row] += 1

    def record_hello(self, hello: Hello) -> None:
        """Store a received neighbor Hello (keeps the newest ``k``)."""
        self.record_hellos((hello,))

    def record_hellos(self, hellos: Sequence[Hello]) -> None:
        """Store received neighbor Hellos, in order, in one splice."""
        if any(h.sender == self.owner for h in hellos):
            raise ViewError("a node does not receive its own Hello")
        self._state.record_entries(self._row, hellos)

    def prune(self, now: float) -> None:
        """Drop neighbors not heard from within the expiry window."""
        self._state.prune(self._row, now, self.expiry)

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def last_advertised(self) -> Hello | None:
        """The owner's most recent own advertisement, if any."""
        return self._own[-1] if self._own else None

    @property
    def own_history(self) -> tuple[Hello, ...]:
        """The owner's retained advertisements, oldest first."""
        return tuple(self._own)

    def known_neighbors(self, now: float | None = None) -> list[int]:
        """IDs of neighbors with a live (non-expired) Hello."""
        if now is None:
            return self.newest_row()[0].tolist()
        return sorted(self._state.live_ids(self._row, now, self.expiry))

    def newest(self, neighbors) -> tuple[np.ndarray, ...]:
        """``(version, sent_at, xy, timestamp)`` arrays of each neighbor's
        newest retained Hello (:meth:`NeighborState.newest`)."""
        return self._state.newest(self._row, neighbors)

    def newest_row(self) -> tuple[np.ndarray, ...]:
        """``(ids, version, sent_at, xy, timestamp)`` arrays of every
        neighbor's newest retained Hello, by ascending id
        (:meth:`NeighborState.newest_row`)."""
        return self._state.newest_row(self._row)

    @property
    def retained(self) -> int:
        """Neighbor Hellos retained over all pairs."""
        return self._state.retained(self._row)

    def rings(self, neighbors) -> tuple[np.ndarray, ...]:
        """``(held, version, sent_at, xy)`` arrays of each neighbor's
        retained Hellos, oldest first (:meth:`NeighborState.rings`)."""
        return self._state.rings(self._row, neighbors)

    def newest_advertised(self, version: int | None = None) -> Hello | None:
        """The owner's retained advertisement of the newest version up to
        *version* (of any version when None), the oldest one of that
        version, or None when there is none.

        One pass over the advertisement history: a versioned decision's
        own record, falling back to an older version when the owner has
        not reached *version*.
        """
        best = None
        for h in self._own:
            if (version is None or h.version <= version) and (
                best is None or h.version > best.version
            ):
                best = h
        return best


# ---------------------------------------------------------------------- #
# many tables at once


def _per_store(tables: Sequence[NeighborTable], read) -> tuple[np.ndarray, ...]:
    """``read(state, rows, expiry, which)`` over *tables*, concatenated.

    *which* selects the tables a call covers.  Tables on one shared store
    with one expiry (a world's) are read in one call; any other mix is
    read table by table.
    """
    first = tables[0]
    state, expiry = first._state, first.expiry
    if all(t._state is state and t.expiry == expiry for t in tables):
        return read(state, [t._row for t in tables], expiry, slice(None))
    parts = [
        read(t._state, [t._row], t.expiry, slice(i, i + 1))
        for i, t in enumerate(tables)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def latest_members(
    tables: Sequence[NeighborTable], now: float, expiry: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, ids, xy)``: the members of every table's latest view
    (its neighbors whose newest Hello is live, at those positions) as
    arrays, in record order, flat and grouped by table, with no Hello
    built (:meth:`~repro.core.neighbor_state.NeighborState.latest_members`);
    *expiry*, when given, replaces the tables' own."""
    return _per_store(
        tables,
        lambda state, rows, own, _: state.latest_members(
            rows, now, own if expiry is None else expiry
        ),
    )


def pin_versioned_members(
    tables: Sequence[NeighborTable], versions: Sequence[int]
) -> tuple[VersionedRead, ...]:
    """The members of each table's versioned view at its own version
    (its neighbors' oldest retained Hellos of that version; the owner's
    own record of it is not required), asked now, to be read by
    :func:`read_pinned` as of now: one pinned read per store (one for a
    world's tables)
    (:meth:`~repro.core.neighbor_state.NeighborState.pin`)."""
    versions = tuple(int(v) for v in versions)
    state = tables[0]._state
    if all(t._state is state for t in tables):
        return (state.pin(tuple(t._row for t in tables), versions),)
    return tuple(t._state.pin((t._row,), (v,)) for t, v in zip(tables, versions))


def read_pinned(reads: Sequence[VersionedRead]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, ids, xy)`` of every read in *reads*, in order, as
    :func:`latest_members` gives them; each store answers its reads not
    answered yet in one call
    (:meth:`~repro.core.neighbor_state.NeighborState.versioned_members`)."""
    stores: dict[int, list[VersionedRead]] = {}
    for read in reads:
        stores.setdefault(id(read.state), []).append(read)
    for group in stores.values():
        group[0].state.answer(group)
    if len(reads) == 1:
        return reads[0].members
    return tuple(np.concatenate(column) for column in zip(*(r.members for r in reads)))


def history_members(
    tables: Sequence[NeighborTable], now: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, ids, fills, xy)``: the members of every table's
    multi-version view, as :func:`latest_members` gives them, each with
    all ``fills[i]`` of its retained positions, oldest
    first (:meth:`~repro.core.neighbor_state.NeighborState
    .history_members`); the owner's own records are not included."""
    return _per_store(
        tables,
        lambda state, rows, expiry, _: state.history_members(rows, now, expiry),
    )


def live_unchanged(
    tables: Sequence[NeighborTable], then: Sequence[float], now: float
) -> np.ndarray:
    """Whether each table's live neighbors at *now* are those at its own
    ``then[b]``
    (:meth:`~repro.core.neighbor_state.NeighborState.live_unchanged`)."""
    then = np.asarray(then, dtype=float)
    return _per_store(
        tables,
        lambda state, rows, expiry, which: (
            state.live_unchanged(rows, then[which], now, expiry),
        ),
    )[0]
