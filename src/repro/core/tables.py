"""Per-node neighbor tables: the Hello history behind every local view.

A :class:`NeighborTable` stores the ``k`` most recent Hellos per 1-hop
neighbor (plus the owner's own advertisement history) and materialises the
three kinds of views the paper's mechanisms need:

- the *latest* single-version view (baseline and view-synchronization),
- a *versioned* view using one global Hello version everywhere (proactive
  and reactive strong consistency, Theorem 2's ``|M(t, v)| = 1``),
- the *multi-version* view (weak consistency, Definition 2).
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from repro.core.views import Hello, LocalView, MultiVersionView
from repro.util.errors import ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = ["NeighborTable", "ColumnarNeighborTable"]

#: process-wide table identities for the decision-cache fingerprints
_TABLE_UIDS = itertools.count()


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
    """

    def __init__(
        self,
        owner: int,
        normal_range: float,
        history_depth: int = 3,
        expiry: float = 2.5,
    ) -> None:
        self.owner = owner
        self.normal_range = check_positive("normal_range", normal_range)
        self.history_depth = check_int_range("history_depth", history_depth, 1)
        self.expiry = check_positive("expiry", expiry)
        self._records: dict[int, deque[Hello]] = {}
        self._own: deque[Hello] = deque(maxlen=self.history_depth)
        self.hellos_received = 0
        #: unique per-instance identity + monotone content revision; together
        #: they identify the retained Hello state exactly (every mutation of
        #: the records or own history bumps ``mutations``), which is what the
        #: decision cache fingerprints instead of hashing all stored Hellos.
        self.uid = next(_TABLE_UIDS)
        self.mutations = 0

    # ------------------------------------------------------------------ #
    # recording

    def record_own(self, hello: Hello) -> None:
        """Remember a Hello the owner just advertised."""
        if hello.sender != self.owner:
            raise ViewError(f"record_own got a Hello from {hello.sender}, not {self.owner}")
        self._own.append(hello)
        self.mutations += 1

    def record_hello(self, hello: Hello) -> None:
        """Store a received neighbor Hello (keeps the newest ``k``)."""
        if hello.sender == self.owner:
            raise ViewError("a node does not receive its own Hello")
        queue = self._records.get(hello.sender)
        if queue is None:
            queue = deque(maxlen=self.history_depth)
            self._records[hello.sender] = queue
        queue.append(hello)
        self.hellos_received += 1
        self.mutations += 1

    def prune(self, now: float) -> None:
        """Drop neighbors not heard from within the expiry window."""
        stale = [
            nid for nid, q in self._records.items() if now - q[-1].sent_at > self.expiry
        ]
        for nid in stale:
            del self._records[nid]
        if stale:
            self.mutations += 1

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
            return sorted(self._records)
        return sorted(
            nid
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        )

    def history_of(self, neighbor: int) -> tuple[Hello, ...]:
        """Retained Hellos of one neighbor, oldest first."""
        queue = self._records.get(neighbor)
        return tuple(queue) if queue else ()

    def message_versions_in_use(self, neighbor: int) -> set[int]:
        """Versions of *neighbor*'s Hellos currently retained (``M(t, v)``)."""
        return {h.version for h in self.history_of(neighbor)}

    # ------------------------------------------------------------------ #
    # decision-cache tokens

    def live_view_token(self, now: float) -> tuple:
        """Hashable token identifying every expiry-filtered view at *now*.

        ``(uid, mutations)`` pins the exact retained Hello state (member
        ids, versions, advertised positions); the live-neighbor id tuple
        additionally pins which of those neighbors the ``[t - expiry, t]``
        rule admits, which can change with *now* alone.  Two equal tokens
        therefore guarantee :meth:`latest_view` and :meth:`multi_view`
        (up to the separately supplied own Hello) produce equal views.
        """
        return (
            self.uid,
            self.mutations,
            tuple(
                nid
                for nid, q in self._records.items()
                if now - q[-1].sent_at <= self.expiry
            ),
        )

    def full_token(self) -> tuple:
        """Hashable token identifying the complete retained Hello state.

        Versioned views ignore the expiry window, so ``(uid, mutations)``
        alone pins every :meth:`versioned_view` and the
        :meth:`available_versions` fallback resolution.
        """
        return (self.uid, self.mutations)

    # ------------------------------------------------------------------ #
    # view materialisation

    def latest_view(self, now: float, own_hello: Hello) -> LocalView:
        """Single-version view from each neighbor's most recent live Hello."""
        neighbors = {
            nid: q[-1]
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        }
        return LocalView(
            owner=self.owner,
            own_hello=own_hello,
            neighbor_hellos=neighbors,
            normal_range=self.normal_range,
            sampled_at=now,
        )

    def latest_positions(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """IDs and ``(m, 2)`` positions of :meth:`latest_view`'s neighbors.

        Same members in the same record order, as arrays: the form batched
        selection reads instead of Hello objects.
        """
        live = [
            q[-1] for q in self._records.values() if now - q[-1].sent_at <= self.expiry
        ]
        ids = np.array([h.sender for h in live], dtype=np.int64)
        xy = np.array([h.position for h in live], dtype=np.float64).reshape(-1, 2)
        return ids, xy

    def advertisement(self, version: int) -> Hello:
        """The owner's oldest retained own Hello of *version*.

        Raises :class:`ViewError` when the owner has not advertised that
        version (or it has left the retained history).
        """
        own = next((h for h in self._own if h.version == version), None)
        if own is None:
            raise ViewError(
                f"node {self.owner} has not advertised version {version} yet"
            )
        return own

    def versioned_view(self, now: float, version: int) -> LocalView:
        """View built *only* from Hellos carrying the given global version.

        Neighbors with no retained Hello of that version are absent — the
        proactive scheme's rule that enforces ``|M(t, v)| = 1``.  The
        owner's own record must exist for that version.
        """
        return LocalView(
            owner=self.owner,
            own_hello=self.advertisement(version),
            neighbor_hellos=self._versioned_hellos(version),
            normal_range=self.normal_range,
            sampled_at=now,
        )

    def _versioned_hellos(self, version: int) -> dict[int, Hello]:
        """Per neighbor, the oldest retained Hello of *version* (record order)."""
        neighbors: dict[int, Hello] = {}
        for nid, q in self._records.items():
            match = next((h for h in q if h.version == version), None)
            if match is not None:
                neighbors[nid] = match
        return neighbors

    def versioned_positions(self, version: int) -> tuple[np.ndarray, np.ndarray]:
        """IDs and ``(m, 2)`` positions of :meth:`versioned_view`'s neighbors.

        Same members in the same record order, as arrays; like
        :meth:`latest_positions`, the owner is not included and its own
        record is not required.
        """
        matches = self._versioned_hellos(version).values()
        ids = np.array([h.sender for h in matches], dtype=np.int64)
        xy = np.array([h.position for h in matches], dtype=np.float64).reshape(-1, 2)
        return ids, xy

    def available_versions(self) -> set[int]:
        """Versions for which the owner has advertised (candidates for views)."""
        return {h.version for h in self._own}

    def multi_view(self, now: float, own_hello: Hello | None = None) -> MultiVersionView:
        """Multi-version view over all retained live Hellos (weak consistency).

        The owner contributes its advertisement history; *own_hello*, when
        given, is appended as the freshest own record (a node always knows
        where it is *now* — but under weak consistency its neighbors may be
        using any of its retained advertisements, hence the history).
        """
        own = list(self._own)
        if own_hello is not None:
            own.append(own_hello)
        if not own:
            raise ViewError(f"node {self.owner} has no own position record")
        neighbors = {
            nid: tuple(q)
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        }
        return MultiVersionView(
            owner=self.owner,
            own_hellos=own,
            neighbor_hellos=neighbors,
            normal_range=self.normal_range,
            sampled_at=now,
        )


class ColumnarNeighborTable(NeighborTable):
    """Per-node facade over a world-level columnar :class:`NeighborState`.

    Behaviourally identical to :class:`NeighborTable` — same tokens, same
    views, same counter rules, same insertion orderings — but received
    Hellos live in the shared struct-of-arrays storage
    (:class:`~repro.core.neighbor_state.NeighborState`), which the batched
    delivery pipeline updates with one vectorized splice per transmission
    instead of one Python call per receiver.  The owner's *own*
    advertisement history stays in this object (it is written once per
    Hello, never per receiver).

    Parameters are those of :class:`NeighborTable` plus *state*, the
    shared columnar store; ``history_depth`` must match the store's.
    """

    def __init__(
        self,
        owner: int,
        normal_range: float,
        state,
        history_depth: int = 3,
        expiry: float = 2.5,
    ) -> None:
        if history_depth != state.k:
            raise ViewError(
                f"table history_depth={history_depth} does not match the "
                f"columnar store's k={state.k}"
            )
        self._state = state
        super().__init__(owner, normal_range, history_depth, expiry)

    # -- counters live in the shared per-node arrays ------------------- #

    @property
    def hellos_received(self) -> int:  # type: ignore[override]
        return int(self._state.hellos_received[self.owner])

    @hellos_received.setter
    def hellos_received(self, value: int) -> None:
        self._state.hellos_received[self.owner] = value

    @property
    def mutations(self) -> int:  # type: ignore[override]
        return int(self._state.mutations[self.owner])

    @mutations.setter
    def mutations(self, value: int) -> None:
        self._state.mutations[self.owner] = value

    # -- recording ------------------------------------------------------ #

    def record_hello(self, hello: Hello) -> None:
        """Scalar reception path (kept for API/test parity; the simulator
        delivers through :meth:`NeighborState.record_batch` instead)."""
        if hello.sender == self.owner:
            raise ViewError("a node does not receive its own Hello")
        self._state.record_one(self.owner, hello)

    def prune(self, now: float) -> None:
        self._state.prune(self.owner, now, self.expiry)

    # -- introspection --------------------------------------------------- #

    def known_neighbors(self, now: float | None = None) -> list[int]:
        if now is None:
            return sorted(self._state.senders(self.owner))
        return sorted(self._state.live_ids(self.owner, now, self.expiry))

    def history_of(self, neighbor: int) -> tuple[Hello, ...]:
        return self._state.history(self.owner, neighbor)

    # -- decision-cache tokens ------------------------------------------- #

    def live_view_token(self, now: float) -> tuple:
        return (
            self.uid,
            self.mutations,
            self._state.live_ids(self.owner, now, self.expiry),
        )

    # -- view materialisation -------------------------------------------- #

    def latest_view(self, now: float, own_hello: Hello) -> LocalView:
        return LocalView(
            owner=self.owner,
            own_hello=own_hello,
            neighbor_hellos=self._state.latest_live(self.owner, now, self.expiry),
            normal_range=self.normal_range,
            sampled_at=now,
        )

    def latest_positions(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        return self._state.latest_positions(self.owner, now, self.expiry)

    def _versioned_hellos(self, version: int) -> dict[int, Hello]:
        return self._state.versioned_hellos(self.owner, version)

    def versioned_positions(self, version: int) -> tuple[np.ndarray, np.ndarray]:
        return self._state.versioned_positions(self.owner, version)

    def multi_view(self, now: float, own_hello: Hello | None = None) -> MultiVersionView:
        own = list(self._own)
        if own_hello is not None:
            own.append(own_hello)
        if not own:
            raise ViewError(f"node {self.owner} has no own position record")
        return MultiVersionView(
            owner=self.owner,
            own_hellos=own,
            neighbor_hellos=self._state.live_histories(self.owner, now, self.expiry),
            normal_range=self.normal_range,
            sampled_at=now,
        )
