"""Columnar neighbor state (struct-of-arrays Hello storage).

Every node keeps the ``k`` most recent Hellos per 1-hop neighbor.  At 10k
nodes a single Hello generation reaches hundreds of thousands of
(receiver, sender) pairs, so :class:`NeighborState` stores them
*columnar*: one flat NumPy ring buffer of shape ``(slots, k)`` per field
(version / position / sent_at / local timestamp; a position is an
``(x, y)`` pair, so its ring is ``(slots, k, 2)``), where a *slot* is
one (receiver, sender) pair and ``k`` is the retained history depth.
One Hello delivery updates every receiver of a transmission with a
single vectorized splice (:meth:`NeighborState.record_batch`).

- per-receiver sender *insertion order* is kept (an insertion-ordered
  ``dict[sender -> slot]`` directory per receiver, mirrored as a cached
  slot array that only a new or pruned pair invalidates); view members
  and view dict iteration follow it;
- a ring entry never written holds version :data:`NO_VERSION`, which no
  versioned read asks for;
- per-pair histories are bounded rings of depth ``k`` (oldest evicted),
  the exact ``deque(maxlen=k)`` behaviour;
- ``mutations`` / ``hellos_received`` counters live in flat per-node
  arrays: every recorded Hello bumps both, a prune that drops anything
  bumps ``mutations`` once.

Many receivers' views are read in one pass: :meth:`latest_members`,
:meth:`versioned_members` and :meth:`history_members` concatenate the
receivers' slot arrays, mask them, and return the members flat, grouped
by receiver, with no Hello built.  Every decision reads them: the
single-version mechanisms one position per member, weak consistency each
member's whole retained history, read oldest first from the ring
columns.  Single pairs (the world's stale discard, gossip, packet
forwarding) are read through :meth:`newest`, the newest entry per pair
as arrays, and overhead accounting reads the ring fills
(:meth:`retained`).  Writes share one splice body, reached from
:meth:`record_batch` (one Hello at many receivers) and
:meth:`record_entries` (many senders' Hellos at one receiver).

A versioned read can be asked now and answered later, as of the instant
it was asked (:meth:`pin`, :meth:`answer`): the decisions that read it
are selected only when something reads them.  The members of (receiver,
version ``v``) change only when a write to that receiver carries version
``v`` or overwrites a ring entry of version ``v`` (or a prune drops a
pair); before such a write the splice body answers the reads it would
change, and with nothing pinned that check is one test.

:meth:`rings` reads one receiver's pairs whole, ring by ring, oldest
first: the audit and the fuzzer's oracles check each pair's retained
entries there.  No read rebuilds a :class:`~repro.core.views.Hello`;
Hellos exist only where a node emits one and on gossip's wire.

The per-node facade over this storage is
:class:`~repro.core.tables.NeighborTable`; the Hello delivery that feeds
it lives in :mod:`repro.sim.world`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.views import Hello
from repro.util.validate import check_int_range

__all__ = ["NeighborState", "NO_VERSION", "VersionedRead"]

#: Version :meth:`NeighborState.newest` reads for a pair that holds no
#: Hello; below every version, so ``version <= newest`` is False for it.
NO_VERSION = np.iinfo(np.int64).min
#: Pinned version of a receiver no read is pinned at, and of one that
#: reads are pinned at under several versions (every write there answers
#: them); neither equals a Hello's version.
_UNPINNED = np.iinfo(np.int64).max
_MIXED = _UNPINNED - 1


class VersionedRead:
    """:meth:`NeighborState.versioned_members` of some receivers, asked at
    one instant and answered as of it (:meth:`NeighborState.pin`).

    ``members`` is None until answered, then ``(counts, ids, xy)``.
    """

    __slots__ = ("state", "rows", "versions", "members")

    def __init__(
        self, state: "NeighborState", rows: Sequence[int], versions: Sequence[int]
    ) -> None:
        self.state = state
        self.rows = rows
        self.versions = versions
        self.members: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


class NeighborState:
    """Columnar Hello storage for all (receiver, sender) pairs of a world.

    Parameters
    ----------
    n_nodes:
        Number of nodes (receivers) served.
    history_depth:
        Retained Hellos per (receiver, sender) pair (``k`` of Theorem 3).
    """

    __slots__ = (
        "n_nodes",
        "k",
        "mutations",
        "hellos_received",
        "_directory",
        "_version",
        "_xy",
        "_sent",
        "_ts",
        "_writes",
        "_latest_sent",
        "_slot_sender",
        "_n_slots",
        "_ages",
        "_row_slots",
        "_pins",
        "_pinned",
    )

    def __init__(self, n_nodes: int, history_depth: int) -> None:
        self.n_nodes = check_int_range("n_nodes", n_nodes, 1)
        self.k = check_int_range("history_depth", history_depth, 1)
        self.mutations = np.zeros(n_nodes, dtype=np.int64)
        self.hellos_received = np.zeros(n_nodes, dtype=np.int64)
        #: per-receiver ``{sender: slot}``; dict insertion order *is* the
        #: record order, which the view tokens depend on.
        self._directory: list[dict[int, int]] = [{} for _ in range(n_nodes)]
        cap = 1024
        k = self.k
        self._version = np.full((cap, k), NO_VERSION, dtype=np.int64)
        self._xy = np.zeros((cap, k, 2), dtype=np.float64)
        self._sent = np.zeros((cap, k), dtype=np.float64)
        self._ts = np.zeros((cap, k), dtype=np.float64)
        #: total writes per slot; ring head = writes % k, fill = min(writes, k)
        self._writes = np.zeros(cap, dtype=np.int64)
        #: sent_at of the newest entry per slot (freshness / expiry checks)
        self._latest_sent = np.full(cap, -np.inf, dtype=np.float64)
        self._slot_sender = np.zeros(cap, dtype=np.int64)
        #: slot 0 is never written: a pair that holds nothing reads it
        self._n_slots = 1
        #: ring ages, oldest first
        self._ages = np.arange(k)
        #: per-receiver directory slots as an array, None until read again
        #: after the directory changed
        self._row_slots: list[np.ndarray | None] = [None] * n_nodes
        #: receiver -> [(read, version)] of the unanswered reads pinned there
        self._pins: dict[int, list[tuple[VersionedRead, int]]] = {}
        #: per receiver its pinned version, _UNPINNED or _MIXED
        self._pinned = np.full(n_nodes, _UNPINNED, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # storage management

    def _grow(self, need: int) -> None:
        cap = self._version.shape[0]
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        if new_cap == cap:
            return
        for name, fill in (
            ("_version", NO_VERSION),
            ("_xy", 0.0),
            ("_sent", 0.0),
            ("_ts", 0.0),
        ):
            old = getattr(self, name)
            fresh = np.full((new_cap, *old.shape[1:]), fill, dtype=old.dtype)
            fresh[:cap] = old
            setattr(self, name, fresh)
        for name, fill in (
            ("_writes", 0),
            ("_slot_sender", 0),
            ("_latest_sent", -np.inf),
        ):
            old = getattr(self, name)
            fresh = np.full(new_cap, fill, dtype=old.dtype)
            fresh[:cap] = old
            setattr(self, name, fresh)

    def _slots(self, receivers, senders, create: bool = False) -> np.ndarray:
        """Slot of each (receiver, sender) pair.

        One side is a single node id and the other a list: many
        receivers of one sender, or many senders at one receiver.  A
        pair that holds nothing reads slot 0, or with *create* gets a new
        slot: the new pairs take one block of slots in pair order.
        """
        directory = self._directory
        one_row = isinstance(senders, list)
        if one_row:
            d = directory[receivers]
            found = [d.get(s, 0) for s in senders]
        else:
            found = [directory[r].get(senders, 0) for r in receivers]
        if create and 0 in found:
            fresh = [i for i, slot in enumerate(found) if not slot]
            pairs = [
                (receivers, senders[i]) if one_row else (receivers[i], senders)
                for i in fresh
            ]
            first = self._n_slots
            self._n_slots = end = first + len(pairs)
            if end > self._version.shape[0]:
                self._grow(end)
            self._slot_sender[first:end] = [s for _, s in pairs]
            row_slots = self._row_slots
            for slot, i, (r, s) in zip(range(first, end), fresh, pairs):
                found[i] = slot
                directory[r][s] = slot
                row_slots[r] = None
        return np.array(found, dtype=np.intp)

    # ------------------------------------------------------------------ #
    # writes

    def record_batch(self, hello: Hello, receivers: np.ndarray) -> None:
        """Record one Hello at every receiver in one vectorized splice.

        *receivers* must be unique node indices (the radio's surviving
        receiver array).  Equivalent to ``table.record_hello(hello)`` at
        each receiver, in array order.
        """
        if receivers.size:
            slots = self._slots(receivers.tolist(), hello.sender, create=True)
            self._splice(
                slots, receivers, 1,
                hello.version, hello.position, hello.sent_at, hello.timestamp,
            )

    def record_entries(self, receiver: int, hellos) -> None:
        """Record many senders' Hellos at one receiver in one splice.

        Equivalent to recording them one by one, in order: a sender that
        recurs starts a further splice.
        """
        if not hellos:
            return
        senders = [h.sender for h in hellos]
        if len(set(senders)) < len(senders):
            cut = next(i for i, s in enumerate(senders) if s in senders[:i])
            self.record_entries(receiver, hellos[:cut])
            self.record_entries(receiver, hellos[cut:])
            return
        self._splice(
            self._slots(receiver, senders, create=True), receiver, len(senders),
            *zip(*((h.version, h.position, h.sent_at, h.timestamp) for h in hellos)),
        )

    def _splice(self, slots, receivers, count, version, xy, sent, ts) -> None:
        """Write each entry at the ring head of its slot (slots distinct)
        and count *count* Hellos at each of *receivers*.

        First answers every pinned read the write changes: a read pinned
        at a written receiver under the entry's version or under the
        version it overwrites.  A pair this write opens holds no version
        yet, so a read answered here does not see it.
        """
        pos = self._writes[slots] % self.k
        if self._pins:
            pinned = self._pinned[receivers]
            hit = (
                (pinned == _MIXED)
                | (pinned == np.asarray(version))
                | (pinned == self._version[slots, pos])
            )
            if hit.any():
                self._answer_at(np.broadcast_to(receivers, hit.shape)[hit].tolist())
        self._version[slots, pos] = version
        self._xy[slots, pos] = xy
        self._sent[slots, pos] = sent
        self._ts[slots, pos] = ts
        self._writes[slots] += 1
        self._latest_sent[slots] = sent
        self.hellos_received[receivers] += count
        self.mutations[receivers] += count

    def prune(self, receiver: int, now: float, expiry: float) -> bool:
        """Drop *receiver*'s pairs not heard from within *expiry* seconds.

        Returns True (and bumps the receiver's mutation counter once)
        when anything was dropped.  Dropped slots are never reused, so a
        later Hello from the same sender starts a fresh history.
        """
        d = self._directory[receiver]
        if not d:
            return False
        latest = self._latest_sent
        stale = [s for s, slot in d.items() if now - latest[slot] > expiry]
        if not stale:
            return False
        if receiver in self._pins:
            self._answer_at([receiver])
        for s in stale:
            del d[s]
        self._row_slots[receiver] = None
        self.mutations[receiver] += 1
        return True

    # ------------------------------------------------------------------ #
    # deferred versioned reads

    def pin(self, rows: Sequence[int], versions: Sequence[int]) -> VersionedRead:
        """Ask :meth:`versioned_members` of *rows* at *versions* now, to be
        answered as of now by :meth:`answer`."""
        read = VersionedRead(self, rows, versions)
        pins, pinned = self._pins, self._pinned
        for row, version in zip(rows, versions):
            held = pins.setdefault(row, [])
            held.append((read, version))
            pinned[row] = version if len(held) == 1 or pinned[row] == version else _MIXED
        return read

    def answer(self, reads: Sequence[VersionedRead]) -> None:
        """Answer every read of *reads* not answered yet, in one
        :meth:`versioned_members` call, and unpin them."""
        todo = [read for read in reads if read.members is None]
        if not todo:
            return
        counts, ids, xy = self.versioned_members(
            [row for read in todo for row in read.rows],
            [v for read in todo for v in read.versions],
        )
        row_end = np.cumsum([len(read.rows) for read in todo])
        member_end = np.concatenate(([0], np.cumsum(counts)))[row_end].tolist()
        row_lo = member_lo = 0
        for read, row_hi, member_hi in zip(todo, row_end.tolist(), member_end):
            read.members = (
                counts[row_lo:row_hi], ids[member_lo:member_hi], xy[member_lo:member_hi]
            )
            row_lo, member_lo = row_hi, member_hi
            self.release(read)

    def release(self, read: VersionedRead) -> None:
        """Unpin *read*: no write answers it from now on."""
        pins, pinned = self._pins, self._pinned
        for row in read.rows:
            held = pins.pop(row, None)
            if held is None:
                continue
            rest = [entry for entry in held if entry[0] is not read]
            if rest:
                pins[row] = rest
                versions = {version for _, version in rest}
                pinned[row] = versions.pop() if len(versions) == 1 else _MIXED
            else:
                pinned[row] = _UNPINNED

    def _answer_at(self, receivers: list[int]) -> None:
        """Answer every read pinned at any of *receivers*."""
        reads = {
            id(read): read
            for r in receivers
            for read, _ in self._pins.get(r, ())
        }
        self.answer(list(reads.values()))

    # ------------------------------------------------------------------ #
    # reads

    def senders(self, receiver: int) -> list[int]:
        """Sender ids recorded at *receiver*, in insertion order."""
        return list(self._directory[receiver])

    def rings(
        self, receiver: int, senders
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each (*receiver*, sender) pair's retained entries, oldest first.

        Returns ``(held, version, sent_at, xy)``, ``(len(senders), k)``
        arrays (``xy`` with a trailing axis of 2): row ``i`` is
        ``senders[i]``'s ring in age order, and ``held[i, j]`` says
        whether age ``j`` holds an entry.  A young ring's unwritten ages
        come last; a pair that holds nothing holds none.
        """
        slots = self._slots(receiver, [int(s) for s in senders])
        cols, held = self._ring_columns(slots)
        at = (slots[:, np.newaxis], cols)
        return held, self._version[at], self._sent[at], self._xy[at]

    def newest(
        self, receivers, senders
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The newest retained entry of each (receiver, sender) pair.

        One side is a single node id and the other an array: one sender
        at many receivers, or many senders at one receiver.  Returns
        ``(version, sent_at, xy, timestamp)``; a pair that holds nothing
        reads version :data:`NO_VERSION` and ``sent_at`` ``-inf``.  A
        Hello of version ``v`` is strictly newer than what a receiver
        holds iff ``v > version``: the rule behind both the world's
        stale-delivery discard and the gossip merge.
        """
        if np.ndim(receivers) == 0:
            slots = self._slots(int(receivers), np.asarray(senders).tolist())
        else:
            slots = self._slots(np.asarray(receivers).tolist(), int(senders))
        at = (slots, (self._writes[slots] - 1) % self.k)
        return self._version[at], self._latest_sent[slots], self._xy[at], self._ts[at]

    def retained(self, receiver: int) -> int:
        """Hellos *receiver* retains over all its pairs (ring fills)."""
        return int(np.minimum(self._writes[self._slots_of(receiver)], self.k).sum())

    def _slots_of(self, receiver: int) -> np.ndarray:
        """*receiver*'s slots in insertion order (cached until its
        directory changes)."""
        slots = self._row_slots[receiver]
        if slots is None:
            d = self._directory[receiver]
            slots = np.fromiter(d.values(), dtype=np.intp, count=len(d))
            self._row_slots[receiver] = slots
        return slots

    def _gather(self, receivers) -> tuple[np.ndarray, np.ndarray]:
        """``(slot count per receiver, their slots concatenated)``."""
        arrays = [self._slots_of(r) for r in receivers]
        counts = np.fromiter(map(len, arrays), dtype=np.intp, count=len(arrays))
        if len(arrays) == 1:
            return counts, arrays[0]
        return counts, np.concatenate(arrays)

    def live_ids(self, receiver: int, now: float, expiry: float) -> tuple[int, ...]:
        """Sender ids with a live (non-expired) Hello, insertion order."""
        return tuple(self.latest_members([receiver], now, expiry)[1].tolist())

    def _live_slots(
        self, receivers, now: float, expiry: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(live slots per receiver, their slots concatenated)``: the
        pairs whose newest Hello is live, in insertion order."""
        counts, slots = self._gather(receivers)
        live = now - self._latest_sent[slots] <= expiry
        return _group_sizes(counts, live), slots[live]

    def latest_members(
        self, receivers, now: float, expiry: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Members of many receivers' latest views, flat and grouped.

        Returns ``(counts, ids, xy)``: ``counts[b]`` members for
        ``receivers[b]``, whose sender IDs and ``(m, 2)`` newest
        positions follow those of ``receivers[b - 1]`` in ``ids`` and
        ``xy``: per receiver, its senders whose newest Hello is live,
        in insertion order, read straight from the columns.
        """
        counts, slots = self._live_slots(receivers, now, expiry)
        head = (self._writes[slots] - 1) % self.k
        return counts, self._slot_sender[slots], self._xy[slots, head]

    def history_members(
        self, receivers, now: float, expiry: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`latest_members` with each member's whole retained history.

        Returns ``(counts, ids, fills, xy)``: ``counts[b]`` members for
        ``receivers[b]``, as :meth:`latest_members` gives them; member
        ``ids[i]`` holds ``fills[i]`` positions, which follow those of
        member ``i - 1`` in the ``(sum(fills), 2)`` array ``xy``, oldest
        first, read straight from the ring columns.
        """
        counts, slots = self._live_slots(receivers, now, expiry)
        cols, held = self._ring_columns(slots)
        xy = self._xy[slots[:, np.newaxis], cols][held]
        return counts, self._slot_sender[slots], held.sum(axis=1), xy

    def live_unchanged(
        self, receivers, then, now: float, expiry: float
    ) -> np.ndarray:
        """Whether each receiver's live senders at *now* are those at
        ``then[b]``, under the ``[t - expiry, t]`` rule.

        Only a write changes a pair's ``sent_at``, so while a receiver's
        ``mutations`` stand this says whether its expiry-filtered views
        at the two times are the same: the decision cache's expiry test.
        """
        counts, slots = self._gather(receivers)
        latest = self._latest_sent[slots]
        changed = (now - latest <= expiry) != (np.repeat(then, counts) - latest <= expiry)
        return _group_sizes(counts, changed) == 0

    def _ring_columns(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, held)``, both ``(len(slots), k)``: each slot's ring
        columns oldest first, and whether that age holds an entry (a
        young slot fills fewer than ``k``)."""
        k = self.k
        writes = self._writes[slots][:, np.newaxis]
        age = self._ages
        return (writes - np.minimum(writes, k) + age) % k, age < writes

    def _versioned_entries(
        self, receivers, versions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entries per receiver, slots, ring columns)`` of version entries.

        Per sender, the oldest retained entry carrying the receiver's
        version (the ``next(h for h in history if h.version == v)``
        rule); senders holding none are left out.  Insertion order.

        Each ring is read from the entry after the newest one on, which
        is oldest first; a young slot's unwritten entries come first and
        hold :data:`NO_VERSION`, so they never match.
        """
        counts, slots = self._gather(receivers)
        cols = (self._writes[slots][:, np.newaxis] + self._ages) % self.k
        want = np.repeat(np.asarray(versions, dtype=np.int64), counts)
        match = self._version[slots[:, np.newaxis], cols] == want[:, np.newaxis]
        held = match.any(axis=1)
        first = match.argmax(axis=1)
        return _group_sizes(counts, held), slots[held], cols[held, first[held]]

    def versioned_members(
        self, receivers, versions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`latest_members` for versioned views: ``receivers[b]``'s
        members are its senders' oldest retained Hellos of ``versions[b]``,
        in insertion order, without building them."""
        counts, slots, cols = self._versioned_entries(receivers, versions)
        return counts, self._slot_sender[slots], self._xy[slots, cols]


def _group_sizes(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Kept entries per group of a flat mask grouped by *counts*."""
    if counts.size == 1:
        return np.array([np.count_nonzero(keep)])
    total = np.concatenate(([0], np.cumsum(keep)))
    ends = np.cumsum(counts)
    return total[ends] - total[ends - counts]
