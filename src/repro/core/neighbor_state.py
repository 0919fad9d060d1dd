"""Columnar neighbor state (struct-of-arrays Hello storage).

Every node keeps the ``k`` most recent Hellos per 1-hop neighbor.  At 10k
nodes a single Hello generation reaches hundreds of thousands of
(receiver, sender) pairs, so :class:`NeighborState` stores them
*columnar*: one flat NumPy ring buffer of shape ``(slots, k)`` per field
(version / position / sent_at / local timestamp; a position is an
``(x, y)`` pair, so its ring is ``(slots, k, 2)``), where a *slot* is
one (receiver, sender) pair and ``k`` is the retained history depth.

- the pair directory is one sorted int64 array of keys
  ``receiver * 2**32 + sender`` beside each key's slot: a batch of
  pairs is found with one ``searchsorted``, a receiver's pairs are one
  contiguous run of keys (ascending sender), and new pairs are merged
  in once per flush, slotted in order of first appearance;
- slots are never reused, so a receiver's *insertion order* is its
  ascending slot order (a pair re-created after a prune goes last);
  view members follow it;
- a ring entry never written holds version :data:`NO_VERSION`, which no
  versioned read asks for;
- per-pair histories are bounded rings of depth ``k`` (oldest evicted),
  the exact ``deque(maxlen=k)`` behaviour;
- ``mutations`` / ``hellos_received`` counters live in flat per-node
  arrays: every recorded Hello bumps both, a prune that drops anything
  bumps ``mutations`` once.

Writes are *write-behind*.  :meth:`NeighborState.record_batch` (one
Hello at many receivers) queues the Hello and counts it at once, since
decision-cache stamps read ``mutations`` at the Hello; every read first
applies the queue in one vectorized flush, and so does a queue of
:data:`_FLUSH_PAIRS` pairs, which bounds the flush's temporaries.  A
flush writes each entry at its slot's ring head advanced by the entry's
rank among the flush's writes to that slot, keeps the last ``k`` per
slot, and advances each slot's write count and newest ``sent_at`` once.
:meth:`record_entries` (many senders' Hellos at one receiver, a gossip
merge) queues and flushes at once.

Many receivers' views are read in one pass: :meth:`latest_members`,
:meth:`versioned_members` and :meth:`history_members` concatenate the
receivers' slots, mask them, and return the members flat, grouped by
receiver, with no Hello built.  Every decision reads them: the
single-version mechanisms one position per member, weak consistency each
member's whole retained history, read oldest first from the ring
columns.  Single pairs (the world's stale discard, gossip merges, packet
forwarding) are read through :meth:`newest`, the newest entry per pair
as arrays, a whole row by ascending sender through :meth:`newest_row`
(gossip's digest and delta), and overhead accounting reads the ring
fills (:meth:`retained`).

A versioned read can be asked now and answered later, as of the instant
it was asked (:meth:`pin`, :meth:`answer`): the decisions that read it
are selected only when something reads them.  The members of (receiver,
version ``v``) change only when a write to that receiver carries version
``v`` or overwrites a ring entry of version ``v`` (or a prune drops a
pair).  A pin records its place in the write queue; when a later queued
write would change a pinned read (under reads of several versions at
one receiver, any write there does), the flush stops before that write's
Hello and answers the reads pinned there.  With nothing pinned that
check costs nothing.

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

#: Key stride of the pair directory: a pair's key is ``receiver * _SPAN +
#: sender``.  Wider than any node id, since a table's private one-row
#: store hears senders of any id.
_SPAN = 1 << 32

#: Queued (receiver, sender) pairs at which :meth:`NeighborState.record_batch`
#: flushes without waiting for a read; bounds the flush's temporaries.
_FLUSH_PAIRS = 32_768


class VersionedRead:
    """:meth:`NeighborState.versioned_members` of some receivers, asked at
    one instant and answered as of it (:meth:`NeighborState.pin`).

    ``members`` is None until answered, then ``(counts, ids, xy)``;
    ``place`` is the number of Hellos queued in the store before it was
    asked.
    """

    __slots__ = ("state", "rows", "versions", "place", "members")

    def __init__(
        self, state: "NeighborState", rows: Sequence[int], versions: Sequence[int],
        place: int,
    ) -> None:
        self.state = state
        self.rows = rows
        self.versions = versions
        self.place = place
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
        "_keys",
        "_key_slots",
        "_version",
        "_xy",
        "_sent",
        "_ts",
        "_writes",
        "_latest_sent",
        "_slot_sender",
        "_n_slots",
        "_ages",
        "_queue",
        "_queued",
        "_flushed",
        "_pins",
        "_pinned",
    )

    def __init__(self, n_nodes: int, history_depth: int) -> None:
        self.n_nodes = check_int_range("n_nodes", n_nodes, 1)
        self.k = check_int_range("history_depth", history_depth, 1)
        self.mutations = np.zeros(n_nodes, dtype=np.int64)
        self.hellos_received = np.zeros(n_nodes, dtype=np.int64)
        #: sorted pair keys ``receiver * _SPAN + sender`` and their slots
        self._keys = np.zeros(0, dtype=np.int64)
        self._key_slots = np.zeros(0, dtype=np.intp)
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
        #: queued ``(hello, receivers)`` writes, their pair count, and the
        #: number of Hellos flushed before the first of them
        self._queue: list[tuple[Hello, np.ndarray]] = []
        self._queued = 0
        self._flushed = 0
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

    def _slots(self, receivers, senders) -> np.ndarray:
        """Slot of each (receiver, sender) pair, 0 for a pair that holds
        nothing; either side may be one node id."""
        return self._lookup(np.atleast_1d(_pair_keys(receivers, senders)))

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Slot of each pair key, 0 where the directory has none."""
        directory = self._keys
        if not directory.size:
            return np.zeros(keys.size, dtype=np.intp)
        at = directory.searchsorted(keys)
        slots = self._key_slots.take(at, mode="clip")
        slots[directory.take(at, mode="clip") != keys] = 0
        return slots

    def _open(self, keys: np.ndarray, distinct: bool) -> np.ndarray:
        """:meth:`_lookup`, giving each new pair a slot: new pairs take
        one block of slots in order of first appearance and are merged
        into the directory at once.  *distinct* says no key recurs."""
        slots = self._lookup(keys)
        fresh = slots == 0
        if not fresh.any():
            return slots
        new = keys[fresh]
        start = self._n_slots
        if distinct:
            slots[fresh] = np.arange(start, start + new.size)
            order = np.argsort(new)
            new, new_slots = new[order], start + order
        else:
            new, first, inverse = np.unique(new, return_index=True, return_inverse=True)
            new_slots = np.empty(new.size, dtype=np.intp)
            new_slots[np.argsort(first)] = np.arange(start, start + new.size)
            slots[fresh] = new_slots[inverse]
        self._n_slots = end = start + new.size
        if end > self._version.shape[0]:
            self._grow(end)
        self._slot_sender[new_slots] = new % _SPAN
        self._merge(new, new_slots)
        return slots

    def _merge(self, new: np.ndarray, new_slots: np.ndarray) -> None:
        """Merge the sorted keys *new*, slotted *new_slots*, into the
        directory."""
        at = self._keys.searchsorted(new)
        if new.size <= 8:
            # A few new pairs (one Hello's): copy the runs between them.
            bounds = [0, *at.tolist(), None]
            runs = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            for name, fresh in (("_keys", new), ("_key_slots", new_slots)):
                old = getattr(self, name)
                parts = [old[runs[0]]]
                for i, run in enumerate(runs[1:]):
                    parts += (fresh[i : i + 1], old[run])
                setattr(self, name, np.concatenate(parts))
            return
        at += np.arange(new.size)
        old = np.ones(self._keys.size + new.size, dtype=bool)
        old[at] = False
        for name, fresh in (("_keys", new), ("_key_slots", new_slots)):
            merged = np.empty(old.size, dtype=getattr(self, name).dtype)
            merged[at], merged[old] = fresh, getattr(self, name)
            setattr(self, name, merged)

    def _row_bounds(self, receivers):
        """``(lo, hi)``: the run of directory keys of each receiver (of
        one receiver, as ints)."""
        if isinstance(receivers, int):
            first = receivers * _SPAN
            keys = self._keys
            return int(keys.searchsorted(first)), int(keys.searchsorted(first + _SPAN))
        first = np.asarray(receivers, dtype=np.int64) * _SPAN
        return self._keys.searchsorted(first), self._keys.searchsorted(first + _SPAN)

    # ------------------------------------------------------------------ #
    # writes

    def record_batch(self, hello: Hello, receivers: np.ndarray) -> None:
        """Record one Hello at every receiver (queued; counted at once).

        *receivers* must be unique node indices (the radio's surviving
        receiver array); the queue holds it, unchanged, until it flushes.
        Equivalent to ``table.record_hello(hello)`` at each receiver, in
        array order.
        """
        if receivers.size:
            self._queue.append((hello, receivers))
            self._queued += receivers.size
            self.hellos_received[receivers] += 1
            self.mutations[receivers] += 1
            if self._queued >= _FLUSH_PAIRS:
                self._flush()

    def record_entries(self, receiver: int, hellos) -> None:
        """Record many senders' Hellos at one receiver, in order, as if
        recorded one by one (a sender may recur)."""
        if not hellos:
            return
        row = np.array([receiver], dtype=np.intp)
        self._queue.extend((hello, row) for hello in hellos)
        self.hellos_received[receiver] += len(hellos)
        self.mutations[receiver] += len(hellos)
        self._flush()

    def _flush(self) -> None:
        """Apply every queued write, stopping before each Hello that
        changes a pinned read to answer the reads pinned there."""
        queue = self._queue
        if not queue:
            return
        first = self._flushed
        self._queue = []
        self._queued = 0
        self._flushed += len(queue)
        if len(queue) == 1 and not self._pins:
            hello, receivers = queue[0]
            slots = self._open(_pair_keys(receivers, hello.sender), True)
            self._apply(
                slots, hello.version, hello.sent_at, hello.timestamp, hello.position,
                single=True,
            )
            return
        cols = self._columns(queue, first)
        while self._pins:
            cut = self._barrier(cols)
            if cut is None:
                break
            unit, rows = cut
            before = cols[0] < unit
            if before.any():
                self._apply(*(c[before] for c in cols[2:]), single=False)
            self._answer_at(rows, unit)
            cols = [c[~before] for c in cols]
        self._apply(*cols[2:], single=len(queue) == 1)

    def _columns(self, queue, first: int) -> list[np.ndarray]:
        """The queued writes as per-pair columns in queue order:
        ``[hello index, receiver, slot, version, sent_at, timestamp, xy]``
        (Hellos numbered from *first*), new pairs opened."""
        hellos = [hello for hello, _ in queue]
        counts = np.fromiter((r.size for _, r in queue), np.intp, len(queue))
        receivers = np.concatenate([r for _, r in queue])

        def column(values, dtype):
            return np.repeat(np.fromiter(values, dtype, len(hellos)), counts)

        unit = np.repeat(np.arange(first, first + len(queue)), counts)
        senders = column((h.sender for h in hellos), np.int64)
        slots = self._open(_pair_keys(receivers, senders), len(queue) == 1)
        return [
            unit,
            receivers,
            slots,
            column((h.version for h in hellos), np.int64),
            column((h.sent_at for h in hellos), np.float64),
            column((h.timestamp for h in hellos), np.float64),
            np.repeat(np.array([h.position for h in hellos], dtype=np.float64), counts, axis=0),
        ]

    def _ranked(self, slots: np.ndarray):
        """``(order, rank, count)`` of a flush's writes: the stable sort
        by slot, each sorted write's rank among its slot's writes, and its
        slot's write count."""
        order = np.argsort(slots, kind="stable")
        s = slots[order]
        head = np.empty(s.size, dtype=bool)
        head[:1] = True
        np.not_equal(s[1:], s[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        group = np.cumsum(head) - 1
        count = np.diff(np.append(starts, s.size))
        return order, np.arange(s.size) - starts[group], count[group]

    def _apply(self, slots, version, sent, ts, xy, single: bool) -> None:
        """Write one entry per slot of *slots* into the rings, the other
        columns giving its fields; *single* says the slots are distinct
        (one Hello), whose fields may be scalars."""
        if not slots.size:
            return
        if single:
            pos = self._writes[slots] % self.k
            ends, added, newest = slots, 1, sent
        else:
            order, rank, count = self._ranked(slots)
            s = slots[order]
            kept = rank >= count - self.k
            at = order[kept]
            slots = s[kept]
            pos = (self._writes[slots] + rank[kept]) % self.k
            tail = rank == count - 1
            ends, added, newest = s[tail], count[tail], sent[order[tail]]
            version, sent, ts, xy = version[at], sent[at], ts[at], xy[at]
        self._version[slots, pos] = version
        self._xy[slots, pos] = xy
        self._sent[slots, pos] = sent
        self._ts[slots, pos] = ts
        self._writes[ends] += added
        self._latest_sent[ends] = newest

    def _barrier(self, cols: list[np.ndarray]) -> tuple[int, list[int]] | None:
        """``(hello index, receivers)`` of the first queued Hello whose
        write changes a read pinned before it, and the receivers where it
        does; None when no queued write changes one.

        A write changes the reads pinned at its receiver under its own
        version, or under the version of the entry it overwrites (the
        queue's own write ``k`` ranks earlier, or the ring's), and every
        read there when reads of several versions are pinned there.
        """
        unit, receivers, slots, version = cols[:4]
        k = self.k
        order, rank, _ = self._ranked(slots)
        s = slots[order]
        pos = (self._writes[s] + rank) % k
        overwritten = self._version[s, pos]
        late = np.flatnonzero(rank >= k)
        overwritten[late] = version[order][late - k]
        over = np.empty_like(overwritten)
        over[order] = overwritten
        pinned = self._pinned[receivers]
        maybe = np.flatnonzero(
            (pinned != _UNPINNED)
            & ((pinned == _MIXED) | (pinned == version) | (pinned == over))
        )
        hit, rows = None, []
        pins = self._pins
        for i in maybe.tolist():
            at = int(unit[i])
            if hit is not None and at != hit:
                break
            r = int(receivers[i])
            held = {v for read, v in pins.get(r, ()) if read.place <= at}
            if held and (len(held) > 1 or int(version[i]) in held or int(over[i]) in held):
                hit = at
                rows.append(r)
        return None if hit is None else (hit, rows)

    def prune(self, receiver: int, now: float, expiry: float) -> bool:
        """Drop *receiver*'s pairs not heard from within *expiry* seconds.

        Returns True (and bumps the receiver's mutation counter once)
        when anything was dropped.  Dropped slots are never reused, so a
        later Hello from the same sender starts a fresh history.
        """
        self._flush()
        lo, hi = self._row_bounds(int(receiver))
        stale = now - self._latest_sent[self._key_slots[lo:hi]] > expiry
        if not stale.any():
            return False
        if receiver in self._pins:
            self._answer_at([receiver])
        drop = lo + np.flatnonzero(stale)
        self._keys = np.delete(self._keys, drop)
        self._key_slots = np.delete(self._key_slots, drop)
        self.mutations[receiver] += 1
        return True

    # ------------------------------------------------------------------ #
    # deferred versioned reads

    def pin(self, rows: Sequence[int], versions: Sequence[int]) -> VersionedRead:
        """Ask :meth:`versioned_members` of *rows* at *versions* now, to be
        answered as of now by :meth:`answer`; queued writes stay queued."""
        read = VersionedRead(self, rows, versions, self._flushed + len(self._queue))
        pins, pinned = self._pins, self._pinned
        for row, version in zip(rows, versions):
            held = pins.setdefault(row, [])
            held.append((read, version))
            pinned[row] = version if len(held) == 1 or pinned[row] == version else _MIXED
        return read

    def answer(self, reads: Sequence[VersionedRead]) -> None:
        """Answer every read of *reads* not answered yet, in one
        :meth:`versioned_members` call, and unpin them."""
        self._flush()
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
        """Unpin *read*: nothing answers it from now on."""
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

    def _answer_at(self, receivers: list[int], place: float = np.inf) -> None:
        """Answer every read pinned at any of *receivers* before the
        Hello numbered *place*."""
        reads = {
            id(read): read
            for r in receivers
            for read, _ in self._pins.get(r, ())
            if read.place <= place
        }
        self.answer(list(reads.values()))

    # ------------------------------------------------------------------ #
    # reads

    def senders(self, receiver: int) -> list[int]:
        """Sender ids recorded at *receiver*, in insertion order."""
        return self._slot_sender[self._gather([receiver])[1]].tolist()

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
        self._flush()
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
        self._flush()
        return self._newest_at(self._slots(receivers, senders))

    def newest_row(
        self, receiver: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, version, sent_at, xy, timestamp)``: the newest entry of
        every pair *receiver* holds, by ascending sender id, read from the
        receiver's run of directory keys."""
        self._flush()
        lo, hi = self._row_bounds(int(receiver))
        ids = self._keys[lo:hi] - receiver * _SPAN
        return (ids, *self._newest_at(self._key_slots[lo:hi]))

    def _newest_at(self, slots: np.ndarray) -> tuple[np.ndarray, ...]:
        at = (slots, (self._writes[slots] - 1) % self.k)
        return self._version[at], self._latest_sent[slots], self._xy[at], self._ts[at]

    def retained(self, receiver: int) -> int:
        """Hellos *receiver* retains over all its pairs (ring fills)."""
        slots = self._gather([receiver])[1]
        return int(np.minimum(self._writes[slots], self.k).sum())

    def _gather(self, receivers) -> tuple[np.ndarray, np.ndarray]:
        """``(slot count per receiver, their slots concatenated)``, each
        receiver's in insertion order (ascending slot); flushes first."""
        self._flush()
        if len(receivers) == 1:
            lo, hi = self._row_bounds(int(receivers[0]))
            return np.array([hi - lo]), np.sort(self._key_slots[lo:hi])
        lo, hi = self._row_bounds(receivers)
        counts = hi - lo
        starts = np.cumsum(counts) - counts
        at = np.arange(int(counts.sum())) + np.repeat(lo - starts, counts)
        slots = self._key_slots[at]
        group = np.repeat(np.arange(counts.size) * self._n_slots, counts)
        return counts, np.sort(slots + group) - group

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


def _pair_keys(receivers, senders) -> np.ndarray:
    """Directory key of each (receiver, sender) pair; either side may be
    one node id."""
    return np.asarray(receivers, dtype=np.int64) * _SPAN + np.asarray(senders, dtype=np.int64)


def _group_sizes(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Kept entries per group of a flat mask grouped by *counts*."""
    if counts.size == 1:
        return np.array([np.count_nonzero(keep)])
    total = np.concatenate(([0], np.cumsum(keep)))
    ends = np.cumsum(counts)
    return total[ends] - total[ends - counts]
