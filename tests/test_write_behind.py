"""Write-behind Hello deliveries: a queued write reads as if written at once.

:meth:`NeighborState.record_batch` queues its Hello, and every read
applies the queue in one flush (:mod:`repro.core.neighbor_state`).  The
property test below interleaves both write routes, pins, releases,
answers and every read at depths 1-3, with the flush bound
:data:`~repro.core.neighbor_state._FLUSH_PAIRS` at 1 (every write applied
at once), a few pairs, and its default, and checks the store against an
independent model: a dict of ``deque(maxlen=k)`` per receiver, written
Hello by Hello, that answers pinned reads by the rule of writes applied
one at a time (a write answers the reads pinned at its receiver under
its version or the version it evicts, and every read there when reads of
several versions wait there).

The world tests run every mechanism, clean and under the golden fault
schedule, with every Hello applied at once and with the default queue,
and compare digests, counters and decisions read from engine callbacks.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiment import build_world, run_once
from repro.core import neighbor_state
from repro.core.consistency import available_mechanisms
from repro.core.neighbor_state import NO_VERSION, NeighborState
from repro.core.views import Hello
from test_golden_digests import CELLS, FAULTS, SEED, cell_spec, digest

N_NODES = 4
#: Hello versions are drawn from a few values, so pinned versions are
#: written and evicted again later in the queue.
VERSIONS = st.integers(0, 3)
_nodes = st.integers(0, N_NODES - 1)


class Model:
    """The neighbor store written one Hello at a time: per receiver an
    insertion-ordered ``{sender: deque(maxlen=k)}``, per-node counters,
    and the reads pinned at each receiver."""

    def __init__(self, n: int, k: int) -> None:
        self.k = k
        self.rows: list[dict[int, deque]] = [{} for _ in range(n)]
        self.mutations = [0] * n
        self.received = [0] * n
        #: receiver -> [(read, version)]
        self.pins: dict[int, list] = {}
        #: read -> members as of its pin, for the reads pinned and the
        #: reads answered here (keyed by the read, held alive)
        self.values: dict = {}
        self.answered: dict = {}

    def write(self, hello: Hello, receivers) -> None:
        """One Hello at *receivers*: first answer the reads it changes."""
        hit = []
        for r in receivers:
            held = {v for _, v in self.pins.get(r, ())}
            ring = self.rows[r].get(hello.sender)
            evicted = ring[0].version if ring is not None and len(ring) == self.k else None
            if held and (len(held) > 1 or hello.version in held or evicted in held):
                hit.append(r)
        self.answer_at(hit)
        for r in receivers:
            self.rows[r].setdefault(hello.sender, deque(maxlen=self.k)).append(hello)
            self.mutations[r] += 1
            self.received[r] += 1

    def answer_at(self, receivers) -> None:
        for r in receivers:
            for read, _ in list(self.pins.get(r, ())):
                self.answer(read)

    def answer(self, read) -> None:
        if read not in self.answered:
            self.answered[read] = self.values[read]
            self.release(read)

    def release(self, read) -> None:
        for r in set(read.rows):
            rest = [entry for entry in self.pins.get(r, ()) if entry[0] is not read]
            if rest:
                self.pins[r] = rest
            else:
                self.pins.pop(r, None)

    def pin(self, read) -> None:
        self.values[read] = self.versioned(read.rows, read.versions)
        for r, v in zip(read.rows, read.versions):
            self.pins.setdefault(r, []).append((read, v))

    # reads, as the store returns them

    def _live(self, r, now, expiry):
        return [(s, ring) for s, ring in self.rows[r].items() if now - ring[-1].sent_at <= expiry]

    def latest(self, rows, now, expiry):
        members = [(s, ring[-1].position) for r in rows for s, ring in self._live(r, now, expiry)]
        counts = [len(self._live(r, now, expiry)) for r in rows]
        return counts, [s for s, _ in members], [list(p) for _, p in members]

    def history(self, rows, now, expiry):
        live = [(s, ring) for r in rows for s, ring in self._live(r, now, expiry)]
        return (
            [len(self._live(r, now, expiry)) for r in rows],
            [s for s, _ in live],
            [len(ring) for _, ring in live],
            [list(h.position) for _, ring in live for h in ring],
        )

    def versioned(self, rows, versions):
        counts, ids, xy = [], [], []
        for r, v in zip(rows, versions):
            held = [
                (s, next(h for h in ring if h.version == v))
                for s, ring in self.rows[r].items()
                if any(h.version == v for h in ring)
            ]
            counts.append(len(held))
            ids += [s for s, _ in held]
            xy += [list(h.position) for _, h in held]
        return counts, ids, xy

    def newest(self, r, s):
        ring = self.rows[r].get(s)
        if ring is None:
            return NO_VERSION, -np.inf, None, None
        h = ring[-1]
        return h.version, h.sent_at, list(h.position), h.timestamp


def _members(counts, ids, xy) -> tuple:
    return (np.asarray(counts).tolist(), np.asarray(ids).tolist(), np.asarray(xy).tolist())


_batch = st.tuples(st.just("batch"), _nodes, st.sets(_nodes, min_size=1), VERSIONS)
_entries = st.tuples(
    st.just("entries"), _nodes, st.lists(st.tuples(_nodes, VERSIONS), min_size=1, max_size=6)
)
_read = st.tuples(
    st.just("read"),
    st.sampled_from(
        ["latest", "versioned", "history", "newest", "newest_row", "rings",
         "retained", "senders", "live_unchanged"]
    ),
    st.lists(_nodes, min_size=1, max_size=3),
    VERSIONS,
    st.floats(0.5, 3.0),
)
STEPS = st.lists(
    st.one_of(
        # Writes most often, so queues hold several Hellos to a pair.
        _batch,
        _batch,
        _batch,
        _batch,
        _entries,
        st.tuples(st.just("pin"), st.lists(st.tuples(_nodes, VERSIONS), min_size=1, max_size=3)),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("answer"), st.integers(0, 7)),
        # Reads often too: each applies what the writes before it queued.
        _read,
        _read,
        _read,
    ),
    min_size=4,
    max_size=60,
)


def _check_read(state: NeighborState, model: Model, step, now: float) -> None:
    _, which, rows, version, expiry = step
    r = rows[0]
    if which == "latest":
        got = state.latest_members(rows, now, expiry)
        assert _members(*got) == model.latest(rows, now, expiry)
    elif which == "versioned":
        versions = [version + i % 2 for i in range(len(rows))]
        got = state.versioned_members(rows, versions)
        assert _members(*got) == model.versioned(rows, versions)
    elif which == "history":
        counts, ids, fills, xy = state.history_members(rows, now, expiry)
        want = model.history(rows, now, expiry)
        assert [counts.tolist(), ids.tolist(), fills.tolist(), xy.tolist()] == list(want)
    elif which == "newest":
        senders = list(range(N_NODES))
        version, sent, xy, ts = state.newest(r, np.array(senders))
        for i, s in enumerate(senders):
            v, t, p, stamp = model.newest(r, s)
            assert (version[i], sent[i]) == (v, t)
            if p is not None:
                assert (xy[i].tolist(), ts[i]) == (p, stamp)
        sender = rows[-1]
        version, sent, _, _ = state.newest(np.array(rows), sender)
        assert version.tolist() == [model.newest(q, sender)[0] for q in rows]
        assert sent.tolist() == [model.newest(q, sender)[1] for q in rows]
    elif which == "newest_row":
        ids, version, sent, xy, ts = state.newest_row(r)
        assert ids.tolist() == sorted(model.rows[r])
        for i, s in enumerate(ids.tolist()):
            assert (version[i], sent[i], xy[i].tolist(), ts[i]) == model.newest(r, s)
    elif which == "rings":
        senders = list(range(N_NODES))
        held, versions, sent, xy = state.rings(r, senders)
        for i, s in enumerate(senders):
            ring = list(model.rows[r].get(s, ()))
            assert held[i].sum() == len(ring)
            assert versions[i][held[i]].tolist() == [h.version for h in ring]
            assert sent[i][held[i]].tolist() == [h.sent_at for h in ring]
            assert xy[i][held[i]].tolist() == [list(h.position) for h in ring]
    elif which == "retained":
        assert state.retained(r) == sum(len(ring) for ring in model.rows[r].values())
    elif which == "senders":
        # Insertion order: senders in the order first heard.
        assert state.senders(r) == list(model.rows[r])
    else:
        then = [now - expiry * (i + 1) / 2 for i in range(len(rows))]
        got = state.live_unchanged(rows, then, now, expiry)
        want = [
            [s for s, _ in model._live(q, now, expiry)]
            == [s for s, _ in model._live(q, t, expiry)]
            for q, t in zip(rows, then)
        ]
        assert got.tolist() == want


class TestAgainstModel:
    @settings(max_examples=600, deadline=None)
    @given(
        steps=STEPS,
        depth=st.integers(1, 3),
        flush_pairs=st.sampled_from([1, 3, 32_768, 32_768]),
    )
    def test_interleavings_read_as_the_model(self, steps, depth, flush_pairs):
        with mock.patch.object(neighbor_state, "_FLUSH_PAIRS", flush_pairs):
            self._run(steps, depth)

    def _run(self, steps, depth):
        state = NeighborState(N_NODES, depth)
        model = Model(N_NODES, depth)
        outstanding = []
        #: reads the model may answer and the store need not: the store
        #: applies a queued write against the reads still pinned when it
        #: flushes, so a read released before then no longer makes the
        #: receiver's pins mixed for the others
        excused = set()
        clock = 0.0
        for step in steps:
            clock += 0.25
            kind = step[0]
            if kind == "batch":
                _, sender, receivers, version = step
                receivers = sorted(receivers - {sender})
                if receivers:
                    hello = Hello(sender, version, (float(sender), clock), clock, clock + 0.1)
                    state.record_batch(hello, np.array(receivers, dtype=np.intp))
                    model.write(hello, receivers)
            elif kind == "entries":
                _, receiver, pairs = step
                hellos = [
                    Hello(s, v, (float(s), clock + i), clock, clock + 0.1)
                    for i, (s, v) in enumerate(pairs)
                    if s != receiver
                ]
                state.record_entries(receiver, hellos)
                for hello in hellos:
                    model.write(hello, [receiver])
            elif kind == "pin":
                rows = tuple(r for r, _ in step[1])
                versions = tuple(v for _, v in step[1])
                read = state.pin(rows, versions)
                model.pin(read)
                outstanding.append(read)
            elif kind in ("release", "answer") and outstanding:
                read = outstanding.pop(step[1] % len(outstanding))
                if kind == "answer":
                    state.answer([read])
                    model.answer(read)
                    assert _members(*read.members) == _members(*model.answered[read])
                else:
                    if state._queue:
                        excused.update(outstanding)
                    state.release(read)
                    model.release(read)
            elif kind == "read":
                _check_read(state, model, step, clock)
            # Counters are kept at the Hello, queued or not.
            assert state.mutations.tolist() == model.mutations
            assert state.hellos_received.tolist() == model.received
            answered = {read for read in outstanding if read.members is not None}
            by_model = {read for read in outstanding if read in model.answered}
            assert answered <= by_model
            if not state._queue:
                # Applied: the store answered the reads the model did.
                assert by_model - answered <= excused
        state.answer(outstanding)
        for read in outstanding:
            model.answer(read)
            assert _members(*read.members) == _members(*model.answered[read])
        assert not state._pins


class TestFlushes:
    def test_repeated_pairs_beyond_depth_keep_the_last(self):
        state = NeighborState(2, 2)
        for v in range(5):
            state.record_batch(Hello(1, v, (float(v), 0.0), v, v), np.array([0]))
        assert len(state._queue) == 5
        held, versions, sent, xy = state.rings(0, [1])
        assert not state._queue
        assert versions[0].tolist() == [3, 4]
        assert xy[0, :, 0].tolist() == [3.0, 4.0]
        assert state.newest(0, [1])[1].tolist() == [4.0]
        assert state.retained(0) == 2


    def test_a_pin_is_answered_before_the_queued_write_that_evicts_it(self):
        state = NeighborState(3, 1)
        state.record_batch(Hello(1, 0, (1.0, 0.0), 0.0, 0.0), np.array([0, 2]))
        state.record_batch(Hello(2, 0, (2.0, 0.0), 0.1, 0.1), np.array([0]))
        read = state.pin((0,), (0,))
        # Queued after the pin: version 0 is evicted at receiver 0.
        state.record_batch(Hello(1, 1, (1.5, 0.0), 1.0, 1.0), np.array([0, 2]))
        state.record_batch(Hello(2, 1, (2.5, 0.0), 1.1, 1.1), np.array([0]))
        assert read.members is None
        state.retained(2)
        # Answered between the Hellos on either side of the evicting one.
        assert read.members[1].tolist() == [1, 2]
        assert read.members[2].tolist() == [[1.0, 0.0], [2.0, 0.0]]
        assert state.versioned_members([0], [0])[1].tolist() == []

    def test_a_pin_whose_version_is_written_later_reads_without_it(self):
        state = NeighborState(3, 3)
        state.record_batch(Hello(1, 4, (1.0, 0.0), 0.0, 0.0), np.array([0]))
        read = state.pin((0, 0), (4, 5))
        state.record_batch(Hello(2, 5, (2.0, 0.0), 0.1, 0.1), np.array([0]))
        state.record_batch(Hello(1, 5, (1.5, 0.0), 0.2, 0.2), np.array([0]))
        state.answer([read])
        assert read.members[0].tolist() == [1, 0]
        assert state.versioned_members([0], [5])[1].tolist() == [1, 2]

    def test_the_flush_bound_applies_a_long_queue(self, monkeypatch):
        monkeypatch.setattr(neighbor_state, "_FLUSH_PAIRS", 4)
        state = NeighborState(5, 2)
        state.record_batch(Hello(0, 0, (0.0, 0.0), 0.0, 0.0), np.array([1, 2, 3]))
        assert len(state._queue) == 1
        state.record_batch(Hello(1, 0, (0.0, 0.0), 0.0, 0.0), np.array([0, 2]))
        assert not state._queue
        assert state.hellos_received.tolist() == [1, 1, 2, 1, 0]


# ---------------------------------------------------------------------- #
# worlds


def _flushes(monkeypatch) -> list[int]:
    """Count the Hellos each flush applies."""
    sizes = []
    flush = NeighborState._flush

    def counting(self):
        if self._queue:
            sizes.append(len(self._queue))
        return flush(self)

    monkeypatch.setattr(NeighborState, "_flush", counting)
    return sizes


#: Read instants of the callback probes: dense early on, then one read
#: after more than two seconds of Hellos that nothing reads.
READ_TIMES = (0.31, 0.54, 0.77, 1.3, 4.0)


def _read_decisions(mechanism: str, faults) -> list[list]:
    world = build_world(cell_spec("rng", mechanism), seed=SEED, faults=faults)
    reads = []
    for t in READ_TIMES[:-1]:
        world.engine.schedule_at(
            t, lambda: reads.append([node.decision for node in world.nodes])
        )
    world.run_until(READ_TIMES[-1])
    reads.append([node.decision for node in world.nodes])
    return reads


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("mechanism", available_mechanisms())
class TestWorlds:
    def test_runs_equal_applying_every_hello_at_once(self, mechanism, faulted, monkeypatch):
        faults = FAULTS if faulted else None
        spec = cell_spec("rng", mechanism)
        sizes = _flushes(monkeypatch)
        queued = run_once(spec, seed=SEED, faults=faults)
        if mechanism in ("proactive", "reactive", "weak", "gossip") and not faulted:
            # Nothing reads the store between some Hellos.
            assert max(sizes) > 1
        monkeypatch.setattr(neighbor_state, "_FLUSH_PAIRS", 1)
        eager = run_once(spec, seed=SEED, faults=faults)
        assert digest(queued) == digest(eager)
        assert queued.stats == eager.stats

    def test_callback_reads_equal_applying_every_hello_at_once(
        self, mechanism, faulted, monkeypatch
    ):
        faults = FAULTS if faulted else None
        queued = _read_decisions(mechanism, faults)
        monkeypatch.setattr(neighbor_state, "_FLUSH_PAIRS", 1)
        assert _read_decisions(mechanism, faults) == queued
        assert any(d is not None for d in queued[-1])


def test_flushes_answer_reads_between_queued_hellos(monkeypatch):
    """With clocks up to 0.9 s apart, late epoch-(e-1) Hellos are queued
    after a node pins its epoch-e decision's read, so flushes stop
    between queued Hellos to answer it."""
    cuts = []
    answer_at = NeighborState._answer_at

    def counting(self, receivers, place):
        cuts.append(place)
        return answer_at(self, receivers, place)

    monkeypatch.setattr(NeighborState, "_answer_at", counting)
    cell = CELLS["rng-proactive-skew"]
    spec = cell_spec(cell.protocol, cell.mechanism, **cell.config)
    queued = run_once(spec, seed=SEED)
    assert cuts
    monkeypatch.setattr(neighbor_state, "_FLUSH_PAIRS", 1)
    eager = run_once(spec, seed=SEED)
    assert digest(eager) == digest(queued)
    assert eager.stats == queued.stats
