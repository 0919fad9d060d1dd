"""Decide only what is read: deferred versioned reads and superseded
Hello-time decisions change nothing.

Two mechanisms let a world skip work no output depends on:

- a versioned read (:meth:`NeighborState.pin`) is answered when its
  decision settles, as of the instant it was asked: the store answers
  it early, before a write would change it.  The property test below
  interleaves pins with both write routes (``record_batch``,
  ``record_entries``) and prunes, at depths 1-3, and checks every answer
  against the read made when the pin was asked;
- a Hello-time decision that a newer decision of the same node replaces
  before anything reads it is never selected.  The world tests compare
  runs against a world that settles every decision as it is gathered
  (:func:`test_settle_points.settle_every_gather`), for every mechanism,
  with and without faults: equal digests and counters, and equal
  decisions wherever an engine callback reads them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neighbor_oracles import history
from repro.analysis.experiment import build_world, run_once
from repro.core.consistency import available_mechanisms
from repro.core.manager import MobilitySensitiveTopologyControl
from repro.core.neighbor_state import NeighborState
from repro.core.views import Hello
from test_golden_digests import FAULTS, SEED, cell_spec, digest
from test_settle_points import settle_every_gather

N_NODES = 3

#: One step of the interleaving: a Hello from a sender at a set of
#: receivers, Hellos from several senders at one receiver, a pin of
#: (receiver, version) pairs the store holds (each picked by index), a
#: pin of receivers at the version the next write carries, a release or
#: an answer of an outstanding pin (by index), or a prune of one
#: receiver.  Each write carries the next version, as Hello versions
#: grow: a read of a written version is changed only when a write evicts
#: it, and a read of the coming one when the next write carries it.
_nodes = st.integers(0, N_NODES - 1)
_batch = st.tuples(st.just("batch"), _nodes, st.sets(_nodes, min_size=1))
_entries = st.tuples(st.just("entries"), _nodes, st.lists(_nodes, min_size=1, max_size=4))
STEPS = st.lists(
    st.one_of(
        # Writes most often: an eviction at depth 3 takes three writes of
        # one sender at one receiver while a read waits.
        _batch,
        _batch,
        _batch,
        _entries,
        _entries,
        st.tuples(st.just("pin"), st.lists(st.integers(0, 63), min_size=1, max_size=2)),
        st.tuples(st.just("pin-next"), st.lists(_nodes, min_size=1, max_size=2)),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("answer"), st.integers(0, 7)),
        st.tuples(st.just("prune"), _nodes, st.floats(0.5, 3.0)),
    ),
    min_size=4,
    max_size=50,
)


def _members_equal(got, want) -> bool:
    return all(np.array_equal(g, w) for g, w in zip(got, want))


class TestPinnedReads:
    @settings(max_examples=300, deadline=None)
    @given(steps=STEPS, depth=st.integers(1, 3))
    def test_deferred_answers_equal_immediate_ones(self, steps, depth):
        state = NeighborState(N_NODES, depth)
        outstanding = []  # (read, the members when it was pinned)
        clock = 0.0

        def check(read, want):
            state.answer([read])
            assert _members_equal(read.members, want)

        newest = 0
        for step in steps:
            clock += 0.25
            kind = step[0]
            if kind == "batch":
                newest += 1
                _, sender, receivers = step
                receivers = sorted(receivers - {sender})
                hello = Hello(sender, newest, (float(sender), clock), clock, clock)
                state.record_batch(hello, np.array(receivers, dtype=np.intp))
            elif kind == "entries":
                newest += 1
                _, receiver, senders = step
                hellos = [
                    Hello(s, newest, (float(s), clock + i), clock, clock)
                    for i, s in enumerate(senders)
                    if s != receiver
                ]
                state.record_entries(receiver, hellos)
            elif kind in ("pin", "pin-next"):
                held = sorted(
                    {(r, h.version) for r in range(N_NODES)
                     for s in state.senders(r) for h in history(state, r, s)}
                )
                if kind == "pin-next":
                    pairs = [(r, newest + 1) for r in step[1]]
                elif held:
                    pairs = [held[i % len(held)] for i in step[1]]
                else:
                    continue
                rows = tuple(r for r, _ in pairs)
                versions = tuple(v for _, v in pairs)
                want = state.versioned_members(list(rows), list(versions))
                outstanding.append((state.pin(rows, versions), want))
            elif kind in ("release", "answer") and outstanding:
                read, want = outstanding.pop(step[1] % len(outstanding))
                if kind == "answer":
                    check(read, want)
                else:
                    state.release(read)
            elif kind == "prune":
                state.prune(step[1], clock, step[2])
            # Once a read applies the queued writes, a read not answered
            # yet still reads what it read when pinned.
            state.retained(0)
            for read, want in outstanding:
                if read.members is None:
                    now = state.versioned_members(list(read.rows), list(read.versions))
                    assert _members_equal(now, want)
        for read, want in outstanding:
            check(read, want)
        # Every read was answered or released: nothing stays pinned.
        assert not state._pins

    def test_a_write_answers_only_the_reads_it_changes(self):
        state = NeighborState(3, 2)
        state.record_batch(Hello(1, 0, (1.0, 0.0), 0.0, 0.0), np.array([0, 2]))
        state.record_batch(Hello(2, 0, (2.0, 0.0), 0.1, 0.1), np.array([0]))
        kept = state.pin((0,), (0,))
        other = state.pin((2,), (1,))
        # Version 1 at receiver 0 overwrites no version-0 entry (depth 2).
        state.record_batch(Hello(1, 1, (1.5, 0.0), 1.0, 1.0), np.array([0]))
        state.retained(0)  # a read applies the queued writes
        assert kept.members is None
        # Version 1 at receiver 2 is what `other` reads.
        state.record_batch(Hello(1, 1, (1.5, 0.0), 1.0, 1.0), np.array([2]))
        state.retained(0)
        assert other.members is not None
        assert other.members[1].tolist() == []
        # Version 2 at receiver 0 evicts sender 1's version-0 entry.
        state.record_entries(0, [Hello(1, 2, (1.7, 0.0), 2.0, 2.0)])
        assert kept.members is not None
        assert kept.members[1].tolist() == [1, 2]
        assert not state._pins

    def test_reads_of_two_versions_at_one_receiver(self):
        state = NeighborState(2, 3)
        for v in range(3):
            state.record_batch(Hello(1, v, (float(v), 0.0), v, v), np.array([0]))
        early, late = state.pin((0,), (0,)), state.pin((0, 0), (2, 2))
        state.record_batch(Hello(1, 5, (9.0, 0.0), 5.0, 5.0), np.array([0]))
        state.retained(0)  # a read applies the queued write
        # Mixed versions: any write to the receiver answers both.
        assert early.members is not None and late.members is not None
        assert early.members[2].tolist() == [[0.0, 0.0]]
        assert late.members[0].tolist() == [1, 1]
        assert late.members[2].tolist() == [[2.0, 0.0], [2.0, 0.0]]


# ---------------------------------------------------------------------- #
# worlds


def _discards(monkeypatch) -> list[int]:
    """Count the gathers a world drops unread."""
    dropped = [0]
    discard = MobilitySensitiveTopologyControl.discard

    def counting(self, gathered):
        dropped[0] += len(gathered)
        return discard(self, gathered)

    monkeypatch.setattr(MobilitySensitiveTopologyControl, "discard", counting)
    return dropped


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
class TestSupersession:
    def test_runs_equal_settling_every_gather(self, mechanism, faulted, monkeypatch):
        faults = FAULTS if faulted else None
        spec = cell_spec("rng", mechanism)
        dropped = _discards(monkeypatch)
        deferred = run_once(spec, seed=SEED, faults=faults)
        if mechanism in ("view-sync", "proactive"):
            # Each flood probe redecides every node, replacing the
            # decisions gathered since the last read.
            assert dropped[0] > 0
        settle_every_gather(monkeypatch)
        eager = run_once(spec, seed=SEED, faults=faults)
        assert digest(deferred) == digest(eager)
        assert deferred.stats == eager.stats

    def test_callback_reads_equal_settling_every_gather(
        self, mechanism, faulted, monkeypatch
    ):
        faults = FAULTS if faulted else None
        dropped = _discards(monkeypatch)
        deferred = _read_decisions(mechanism, faults)
        # Between the last two reads every node sends a Hello or more.
        assert dropped[0] > 0
        settle_every_gather(monkeypatch)
        before = dropped[0]
        assert _read_decisions(mechanism, faults) == deferred
        assert dropped[0] == before
        assert any(d is not None for d in deferred[-1])
