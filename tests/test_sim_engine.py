"""Tests for repro.sim.engine: the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, PeriodicTimer
from repro.util.errors import ScheduleError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule_at(2.0, seen.append, "late")
        eng.schedule_at(1.0, seen.append, "early")
        eng.run(until=3.0)
        assert seen == ["early", "late"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        eng = Engine()
        seen = []
        for tag in "abc":
            eng.schedule_at(1.0, seen.append, tag)
        eng.run(until=1.0)
        assert seen == ["a", "b", "c"]

    def test_now_tracks_event_time_during_callback(self):
        eng = Engine()
        observed = []
        eng.schedule_at(1.5, lambda: observed.append(eng.now))
        eng.run(until=5.0)
        assert observed == [1.5]

    def test_run_advances_now_to_until(self):
        eng = Engine()
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_schedule_after_relative(self):
        eng = Engine()
        seen = []
        eng.schedule_at(1.0, lambda: eng.schedule_after(0.5, seen.append, "x"))
        eng.run(until=2.0)
        assert seen == ["x"]

    def test_schedule_into_past_raises(self):
        eng = Engine()
        eng.run(until=5.0)
        with pytest.raises(ScheduleError, match="past"):
            eng.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ScheduleError):
            Engine().schedule_after(-1.0, lambda: None)

    def test_non_finite_time_raises(self):
        with pytest.raises(ScheduleError):
            Engine().schedule_at(float("inf"), lambda: None)

    def test_run_backwards_raises(self):
        eng = Engine()
        eng.run(until=3.0)
        with pytest.raises(ScheduleError):
            eng.run(until=2.0)

    def test_events_scheduled_during_run_execute(self):
        eng = Engine()
        seen = []
        def chain(n):
            seen.append(n)
            if n < 3:
                eng.schedule_after(1.0, chain, n + 1)
        eng.schedule_at(0.0, chain, 0)
        eng.run(until=10.0)
        assert seen == [0, 1, 2, 3]

    def test_events_beyond_until_stay_queued(self):
        eng = Engine()
        seen = []
        eng.schedule_at(5.0, seen.append, "later")
        eng.run(until=4.0)
        assert seen == []
        eng.run(until=6.0)
        assert seen == ["later"]

    def test_reentrant_run_rejected(self):
        eng = Engine()
        err = []
        def reenter():
            try:
                eng.run(until=9.0)
            except ScheduleError as exc:
                err.append(exc)
        eng.schedule_at(1.0, reenter)
        eng.run(until=2.0)
        assert len(err) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        handle = eng.schedule_at(1.0, seen.append, "x")
        handle.cancel()
        eng.run(until=2.0)
        assert seen == []

    def test_handle_state_transitions(self):
        eng = Engine()
        handle = eng.schedule_at(1.0, lambda: None)
        assert handle.pending
        eng.run(until=1.0)
        assert handle.fired and not handle.pending

    def test_cancel_after_fire_is_noop(self):
        eng = Engine()
        handle = eng.schedule_at(1.0, lambda: None)
        eng.run(until=2.0)
        handle.cancel()
        assert handle.fired

    def test_clear_cancels_everything(self):
        eng = Engine()
        seen = []
        for t in (1.0, 2.0):
            eng.schedule_at(t, seen.append, t)
        eng.clear()
        eng.run(until=5.0)
        assert seen == []
        assert eng.pending_events == 0


class TestStep:
    def test_step_executes_one_event(self):
        eng = Engine()
        seen = []
        eng.schedule_at(1.0, seen.append, "a")
        eng.schedule_at(2.0, seen.append, "b")
        assert eng.step()
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert not Engine().step()

    def test_step_skips_cancelled(self):
        eng = Engine()
        seen = []
        handle = eng.schedule_at(1.0, seen.append, "a")
        eng.schedule_at(2.0, seen.append, "b")
        handle.cancel()
        assert eng.step()
        assert seen == ["b"]


class TestCounters:
    def test_events_processed_counts(self):
        eng = Engine()
        for t in (1.0, 2.0, 3.0):
            eng.schedule_at(t, lambda: None)
        eng.run(until=10.0)
        assert eng.events_processed == 3

    def test_pending_events_excludes_cancelled(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        h.cancel()
        assert eng.pending_events == 1


class TestTombstoneCompaction:
    def test_heap_compacts_when_cancellations_dominate(self):
        # Cancel 99 of 100 events: compaction must shrink the underlying
        # heap, not just the logical count, or long simulations with heavy
        # timer churn would leak dead entries.
        eng = Engine()
        handles = [eng.schedule_at(float(t + 1), lambda: None) for t in range(100)]
        for h in handles[1:]:
            h.cancel()
        assert eng.pending_events == 1
        # At most one tombstone may remain below the compaction threshold.
        assert len(eng._queue) <= 2
        assert eng._tombstones <= 1

    def test_events_still_fire_in_order_after_compaction(self):
        eng = Engine()
        seen = []
        handles = [
            eng.schedule_at(float(t + 1), seen.append, t) for t in range(20)
        ]
        for h in handles[::2]:  # cancel every other event -> triggers compaction
            h.cancel()
        eng.run(until=30.0)
        assert seen == list(range(1, 20, 2))
        assert eng.pending_events == 0

    def test_pop_of_uncompacted_tombstone_keeps_count_consistent(self):
        # Below the compaction threshold the tombstone stays in the heap;
        # popping it during run() must decrement the counter.
        eng = Engine()
        handles = [eng.schedule_at(float(t + 1), lambda: None) for t in range(5)]
        handles[0].cancel()  # 1 tombstone of 5 entries: no compaction yet
        assert eng._tombstones == 1
        eng.run(until=10.0)
        assert eng._tombstones == 0
        assert eng.pending_events == 0

    def test_double_cancel_counts_once(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        eng.schedule_at(3.0, lambda: None)
        h.cancel()
        h.cancel()
        assert eng.pending_events == 2

    def test_clear_resets_tombstones(self):
        eng = Engine()
        handles = [eng.schedule_at(float(t + 1), lambda: None) for t in range(6)]
        handles[0].cancel()
        eng.clear()
        assert eng.pending_events == 0
        assert eng._tombstones == 0
        eng.schedule_at(1.0, lambda: None)
        assert eng.pending_events == 1


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        eng = Engine()
        ticks = []
        PeriodicTimer(eng, 1.0, ticks.append, first_at=0.0)
        eng.run(until=3.5)
        assert ticks == [0, 1, 2, 3]

    def test_callable_interval(self):
        eng = Engine()
        times = []
        intervals = iter([1.0, 2.0, 4.0, 100.0])
        PeriodicTimer(eng, lambda: next(intervals), lambda _t: times.append(eng.now), first_at=0.0)
        eng.run(until=8.0)
        assert times == [0.0, 1.0, 3.0, 7.0]

    def test_stop_halts_timer(self):
        eng = Engine()
        ticks = []
        timer = PeriodicTimer(eng, 1.0, ticks.append, first_at=0.0)
        eng.schedule_at(2.5, timer.stop)
        eng.run(until=10.0)
        assert ticks == [0, 1, 2]
        assert timer.ticks == 3

    def test_next_time_is_the_following_tick_inside_the_callback(self):
        eng = Engine()
        intervals = iter([1.0, 2.0, 4.0, 100.0])
        seen = []
        timer = PeriodicTimer(
            eng, lambda: next(intervals), lambda _t: seen.append(timer.next_time),
            first_at=0.5,
        )
        assert timer.next_time == 0.5
        eng.run(until=8.0)
        assert seen == [1.5, 3.5, 7.5, 107.5]
        timer.stop()
        assert timer.next_time == float("inf")

    def test_nonpositive_interval_raises(self):
        eng = Engine()
        PeriodicTimer(eng, 0.0, lambda _t: None, first_at=0.0)
        with pytest.raises(ScheduleError):
            eng.run(until=1.0)

    def test_first_at_defaults_to_now(self):
        eng = Engine()
        eng.run(until=2.0)
        ticks = []
        PeriodicTimer(eng, 1.0, ticks.append)
        eng.run(until=4.0)
        assert ticks == [0, 1, 2]
