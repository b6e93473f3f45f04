"""Unit tests for the discrete-event engine."""

import pytest

from repro.simkernel.engine import Engine, cancel


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, lambda: order.append("c"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(20, lambda: order.append("b"))
        engine.run_until(100)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        engine.schedule(10, lambda: order.append(1))
        engine.schedule(10, lambda: order.append(2))
        engine.schedule(10, lambda: order.append(3))
        engine.run_until(10)
        assert order == [1, 2, 3]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run_until(100)
        assert seen == [42]
        assert engine.now == 100

    def test_schedule_after(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run_until(10)
        seen = []
        engine.schedule_after(5, lambda: seen.append(engine.now))
        engine.run_until(100)
        assert seen == [15]

    def test_rejects_past(self):
        engine = Engine()
        engine.run_until(50)
        with pytest.raises(ValueError):
            engine.schedule(10, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Engine().schedule_after(-1, lambda: None)


class TestCancellation:
    def test_cancelled_does_not_run(self):
        engine = Engine()
        ran = []
        handle = engine.schedule(10, lambda: ran.append(1))
        cancel(handle)
        engine.run_until(100)
        assert ran == []
        assert engine.events_executed == 0

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(10, lambda: None)
        cancel(handle)
        cancel(handle)
        engine.run_until(100)
        assert engine.events_executed == 0

    def test_pending_count_excludes_cancelled(self):
        engine = Engine()
        handle = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        assert engine.pending_count() == 2
        cancel(handle)
        assert engine.pending_count() == 1

    def test_cancelled_beyond_window_never_runs(self):
        # A cancelled entry past the window stays queued but is never
        # counted, and a later window drops it without running it.
        # Cancelling an event that already ran changes nothing.
        engine = Engine()
        ran = []
        early = engine.schedule(10, lambda: ran.append(10))
        late = engine.schedule(500, lambda: ran.append(500))
        engine.schedule(600, lambda: ran.append(600))
        cancel(late)
        engine.run_until(100)
        assert ran == [10]
        assert engine.events_executed == 1
        assert engine.pending_count() == 1
        cancel(early)
        engine.run_until(1000)
        assert ran == [10, 600]
        assert engine.events_executed == 2
        assert engine.pending_count() == 0


class TestExecution:
    def test_events_scheduled_during_run_execute_in_window(self):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.schedule(15, lambda: order.append("nested"))

        engine.schedule(10, first)
        engine.schedule(20, lambda: order.append("last"))
        engine.run_until(100)
        assert order == ["first", "nested", "last"]

    def test_events_beyond_window_wait(self):
        engine = Engine()
        ran = []
        engine.schedule(50, lambda: ran.append(1))
        engine.run_until(40)
        assert ran == []
        assert engine.now == 40
        engine.run_until(60)
        assert ran == [1]

    def test_not_reentrant(self):
        engine = Engine()

        def bad():
            engine.run_until(engine.now + 10)

        engine.schedule(1, bad)
        with pytest.raises(RuntimeError):
            engine.run_until(5)

    def test_step_inside_run_until_rejected(self):
        # Stepping the engine from inside a callback (run_until is its one
        # event loop) would run events past the outer window and leave
        # ``now`` beyond its end.
        engine = Engine()
        ran = []

        def bad():
            engine.run_until(engine.now + 1000)

        engine.schedule(10, bad)
        engine.schedule(500, lambda: ran.append(500))
        with pytest.raises(RuntimeError, match="not reentrant"):
            engine.run_until(100)
        assert ran == []
        assert engine.now == 10
        # The engine is usable again afterwards.
        engine.run_until(1000)
        assert ran == [500]


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Engine(seed=9).rng.integers(0, 1 << 30, 5)
        b = Engine(seed=9).rng.integers(0, 1 << 30, 5)
        assert list(a) == list(b)
