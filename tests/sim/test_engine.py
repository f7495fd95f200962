"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Signal, Simulator, Timeout


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected_and_order_kept(self):
        # NaN compares false with everything: queued, it would fire out
        # of order and leave ``now`` as NaN.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), order.append, "nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), order.append, "nan")
        sim.schedule(0.5, order.append, "b")
        sim.schedule(2.0, order.append, "c")
        sim.run()
        assert order == ["b", "a", "c"]
        assert sim.now == 2.0

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]
        assert sim.now == 10.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_at(7.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_allows_exactly_the_budget(self):
        # Three live events fit a budget of three, and a cancelled one
        # behind them is not an event beyond it.
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule(1.0 + i, fired.append, i)
        sim.schedule(9.0, fired.append, "cancelled").cancel()
        assert sim.run(max_events=3) == 3.0
        assert fired == [0, 1, 2]
        assert sim.pending_events == 0

    def test_max_events_raises_before_the_event_beyond_it(self):
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(1.0 + i, fired.append, i)
        with pytest.raises(SimulationError, match="max_events=3"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.pending_events == 1
        assert sim.run() == 4.0 and fired == [0, 1, 2, 3]

    def test_run_until_nan_rejected_before_anything_fires(self):
        # Every comparison with NaN is false: the horizon would never
        # stop the run and every queued event would fire.
        sim = Simulator()
        fired = []
        for t in (1.0, 5.0, 100.0):
            sim.schedule(t, fired.append, t)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 3
        assert sim.run(until=float("inf")) == float("inf")
        assert fired == [1.0, 5.0, 100.0]

    def test_run_process_until_nan_rejected_before_anything_fires(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append(sim.now)
            yield 1.0

        with pytest.raises(SimulationError, match="cannot run until nan"):
            sim.run_process(proc(), until=float("nan"))
        assert steps == [] and sim.pending_events == 0


class TestProcesses:
    def test_process_sleeps_with_numeric_yield(self):
        sim = Simulator()
        wakes = []

        def proc():
            yield 5.0
            wakes.append(sim.now)
            yield 2
            wakes.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert wakes == [5.0, 7.0]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        assert sim.run_process(proc()) == 42

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_join_another_process(self):
        sim = Simulator()

        def child():
            yield 3.0
            return "child-result"

        def parent():
            child_proc = sim.spawn(child())
            result = yield child_proc
            return (sim.now, result)

        assert sim.run_process(parent()) == (3.0, "child-result")

    def test_signal_wakes_waiter_with_value(self):
        sim = Simulator()
        sig = Signal("test")

        def waiter():
            value = yield sig
            return (sim.now, value)

        proc = sim.spawn(waiter())
        sim.schedule(4.0, sig.fire, "hello")
        sim.run()
        assert proc.result == (4.0, "hello")

    def test_wait_on_already_fired_signal(self):
        sim = Simulator()
        sig = Signal()
        sig.fire("early")

        def waiter():
            value = yield sig
            return value

        assert sim.run_process(waiter()) == "early"

    def test_signal_cannot_fire_twice(self):
        sig = Signal("x")
        sig.fire(1)
        with pytest.raises(SimulationError):
            sig.fire(2)

    def test_allof_collects_results_in_order(self):
        sim = Simulator()
        s1, s2 = Signal("s1"), Signal("s2")

        def waiter():
            results = yield AllOf([s1, s2])
            return (sim.now, results)

        proc = sim.spawn(waiter())
        sim.schedule(2.0, s2.fire, "second")
        sim.schedule(5.0, s1.fire, "first")
        sim.run()
        assert proc.result == (5.0, ["first", "second"])

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield "not-waitable"

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_process_detects_deadlock(self):
        sim = Simulator()

        def stuck():
            yield Signal("never-fires")

        with pytest.raises(SimulationError):
            sim.run_process(stuck())

    def test_many_processes_complete(self):
        sim = Simulator()
        results = []

        def worker(i):
            yield float(i)
            results.append(i)

        for i in range(100):
            sim.spawn(worker(i))
        sim.run()
        assert results == sorted(results)
        assert len(results) == 100

    def test_nested_spawn_inside_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield 1.0
            log.append(("inner", sim.now))

        def outer():
            yield 2.0
            sim.spawn(inner())
            yield 5.0
            log.append(("outer", sim.now))

        sim.spawn(outer())
        sim.run()
        assert log == [("inner", 3.0), ("outer", 7.0)]
