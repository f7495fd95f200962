"""Edge-case tests for the simulation engine combinators."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Signal, Simulator, Timeout


class TestCombinatorEdges:
    def test_allof_with_timeout_children(self):
        sim = Simulator()

        def waiter():
            results = yield AllOf([Timeout(3.0), Timeout(1.0)])
            return (sim.now, results)

        when, results = sim.run_process(waiter())
        assert when == 3.0
        assert results == [None, None]

    def test_allof_with_process_children(self):
        sim = Simulator()

        def child(duration, value):
            yield duration
            return value

        def parent():
            a = sim.spawn(child(2.0, "a"))
            b = sim.spawn(child(5.0, "b"))
            results = yield AllOf([a, b])
            return (sim.now, results)

        when, results = sim.run_process(parent())
        assert when == 5.0
        assert results == ["a", "b"]

    def test_empty_combinators_rejected(self):
        with pytest.raises(SimulationError):
            AllOf([])

    def test_combining_garbage_rejected(self):
        sim = Simulator()

        def waiter():
            yield AllOf(["not-a-waitable"])

        sim.spawn(waiter())
        with pytest.raises(SimulationError):
            sim.run()

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_result_before_completion_raises(self):
        sim = Simulator()

        def sleeper():
            yield 10.0

        process = sim.spawn(sleeper())
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            _ = process.result

    def test_run_process_with_horizon_returns_early_finish(self):
        sim = Simulator()
        # A perpetual background process that would block a plain run().
        def forever():
            while True:
                yield 10.0

        sim.spawn(forever())

        def quick():
            yield 5.0
            return "done"

        assert sim.run_process(quick(), until=100.0) == "done"
        assert sim.now <= 100.0

    def test_run_process_horizon_exceeded_raises(self):
        sim = Simulator()

        def slow():
            yield 1000.0
            return "never"

        with pytest.raises(SimulationError):
            sim.run_process(slow(), until=10.0)

    def test_signal_value_before_fire_raises(self):
        signal = Signal("pending")
        with pytest.raises(SimulationError):
            _ = signal.value

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_nan_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(float("nan"))
        sim = Simulator()

        def sleeper():
            yield float("nan")

        sim.spawn(sleeper())
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative timeout"):
            sim.run()
        assert sim.now == 0.0

    def test_timeout_zero_fires_same_instant(self):
        sim = Simulator()
        order = []

        def a():
            yield 0.0
            order.append("a")

        def b():
            yield 0.0
            order.append("b")

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        assert order == ["a", "b"]  # FIFO at the same instant
