"""Regression tests for event-queue bookkeeping: cancelled events are
traced and counted when cancelled, ``AllOf`` children, and deadlock
detection in ``run_process``.

Each test documents the pre-fix failure mode it pins down; the queue
metrics introduced with :mod:`repro.obs` make the leaks assertable.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.obs import Metrics, Tracer
from repro.sim import AllOf, Signal, Simulator, Timeout


class TestTracingHooks:
    def test_event_lifecycle_traced(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)

        def worker():
            yield 1.0
            return "done"

        sim.spawn(worker(), name="w")
        sim.run()
        assert tracer.count("process_spawned") == 1
        assert tracer.count("process_finished") == 1
        assert tracer.count("event_fired") == sim.events_processed
        spawned = next(tracer.iter_kind("process_spawned"))
        assert spawned["name"] == "w"
        finished = next(tracer.iter_kind("process_finished"))
        assert finished["t"] == 1.0

    def test_cancelled_events_traced_at_cancel_time(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        # Traced immediately at cancel time, before any run()...
        assert tracer.count("event_cancelled") == 1
        sim.run()
        # ...and not double-counted when the tombstone is drained.
        assert tracer.count("event_cancelled") == 1
        assert tracer.count("event_fired") == 0

    def test_cancellation_counted_even_when_tombstone_never_drained(self):
        """Pre-fix: only tombstones popped by the run loop were counted,
        so a cancel whose tombstone never reached the heap top before
        run() returned was invisible to sim.events_cancelled."""
        metrics = Metrics()
        tracer = Tracer()
        sim = Simulator(tracer=tracer, metrics=metrics)
        sim.schedule(50.0, lambda: None)  # live event beyond the horizon
        handle = sim.schedule(100.0, lambda: None)
        sim.schedule(1.0, handle.cancel)
        sim.run(until=2.0)
        # The t=100 tombstone sits behind the live t=50 event and was
        # never drained, but the cancellation is still counted.
        assert metrics.counter("sim.events_cancelled") == 1
        assert tracer.count("event_cancelled") == 1
        assert sim.pending_events == 1  # only the live t=50 event

    def test_disabled_observation_costs_nothing_structural(self):
        sim = Simulator()
        assert sim.tracer is None
        assert sim.metrics is None


class TestNestedCombinators:
    def test_allof_with_already_fired_children(self):
        sim = Simulator()
        first, second = Signal("first"), Signal("second")
        first.fire(1)
        second.fire(2)

        def waiter():
            return (yield AllOf([first, second]))

        process = sim.spawn(waiter())
        sim.run()
        assert process.result == [1, 2]
        assert sim.pending_events == 0

    def test_empty_combinators_rejected(self):
        with pytest.raises(SimulationError):
            AllOf([])

    def test_garbage_child_rejected(self):
        def waiter(child):
            yield AllOf([Timeout(1.0), child])

        # Children are processes, signals or timeouts: anything else,
        # a nested combinator included, is refused.
        for child in ("not-a-waitable", AllOf([Timeout(2.0)])):
            with pytest.raises(SimulationError, match="cannot combine"):
                Simulator().run_process(waiter(child))


class TestRunProcessStillStrict:
    def test_deadlocked_process_still_detected(self):
        sim = Simulator()
        never = Signal("never")

        def stuck():
            yield never

        with pytest.raises(SimulationError):
            sim.run_process(stuck())

    def test_deadlock_under_a_horizon_stops_at_the_first_empty_slice(self):
        sim = Simulator()

        def stuck():
            yield Signal("never")

        with pytest.raises(SimulationError, match="did not finish by t="):
            sim.run_process(stuck(), until=1e7)
        assert sim.now <= 1000.0

    def test_deadlock_under_an_infinite_horizon_raises(self):
        sim = Simulator()

        def stuck():
            yield Signal("never")

        with pytest.raises(SimulationError, match="did not finish by t=inf"):
            sim.run_process(stuck(), until=math.inf)
