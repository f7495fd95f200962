"""InvariantHarness sweeps, built-in invariants, and violation capture."""

import pytest

from repro.errors import FaultError, InvariantViolation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    Invariant,
    InvariantHarness,
    Partition,
    eventually,
    message_conservation,
    monotonic,
    no_double_resume,
    read_your_writes,
)
from repro.net import ConstantLatency, Network
from repro.obs import Tracer, observe
from repro.sim import RngStreams, Simulator


def build(tracer=None):
    sim = Simulator(tracer=tracer)
    streams = RngStreams(1)
    network = Network(sim, streams, latency=ConstantLatency(0.05))
    network.create_node("a")
    network.create_node("b")
    return sim, streams, network


def always_fails(message="boom"):
    return Invariant(
        name="always_fails", check=lambda ctx: (message, {"k": 1}),
    )


class TestHarnessMechanics:
    def test_periodic_sweeps_and_finish(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=10.0)
        harness.add(message_conservation())
        harness.start()
        sim.run(until=35.0)
        violations = harness.finish()
        assert violations == []
        # 3 periodic sweeps (t=10,20,30) + 1 final
        assert harness.checks_run == 4

    def test_invalid_interval_rejected(self):
        sim, _, network = build()
        for bad in (0.0, float("nan")):
            with pytest.raises(FaultError):
                InvariantHarness(sim, network, interval=bad)

    def test_duplicate_invariant_rejected(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network)
        harness.add(message_conservation())
        with pytest.raises(FaultError):
            harness.add(message_conservation())

    def test_double_start_rejected(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network)
        harness.start()
        with pytest.raises(FaultError):
            harness.start()

    def test_violation_recorded_once_not_per_sweep(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=5.0)
        harness.add(always_fails())
        harness.start()
        sim.run(until=50.0)
        violations = harness.finish()
        assert len(violations) == 1
        violation = violations[0]
        assert violation.name == "always_fails"
        assert violation.at == 5.0
        assert violation.details == {"k": 1}

    def test_strict_mode_raises(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=5.0, strict=True)
        harness.add(always_fails())
        harness.start()
        with pytest.raises(InvariantViolation):
            sim.run(until=10.0)

    def test_finish_idempotent(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network)
        harness.add(always_fails())
        harness.start()
        sim.run(until=1.0)
        assert harness.finish() == harness.finish()

    def test_trace_events_emitted(self):
        tracer = Tracer()
        sim, _, network = build(tracer=tracer)
        harness = InvariantHarness(sim, network, interval=5.0)
        harness.add(message_conservation())
        harness.add(always_fails())
        harness.start()
        sim.run(until=6.0)
        harness.finish()
        assert tracer.count("invariant_checked") == 2  # one sweep + final
        violated = list(tracer.iter_kind("invariant_violated"))
        assert len(violated) == 1
        assert violated[0]["name"] == "always_fails"
        assert violated[0]["d_k"] == 1


class TestMessageConservation:
    def test_holds_through_lossy_traffic(self):
        sim, _, network = build()
        network = Network(sim.__class__(), RngStreams(3), loss_rate=0.3)
        # fresh sim to keep it simple
        sim = network.sim
        network.create_node("a")
        network.create_node("b")
        network.node("b").register_handler(
            "m", lambda node, payload, sender: None
        )
        for i in range(50):
            sim.schedule(float(i), network.send, "a", "b", "m", i)
        harness = InvariantHarness(sim, network, interval=7.0)
        harness.add(message_conservation())
        harness.start()
        sim.run(until=80.0)
        assert harness.finish() == []
        flow = network.flow_snapshot()
        assert flow["sent"] == 50
        assert flow["in_flight"] == 0
        assert flow["delivered"] + flow["dropped"] == 50

    def test_catches_broken_accounting(self):
        """Mutation smoke at the unit level: corrupt one counter."""
        sim, _, network = build()
        network._flow_sent += 3  # repro: noqa — simulating a lost update
        harness = InvariantHarness(sim, network)
        harness.add(message_conservation())
        harness.start()
        sim.run(until=1.0)
        violations = harness.finish()
        assert len(violations) == 1
        assert "sent=3" in violations[0].message


class TestNoDoubleResume:
    def test_clean_run_passes(self):
        sim, _, network = build()

        def proc():
            yield 1.0

        sim.spawn(proc())
        harness = InvariantHarness(sim, network)
        harness.add(no_double_resume())
        harness.start()
        sim.run(until=5.0)
        assert harness.finish() == []

    def test_stale_resume_detected(self):
        sim, _, network = build()

        def proc():
            yield 1.0

        process = sim.spawn(proc())
        sim.run(until=2.0)
        process._resume(None)  # simulate a leaked subscription firing
        harness = InvariantHarness(sim, network)
        harness.add(no_double_resume())
        harness.start()
        violations = harness.finish()
        assert len(violations) == 1
        assert violations[0].details == {"stale_resumes": 1}


class TestMonotonic:
    def test_rising_gauge_passes(self):
        sim, _, network = build()
        values = iter([1.0, 2.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        harness = InvariantHarness(sim, network, interval=1.0)
        harness.add(monotonic("gauge", lambda ctx: next(values)))
        harness.start()
        sim.run(until=4.5)
        assert harness.finish() == []

    def test_decrease_flagged(self):
        sim, _, network = build()
        values = iter([5.0, 3.0])
        harness = InvariantHarness(sim, network, interval=1.0)
        harness.add(monotonic("gauge", lambda ctx: next(values)))
        harness.start()
        sim.run(until=2.5)
        violations = harness.finish()
        assert len(violations) == 1
        assert violations[0].details == {"previous": 5.0, "current": 3.0}


class TestEventually:
    def test_vacuous_before_deadline(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=1.0)
        harness.add(eventually("live", deadline=100.0,
                               predicate=lambda ctx: False))
        harness.start()
        sim.run(until=5.0)
        # finish() happens at t=5 < deadline: still vacuous
        assert harness.finish() == []

    def test_violated_after_deadline(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=1.0)
        harness.add(eventually("live", deadline=3.0,
                               predicate=lambda ctx: False))
        harness.start()
        sim.run(until=5.0)
        violations = harness.finish()
        assert len(violations) == 1
        assert violations[0].details == {"deadline": 3.0}

    def test_satisfied_predicate_passes(self):
        sim, _, network = build()
        harness = InvariantHarness(sim, network, interval=1.0)
        harness.add(eventually("live", deadline=3.0,
                               predicate=lambda ctx: True))
        harness.start()
        sim.run(until=5.0)
        assert harness.finish() == []


class TestReadYourWrites:
    def _harness(self, sim, network, injector, probe_log):
        def probe(ctx):
            probe_log.append(ctx.now)
            return None

        harness = InvariantHarness(sim, network, injector, interval=5.0)
        harness.add(read_your_writes(probe, grace=10.0))
        return harness

    def test_probe_skipped_during_partition_and_grace(self):
        sim, streams, network = build()
        plan = FaultPlan([Partition((("a",), ("b",)), at=7.0, heal_at=23.0)])
        injector = FaultInjector(sim, network, plan, streams)
        probe_log = []
        harness = self._harness(sim, network, injector, probe_log)
        injector.arm()
        harness.start()
        sim.run(until=50.0)
        harness.finish()
        # Partition open [7, 23); grace until 33.  Sweeps at 5,10,...,50
        # plus the final check at t=50.
        assert probe_log == [5.0, 35.0, 40.0, 45.0, 50.0, 50.0]

    def test_probe_failure_after_heal_is_violation(self):
        sim, streams, network = build()
        plan = FaultPlan([Partition((("a",), ("b",)), at=1.0, heal_at=2.0)])
        injector = FaultInjector(sim, network, plan, streams)
        harness = InvariantHarness(sim, network, injector, interval=5.0)
        harness.add(read_your_writes(lambda ctx: "stale read", grace=1.0))
        injector.arm()
        harness.start()
        sim.run(until=10.0)
        violations = harness.finish()
        assert len(violations) == 1
        assert violations[0].message == "stale read"


class TestAmbientObservation:
    def test_harness_traces_through_observe_block(self):
        tracer = Tracer()
        with observe(tracer=tracer):
            sim, _, network = build()
            harness = InvariantHarness(sim, network, interval=2.0)
            harness.add(message_conservation())
            harness.start()
            sim.run(until=5.0)
            harness.finish()
        assert tracer.count("invariant_checked") >= 2
