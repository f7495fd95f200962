"""FaultInjector: compiling plans onto the simulator and transport."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    Corrupt,
    Crash,
    DropBurst,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    Partition,
)
from repro.net import ChurnProfile, ConstantLatency, Network, attach_churn
from repro.sim import RngStreams, Simulator


def build(loss_rate=0.0, seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.05),
                      loss_rate=loss_rate)
    for node_id in ("a", "b", "c"):
        network.create_node(node_id)
    return sim, streams, network


class TestArmValidation:
    def test_unknown_node_rejected(self):
        sim, streams, network = build()
        plan = FaultPlan([Crash("ghost", at=1.0)])
        with pytest.raises(FaultError):
            FaultInjector(sim, network, plan, streams).arm()

    def test_double_arm_rejected(self):
        sim, streams, network = build()
        injector = FaultInjector(sim, network, FaultPlan([]), streams)
        injector.arm()
        with pytest.raises(FaultError):
            injector.arm()


class TestPartitionEvents:
    def test_partition_applied_and_healed(self):
        sim, streams, network = build()
        plan = FaultPlan([Partition((("a",), ("b",)), at=10.0, heal_at=20.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=15.0)
        assert network.partitioned
        assert injector.partition_active
        assert not network.can_reach("a", "b")
        sim.run(until=25.0)
        assert not network.partitioned
        assert injector.last_heal_at == 20.0
        assert injector.injected == 1 and injector.healed == 1

    def test_overlapping_windows_heal_only_the_active_partition(self):
        # A(0-100) overlaps B(50-150).  B replaces A at t=50
        # (last-writer-wins), so A's heal at t=100 is a no-op: it must
        # not destroy B, stamp last_heal_at, or count as healed.
        sim, streams, network = build()
        plan = FaultPlan([
            Partition((("a",), ("b", "c")), at=0.0, heal_at=100.0),
            Partition((("a", "b"), ("c",)), at=50.0, heal_at=150.0),
        ])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=120.0)  # past A's heal, before B's
        assert network.partitioned
        assert injector.partition_active
        assert not network.can_reach("b", "c")
        assert injector.last_heal_at is None
        assert injector.healed == 0
        sim.run(until=160.0)
        assert not network.partitioned
        assert injector.last_heal_at == 150.0
        assert injector.injected == 2
        assert injector.healed == 1

    def test_identical_overlapping_partitions_heal_once(self):
        # Two Partition events with identical fields are distinct plan
        # entries; the earlier heal releases the active (replacing)
        # event's partition only once the replacement is the active one.
        sim, streams, network = build()
        first = Partition((("a",), ("b", "c")), at=10.0, heal_at=40.0)
        second = Partition((("a",), ("b", "c")), at=20.0, heal_at=60.0)
        plan = FaultPlan([first, second])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=50.0)  # past first heal
        assert network.partitioned  # second event still active
        sim.run(until=70.0)
        assert not network.partitioned
        assert injector.healed == 1
        assert injector.last_heal_at == 60.0

    def test_unhealed_partition_persists(self):
        sim, streams, network = build()
        plan = FaultPlan([Partition((("a",), ("b",)), at=5.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=100.0)
        assert network.partitioned
        assert injector.healed == 0


class TestCrashEvents:
    def test_crash_and_restart_plain_node(self):
        sim, streams, network = build()
        plan = FaultPlan([Crash("a", at=10.0, restart_at=30.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=20.0)
        assert not network.node("a").online
        assert injector.crashed_nodes == ("a",)
        sim.run(until=40.0)
        assert network.node("a").online
        assert injector.crashed_nodes == ()

    def test_crash_suspends_churn(self):
        sim, streams, network = build()
        profile = ChurnProfile(mean_uptime=5.0, mean_downtime=5.0)
        processes = attach_churn(
            sim, streams, [network.node("a")], profile
        )
        churn = {"a": processes[0]}
        plan = FaultPlan([Crash("a", at=10.0, restart_at=200.0)])
        injector = FaultInjector(sim, network, plan, streams, churn=churn)
        injector.arm()
        # Between crash and restart churn may not flip the node back on.
        sim.run(until=150.0)
        assert not network.node("a").online
        assert processes[0].crashed
        sim.run(until=260.0)
        assert processes[0].crashed is False


class TestWindowComposition:
    def test_surface_installed_and_cleared(self):
        sim, streams, network = build()
        plan = FaultPlan([DropBurst(window=(10.0, 20.0), prob=0.5)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=5.0)
        assert network.fault_surface is None
        sim.run(until=15.0)
        surface = network.fault_surface
        assert surface is not None and surface.drop_prob == 0.5
        sim.run(until=25.0)
        assert network.fault_surface is None
        assert injector.last_heal_at == 20.0

    def test_overlapping_drops_compose_as_hazards(self):
        sim, streams, network = build()
        plan = FaultPlan([
            DropBurst(window=(0.5, 30.0), prob=0.5),
            DropBurst(window=(10.0, 20.0), prob=0.5),
        ])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=15.0)
        assert network.fault_surface.drop_prob == pytest.approx(0.75)
        sim.run(until=25.0)
        assert network.fault_surface.drop_prob == pytest.approx(0.5)

    def test_latency_factors_multiply(self):
        sim, streams, network = build()
        plan = FaultPlan([
            LatencySpike(window=(0.5, 30.0), factor=2.0),
            LatencySpike(window=(10.0, 20.0), factor=3.0),
        ])
        FaultInjector(sim, network, plan, streams).arm()
        sim.run(until=15.0)
        assert network.fault_surface.latency_factor == pytest.approx(6.0)
        a, b = network.node("a"), network.node("b")
        base = network.latency.delay(a, b, 100)
        arrivals = []
        b.register_handler(
            "ping", lambda node, payload, sender: arrivals.append(sim.now))
        network.send("a", "b", "ping", size_bytes=100)
        sim.run(until=19.0)
        assert arrivals == [pytest.approx(15.0 + base * 6.0)]

    def test_corrupt_window_sets_probability(self):
        sim, streams, network = build()
        plan = FaultPlan([Corrupt(window=(1.0, 2.0), prob=0.25)])
        FaultInjector(sim, network, plan, streams).arm()
        sim.run(until=1.5)
        assert network.fault_surface.corrupt_prob == 0.25

    def test_mixed_windows_one_surface(self):
        sim, streams, network = build()
        plan = FaultPlan([
            DropBurst(window=(1.0, 10.0), prob=0.2),
            Corrupt(window=(1.0, 10.0), prob=0.1),
            LatencySpike(window=(1.0, 10.0), factor=4.0),
        ])
        FaultInjector(sim, network, plan, streams).arm()
        sim.run(until=5.0)
        surface = network.fault_surface
        assert surface.drop_prob == pytest.approx(0.2)
        assert surface.corrupt_prob == pytest.approx(0.1)
        assert surface.latency_factor == pytest.approx(4.0)


class TestRngIsolation:
    def test_fault_window_does_not_perturb_base_loss_stream(self):
        """A chaos window must not shift the net.loss draw sequence."""

        def loss_draws_after(plan):
            sim, streams, network = build(loss_rate=0.3, seed=9)
            FaultInjector(sim, network, plan, streams).arm()
            received = []
            network.node("b").register_handler(
                "m", lambda node, payload, sender: received.append(payload)
            )
            for i in range(40):
                sim.schedule(float(i), network.send, "a", "b", "m", i)
            sim.run(until=100.0)
            return [p for p in received]

        quiet = loss_draws_after(FaultPlan([]))
        # The drop window spans some sends; the *base* loss decisions for
        # messages outside the window must be identical.
        noisy = loss_draws_after(
            FaultPlan([DropBurst(window=(10.0, 20.0), prob=0.9)])
        )
        quiet_outside = [p for p in quiet if not 10.0 <= p < 20.0]
        noisy_outside = [p for p in noisy if not 10.0 <= p < 20.0]
        assert noisy_outside == quiet_outside


class TestRpcResponseLeg:
    """The mid-flight audit: a fault arming between request send and
    response delivery must kill the *response* leg with its own reason,
    leave flow accounting balanced, and time the caller out."""

    def _rpc_through_fault(self, event, server="b"):
        from repro.errors import RpcTimeoutError
        from repro.obs import Tracer, observe

        tracer = Tracer()
        with observe(tracer=tracer):
            sim = Simulator()
            streams = RngStreams(2)
            network = Network(sim, streams, latency=ConstantLatency(0.05))
            for node_id in ("a", server):
                network.create_node(node_id)

            def slow_echo(node, payload, sender):
                yield 1.0  # request arrives 10.05; respond at 11.05
                return payload

            network.node(server).register_handler("echo", slow_echo)
            injector = FaultInjector(
                sim, network, FaultPlan([event]), streams
            )
            injector.arm()
            outcome = {}

            def caller():
                try:
                    outcome["value"] = yield from network.rpc(
                        "a", server, "echo", "hi", timeout=5.0
                    )
                except RpcTimeoutError:
                    outcome["timed_out"] = True

            sim.schedule_at(10.0, lambda: sim.spawn(caller()))
            sim.run(until=40.0)
        return network, tracer, outcome

    def _response_drops(self, tracer):
        return [e for e in tracer.events
                if e["kind"] == "msg_drop" and e["leg"] == "rpc_response"]

    def test_partition_arming_mid_rpc_kills_the_response_leg(self):
        # Request crosses at t=10.05; the partition opens at t=10.5
        # while the handler is still working; the response launched at
        # t=11.05 must die in flight with reason "partition".
        network, tracer, outcome = self._rpc_through_fault(
            Partition((("a",), ("b",)), at=10.5, heal_at=30.0)
        )
        drops = self._response_drops(tracer)
        assert [d["reason"] for d in drops] == ["partition"]
        assert drops[0]["src"] == "b" and drops[0]["dst"] == "a"
        assert outcome == {"timed_out": True}
        flow = network.flow_snapshot()
        assert flow["in_flight"] == 0
        assert flow["delivered"] + flow["dropped"] == flow["sent"]

    def test_censor_arming_mid_rpc_kills_the_response_leg(self):
        from repro.faults import Censor

        network, tracer, outcome = self._rpc_through_fault(
            Censor(inside=("a",), at=10.5, heal_at=30.0,
                   blocked=("svc",), direction="both"),
            server="svc",
        )
        drops = self._response_drops(tracer)
        assert [d["reason"] for d in drops] == ["censor"]
        assert outcome == {"timed_out": True}
        flow = network.flow_snapshot()
        assert flow["in_flight"] == 0
        assert flow["delivered"] + flow["dropped"] == flow["sent"]

    def test_heal_before_delivery_lets_the_response_through(self):
        # Same shape, but the window closes at t=11.0 — before the
        # response leg launches — so the RPC completes normally.
        network, tracer, outcome = self._rpc_through_fault(
            Partition((("a",), ("b",)), at=10.5, heal_at=11.0)
        )
        assert self._response_drops(tracer) == []
        assert outcome == {"value": "hi"}
        assert network.flow_snapshot()["in_flight"] == 0
