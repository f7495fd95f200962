"""Transport fault surface: validation, accounting, and RPC retry timing."""

import pytest

from repro.errors import NetworkError, RpcTimeoutError
from repro.faults import (
    Corrupt,
    DropBurst,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    Partition,
)
from repro.net import ConstantLatency, FaultSurface, Network
from repro.obs import Metrics, Tracer, observe
from repro.sim import RngStreams, Simulator


def build(loss_rate=0.0, seed=1, tracer=None, metrics=None):
    with observe(tracer=tracer, metrics=metrics):
        sim = Simulator()
        streams = RngStreams(seed)
        network = Network(sim, streams, latency=ConstantLatency(0.05),
                          loss_rate=loss_rate)
    for node_id in ("a", "b"):
        network.create_node(node_id)
    return sim, streams, network


class TestFaultSurfaceValidation:
    def _rngs(self):
        streams = RngStreams(1)
        return streams.stream("faults.drop"), streams.stream("faults.corrupt")

    def test_probabilities_must_be_sub_one(self):
        drop_rng, corrupt_rng = self._rngs()
        with pytest.raises(NetworkError):
            FaultSurface(1.0, 1.0, 0.0, drop_rng, corrupt_rng)
        with pytest.raises(NetworkError):
            FaultSurface(-0.1, 1.0, 0.0, drop_rng, corrupt_rng)
        with pytest.raises(NetworkError):
            FaultSurface(0.0, 1.0, 1.5, drop_rng, corrupt_rng)

    def test_latency_factor_must_be_positive(self):
        drop_rng, corrupt_rng = self._rngs()
        with pytest.raises(NetworkError):
            FaultSurface(0.0, 0.0, 0.0, drop_rng, corrupt_rng)

    def test_network_starts_without_surface(self):
        _, _, network = build()
        assert network.fault_surface is None


class TestFlowAccounting:
    def test_sends_conserved_through_drop_window(self):
        sim, streams, network = build(seed=5)
        network.node("b").register_handler(
            "m", lambda node, payload, sender: None
        )
        plan = FaultPlan([DropBurst(window=(10.0, 30.0), prob=0.6)])
        FaultInjector(sim, network, plan, streams).arm()
        for i in range(60):
            sim.schedule(float(i), network.send, "a", "b", "m", i)
        sim.run(until=120.0)
        flow = network.flow_snapshot()
        assert flow["sent"] == 60
        assert flow["in_flight"] == 0
        assert flow["delivered"] + flow["dropped"] == 60
        assert flow["dropped"] > 0  # the window definitely bit

    def test_rpc_legs_counted(self):
        sim, _, network = build()
        network.node("b").register_handler(
            "echo", lambda node, payload, sender: payload
        )
        results = []

        def caller():
            value = yield from network.rpc("a", "b", "echo", 42)
            results.append(value)

        sim.spawn(caller())
        sim.run(until=10.0)
        assert results == [42]
        flow = network.flow_snapshot()
        # one request leg + one response leg
        assert flow["sent"] == 2
        assert flow["delivered"] == 2
        assert flow["in_flight"] == 0


class TestCorruptWindow:
    def test_corrupt_drops_carry_reason(self):
        tracer, metrics = Tracer(), Metrics()
        sim, streams, network = build(seed=3, tracer=tracer, metrics=metrics)
        network.node("b").register_handler(
            "m", lambda node, payload, sender: None
        )
        plan = FaultPlan([Corrupt(window=(1.0, 50.0), prob=0.5)])
        FaultInjector(sim, network, plan, streams).arm()
        for i in range(80):
            sim.schedule(1.0 + i * 0.5, network.send, "a", "b", "m", i)
        sim.run(until=100.0)
        corrupted = metrics.counter("net.messages_dropped.corrupt")
        assert corrupted > 0
        drops = [e for e in tracer.iter_kind("msg_drop")]
        assert all(e["reason"] == "corrupt" for e in drops)
        assert len(drops) == corrupted
        flow = network.flow_snapshot()
        assert flow["delivered"] + flow["dropped"] == flow["sent"] == 80

    def test_corruption_checked_at_arrival_time(self):
        """A message sent inside the window but arriving after it is safe."""
        sim, streams, network = build(seed=3)
        delivered = []
        network.node("b").register_handler(
            "m", lambda node, payload, sender: delivered.append(payload)
        )
        plan = FaultPlan([Corrupt(window=(1.0, 2.0), prob=0.95)])
        FaultInjector(sim, network, plan, streams).arm()
        # Arrival at ~1.99 + 0.05 > 2.0: the window has closed.
        sim.schedule(1.99, network.send, "a", "b", "m", "late")
        sim.run(until=10.0)
        assert delivered == ["late"]


class TestLatencySpikeEndToEnd:
    def test_delivery_delayed_by_factor(self):
        sim, streams, network = build()
        arrivals = {}
        network.node("b").register_handler(
            "m", lambda node, payload, sender: arrivals.update({payload: sim.now})
        )
        plan = FaultPlan([LatencySpike(window=(10.0, 20.0), factor=5.0)])
        FaultInjector(sim, network, plan, streams).arm()
        base = network.latency.delay(network.node("a"), network.node("b"), 512)
        sim.schedule(5.0, network.send, "a", "b", "m", "before")
        sim.schedule(15.0, network.send, "a", "b", "m", "during")
        sim.run(until=30.0)
        assert arrivals["before"] == pytest.approx(5.0 + base)
        assert arrivals["during"] == pytest.approx(15.0 + base * 5.0)


class TestRpcRetryUnderPartition:
    def test_each_attempt_gets_a_fresh_timeout_window(self):
        """Attempts start at exactly call+0/30/60s; healing lets #3 land.

        Pins the retry contract: a timed-out attempt is re-issued
        immediately with its own full timeout, so a partition healed
        mid-call is survived by a later attempt rather than poisoning
        the whole RPC.
        """
        tracer, metrics = Tracer(), Metrics()
        sim, streams, network = build(tracer=tracer, metrics=metrics)
        network.node("b").register_handler(
            "echo", lambda node, payload, sender: payload
        )
        plan = FaultPlan(
            [Partition((("a",), ("b",)), at=0.2, heal_at=50.0)]
        )
        FaultInjector(sim, network, plan, streams).arm()
        results = []

        def caller():
            yield 0.5  # start the call at t=0.5, inside the partition
            value = yield from network.rpc(
                "a", "b", "echo", "hi", timeout=30.0, retries=2
            )
            results.append((sim.now, value))

        sim.spawn(caller())
        sim.run(until=120.0)

        assert len(results) == 1
        assert results[0][1] == "hi"
        spans = [(e["attempt"], e["t"], e["outcome"])
                 for e in tracer.iter_kind("rpc")]
        assert spans == [
            (0, 0.5, "timeout"),
            (1, 30.5, "timeout"),
            (2, 60.5, "ok"),
        ]
        assert metrics.counter("net.rpc_retries") == 2
        assert network.flow_snapshot()["in_flight"] == 0

    def test_unhealed_partition_exhausts_retries(self):
        sim, streams, network = build()
        network.node("b").register_handler(
            "echo", lambda node, payload, sender: payload
        )
        plan = FaultPlan([Partition((("a",), ("b",)), at=0.2)])
        FaultInjector(sim, network, plan, streams).arm()
        failures = []

        def caller():
            yield 0.5
            try:
                yield from network.rpc("a", "b", "echo", "hi",
                                       timeout=10.0, retries=1)
            except RpcTimeoutError:
                failures.append(sim.now)

        sim.spawn(caller())
        sim.run(until=60.0)
        assert failures == [20.5]  # two attempts x 10 s
