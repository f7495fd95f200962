"""RPC timeout-path audit (ISSUE satellite 3) and transport observability.

The tracer makes the leak assertions direct: a timed-out RPC must not
leave the response ``done`` Signal waiter or any in-flight delivery
event alive past handler completion, and a successful RPC must not keep
the queue hot until the timeout horizon.
"""

import pytest

from repro.errors import NetworkError, RemoteError, ReproError, RpcTimeoutError
from repro.net import ConstantLatency, Network
from repro.obs import Metrics, Tracer, observe
from repro.sim import RngStreams, Simulator


def _net(tracer=None, metrics=None, loss_rate=0.0):
    sim = Simulator(tracer=tracer, metrics=metrics)
    network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05),
                      loss_rate=loss_rate)
    return sim, network


class TestRpcTimeoutHygiene:
    def test_success_ends_at_response_not_timeout_horizon(self):
        """Pre-fix: the lost Timeout(30) kept run() spinning to t=30."""
        sim, network = _net()
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("echo", lambda node, p, s: p)

        def client():
            return (yield from network.rpc("client", "server", "echo", "hi"))

        process = sim.spawn(client())
        end = sim.run()
        assert process.result == "hi"
        assert end == pytest.approx(0.10, abs=1e-3)  # two 50 ms hops
        assert sim.pending_events == 0

    def test_timeout_prunes_done_waiter_and_drains_queue(self):
        """A late response must find the call settled: the client,
        already moved on to its next wait, is not double-resumed."""
        metrics = Metrics()
        sim = Simulator(metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("client")
        server = network.create_node("server")

        def slow_handler(node, payload, sender):
            yield 10.0  # responds long after the client gave up
            return "late"

        server.register_handler("slow", slow_handler)
        wakes = []

        def client():
            try:
                yield from network.rpc("client", "server", "slow", timeout=2.0)
            except RpcTimeoutError:
                pass
            yield 100.0  # pre-fix, the late response resumed us here
            wakes.append(sim.now)

        sim.spawn(client())
        end = sim.run()
        assert wakes == [102.0]
        assert sim.pending_events == 0
        assert end == 102.0
        assert metrics.counter("net.rpcs_timeout") == 1
        assert metrics.counter("net.rpcs_ok") == 0
        # The late response found the call settled and resumed nothing.
        assert sim.stale_resumes == 0

    def test_timeout_against_offline_server_drains_queue(self):
        sim, network = _net()
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda *a: 1)
        server.set_online(False, 0.0)

        def client():
            with pytest.raises(RpcTimeoutError):
                yield from network.rpc("client", "server", "m", timeout=2.0)
            return sim.now

        process = sim.spawn(client())
        end = sim.run()
        assert process.result == 2.0
        assert end == 2.0  # not a second longer
        assert sim.pending_events == 0


class TestRpcRetries:
    def test_retry_succeeds_after_server_recovers(self):
        metrics = Metrics()
        tracer = Tracer()
        sim = Simulator(tracer=tracer, metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda node, p, s: "finally")
        server.set_online(False, 0.0)
        sim.schedule(3.0, server.set_online, True, 3.0)

        def client():
            value = yield from network.rpc(
                "client", "server", "m", timeout=2.0, retries=2)
            return (value, sim.now)

        process = sim.spawn(client())
        sim.run()
        value, elapsed = process.result
        assert value == "finally"
        # attempt 0 times out at t=2, attempt 1 at t=4, attempt 2 issued
        # at t=4 completes at t=4.1.
        assert elapsed == pytest.approx(4.10, abs=1e-3)
        assert metrics.counter("net.rpc_retries") == 2
        assert metrics.counter("net.rpcs_timeout") == 2
        assert metrics.counter("net.rpcs_ok") == 1
        assert metrics.counter("net.rpcs_sent") == 3
        spans = list(tracer.iter_kind("rpc"))
        assert [s["outcome"] for s in spans] == ["timeout", "timeout", "ok"]
        assert [s["attempt"] for s in spans] == [0, 1, 2]
        assert metrics.histogram("net.rpc_latency_s").count == 1
        assert sim.pending_events == 0

    def test_exhausted_retries_raise(self):
        metrics = Metrics()
        sim = Simulator(metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda *a: 1)
        server.set_online(False, 0.0)

        def client():
            try:
                yield from network.rpc(
                    "client", "server", "m", timeout=1.0, retries=1)
            except RpcTimeoutError:
                return "gave-up"

        assert sim.run_process(client()) == "gave-up"
        assert metrics.counter("net.rpc_retries") == 1
        assert metrics.counter("net.rpcs_timeout") == 2
        assert sim.pending_events == 0

    def test_remote_errors_are_not_retried(self):
        tracer, metrics = Tracer(), Metrics()
        sim = Simulator(tracer=tracer, metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("client")
        server = network.create_node("server")

        def bad_handler(node, payload, sender):
            raise ReproError("broken")

        server.register_handler("m", bad_handler)

        def client():
            try:
                yield from network.rpc("client", "server", "m", retries=5)
            except RemoteError:
                return "remote-error"

        assert sim.run_process(client()) == "remote-error"
        assert metrics.counter("net.rpc_retries") == 0
        spans = list(tracer.iter_kind("rpc"))
        assert [s["outcome"] for s in spans] == ["remote_error"]

    def test_negative_retries_rejected(self):
        sim, network = _net()
        network.create_node("a")
        network.create_node("b")
        rpc = network.rpc("a", "b", "m", retries=-1)
        with pytest.raises(NetworkError):
            next(rpc)


class TestMessageTraceEvents:
    def test_send_and_deliver_traced(self):
        tracer = Tracer()
        metrics = Metrics()
        sim = Simulator(tracer=tracer, metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("a")
        b = network.create_node("b")
        got = []
        b.register_handler("ping", lambda node, p, s: got.append((p, s)))
        network.send("a", "b", "ping", "hello", size_bytes=64)
        sim.run()
        assert got == [("hello", "a")]
        send = next(tracer.iter_kind("msg_send"))
        assert (send["src"], send["dst"], send["method"]) == ("a", "b", "ping")
        assert send["bytes"] == 64
        deliver = next(tracer.iter_kind("msg_deliver"))
        assert deliver["t"] == pytest.approx(0.05, abs=1e-3)
        assert metrics.counter("net.messages_sent") == 1
        assert metrics.counter("net.messages_delivered") == 1

    def test_drop_reasons_traced(self):
        tracer = Tracer()
        metrics = Metrics()
        sim = Simulator(tracer=tracer, metrics=metrics)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("a")
        off = network.create_node("off")
        off.set_online(False, 0.0)
        network.create_node("far")
        network.partition([["a"], ["far"]])
        network.send("a", "off", "m")
        network.send("a", "far", "m")
        sim.run()
        drops = list(tracer.iter_kind("msg_drop"))
        assert sorted(d["reason"] for d in drops) == ["offline", "partition"]
        assert metrics.counter("net.messages_dropped") == 2
        assert metrics.counter("net.messages_dropped.offline") == 1
        assert metrics.counter("net.messages_dropped.partition") == 1

    @pytest.mark.parametrize("reason, counter", [
        ("offline", "messages_dropped.offline"),
        ("partition", "messages_dropped.partition"),
    ])
    def test_rpc_request_drop_reasons_traced(self, reason, counter):
        tracer = Tracer()
        metrics = Metrics()
        sim, network = _net(tracer, metrics)
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda node, p, s: p)
        if reason == "offline":
            server.set_online(False, 0.0)
        else:
            network.partition([["client"], ["server"]])

        def client():
            with pytest.raises(RpcTimeoutError):
                yield from network.rpc("client", "server", "m",
                                       size_bytes=300, timeout=1.0)

        sim.run_process(client())
        drops = [(d["leg"], d["reason"], d["bytes"])
                 for d in tracer.iter_kind("msg_drop")]
        assert drops == [("rpc_request", reason, 300)]
        dropped = network.flow_snapshot()["dropped"]
        assert metrics.counter("net.messages_dropped") == dropped == 1
        assert metrics.counter(f"net.{counter}") == 1

    def test_rpc_request_and_response_legs_labelled(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda node, p, s: "ok")

        def client():
            yield from network.rpc("client", "server", "m")

        sim.run_process(client())
        legs = [e.get("leg") for e in tracer.iter_kind("msg_send")]
        assert legs == ["rpc_request", "rpc_response"]


class TestInactiveHooks:
    @pytest.mark.parametrize("server_online", [True, False])
    def test_rpc_never_calls_msg_event(self, monkeypatch, server_online):
        """With no tracer and no metrics every message-leg hook is one
        ``is not None`` check: an RPC, answered or dropped, never
        reaches ``_msg_event``."""
        sim, network = _net()
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("echo", lambda node, p, s: p)
        server.set_online(server_online, 0.0)

        def fail(*args, **kwargs):
            raise AssertionError("_msg_event called with observation off")

        monkeypatch.setattr(network, "_msg_event", fail)

        def client():
            try:
                return (yield from network.rpc("client", "server", "echo",
                                               "hi", timeout=1.0))
            except RpcTimeoutError:
                return "timeout"

        expected = "hi" if server_online else "timeout"
        assert sim.run_process(client()) == expected


class TestAmbientObservation:
    def test_network_adopts_ambient_hooks_via_simulator(self):
        tracer = Tracer()
        metrics = Metrics()
        with observe(tracer=tracer, metrics=metrics):
            sim = Simulator()
            network = Network(sim, RngStreams(1))
        assert sim.tracer is tracer
        assert network._metrics is metrics
        # Outside the block, new simulators are unobserved again.
        assert Simulator().tracer is None
