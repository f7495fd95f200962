"""Tests for nodes, latency models, and the RPC transport."""

import pytest

from repro.errors import (
    NetworkError,
    NodeOfflineError,
    RemoteError,
    ReproError,
    RpcTimeoutError,
)
from repro.net import (
    ConstantLatency,
    LogNormalLatency,
    Network,
    Node,
    NodeClass,
)
from repro.obs import Metrics, observe
from repro.sim import RngStreams, Simulator


@pytest.fixture
def net():
    sim = Simulator(metrics=Metrics())
    network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
    return sim, network


class TestNodeRegistry:
    def test_create_and_lookup(self, net):
        _, network = net
        node = network.create_node("a")
        assert network.node("a") is node
        assert network.has_node("a")

    def test_duplicate_rejected(self, net):
        _, network = net
        network.create_node("a")
        with pytest.raises(NetworkError):
            network.create_node("a")

    def test_unknown_node_raises(self, net):
        _, network = net
        with pytest.raises(NetworkError):
            network.node("ghost")

    def test_unknown_node_class_rejected(self):
        with pytest.raises(NetworkError):
            Node("x", node_class="mainframe")

    def test_online_filter(self, net):
        _, network = net
        a = network.create_node("a")
        network.create_node("b")
        a.set_online(False, 0.0)
        assert [n.node_id for n in network.online_nodes()] == ["b"]


class TestNodeUptime:
    def test_uptime_accounting(self):
        node = Node("x")
        node.set_online(False, 10.0)
        node.set_online(True, 15.0)
        assert node.uptime_fraction(20.0) == pytest.approx(15.0 / 20.0)

    def test_idempotent_state_set(self):
        node = Node("x")
        node.set_online(True, 5.0)  # already online: no-op
        assert node.uptime_fraction(10.0) == 1.0


class TestLatencyModels:
    def test_constant(self):
        a, b = Node("a"), Node("b")
        model = ConstantLatency(0.1)
        assert model.delay(a, b, 0) == pytest.approx(0.1)

    def test_serialization_adds_to_delay(self):
        a = Node("a", upstream_bps=1e6)  # 1 Mbps up
        b = Node("b", downstream_bps=1e9)
        model = ConstantLatency(0.0)
        # 125000 bytes = 1 Mbit => 1 second at 1 Mbps.
        assert model.delay(a, b, 125_000) == pytest.approx(1.0)

    def test_bottleneck_is_slower_link(self):
        a = Node("a", upstream_bps=1e9)
        b = Node("b", downstream_bps=1e6)
        assert ConstantLatency(0.0).delay(a, b, 125_000) == pytest.approx(1.0)

    def test_lognormal_positive(self):
        model = LogNormalLatency(RngStreams(3), median=0.05)
        a, b = Node("a"), Node("b")
        assert all(model.propagation_delay(a, b) > 0 for _ in range(100))

    def test_negative_size_rejected(self):
        # A NaN size passes a ``< 0`` test and would return a NaN delay.
        for size in (-1, float("nan")):
            with pytest.raises(NetworkError, match="negative message size"):
                ConstantLatency(0.1).delay(Node("a"), Node("b"), size)

    @pytest.mark.parametrize("seconds", [-0.1, float("nan")])
    def test_constant_rejects_negative_or_nan_seconds(self, seconds):
        with pytest.raises(NetworkError, match="negative latency"):
            ConstantLatency(seconds)


class TestSend:
    def test_one_way_delivery(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("ping", lambda node, payload, sender: received.append((payload, sender, sim.now)))
        network.send("a", "b", "ping", {"n": 1})
        sim.run()
        assert len(received) == 1
        payload, sender, when = received[0]
        assert (payload, sender) == ({"n": 1}, "a")
        assert when == pytest.approx(0.05, abs=1e-3)

    def test_offline_destination_loses_message(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("ping", lambda *args: received.append(1))
        b.set_online(False, 0.0)
        network.send("a", "b", "ping")
        sim.run()
        assert received == []
        assert sim.metrics.counter("net.messages_dropped.offline") == 1

    def test_node_going_offline_mid_flight_loses_message(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("ping", lambda *args: received.append(1))
        network.send("a", "b", "ping")
        sim.schedule(0.01, b.set_online, False, 0.01)  # before 0.05 arrival
        sim.run()
        assert received == []

    def test_missing_handler_counted_not_fatal(self, net):
        sim, network = net
        network.create_node("a")
        network.create_node("b")
        network.send("a", "b", "nosuch")
        sim.run()  # one-way failures must not crash the simulation
        assert sim.metrics.counter("net.handler_errors") == 1

    def test_handler_errors_counted_on_both_paths(self):
        # A missing handler fails at dispatch; a generator handler fails
        # inside its spawned process, after a yield.  Both are counted
        # and neither stops the run.
        metrics = Metrics()
        with observe(metrics=metrics):
            sim = Simulator()
            network = Network(sim, RngStreams(1),
                              latency=ConstantLatency(0.05))
        network.create_node("a")
        b = network.create_node("b")

        def failing_later(node, payload, sender):
            yield 1.0
            raise ReproError("handler gave up")

        received = []
        b.register_handler("later", failing_later)
        b.register_handler("ok", lambda node, p, s: received.append(sim.now))
        network.send("a", "b", "nosuch")
        network.send("a", "b", "later")
        sim.schedule(5.0, network.send, "a", "b", "ok")
        sim.run()
        assert received == [pytest.approx(5.05)]
        assert metrics.counter("net.handler_errors") == 2

    def test_broadcast_skips_self(self, net):
        sim, network = net
        for node_id in ("a", "b", "c"):
            network.create_node(node_id)
        received = []
        for node_id in ("b", "c"):
            network.node(node_id).register_handler(
                "m", lambda node, p, s: received.append(node.node_id)
            )
        count = network.broadcast("a", ["a", "b", "c"], "m")
        sim.run()
        assert count == 2
        assert sorted(received) == ["b", "c"]

    def test_loss_rate_drops_messages(self):
        sim = Simulator()
        network = Network(sim, RngStreams(9), loss_rate=0.5)
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("m", lambda *args: received.append(1))
        for _ in range(200):
            network.send("a", "b", "m")
        sim.run()
        assert 60 < len(received) < 140  # ~100

    def test_invalid_loss_rate_rejected(self):
        with pytest.raises(NetworkError):
            Network(Simulator(), RngStreams(1), loss_rate=1.0)


class TestRpc:
    def test_request_response_roundtrip(self, net):
        sim, network = net
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("add", lambda node, p, s: p["x"] + p["y"])

        def client():
            result = yield from network.rpc("client", "server", "add", {"x": 2, "y": 3})
            return (result, sim.now)

        result, elapsed = sim.run_process(client())
        assert result == 5
        assert elapsed == pytest.approx(0.10, abs=1e-3)  # two 50 ms hops

    def test_rpc_handler_as_process(self, net):
        sim, network = net
        network.create_node("client")
        server = network.create_node("server")

        def slow_handler(node, payload, sender):
            yield 1.0  # simulated server work
            return "done"

        server.register_handler("work", slow_handler)

        def client():
            result = yield from network.rpc("client", "server", "work")
            return (result, sim.now)

        result, elapsed = sim.run_process(client())
        assert result == "done"
        assert elapsed == pytest.approx(1.10, abs=1e-3)

    def test_rpc_timeout_on_offline_server(self, net):
        sim, network = net
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda *a: 1)
        server.set_online(False, 0.0)

        def client():
            try:
                yield from network.rpc("client", "server", "m", timeout=2.0)
            except RpcTimeoutError:
                return "timeout"

        assert sim.run_process(client()) == "timeout"
        assert sim.now >= 2.0

    def test_rpc_remote_error_propagates(self, net):
        sim, network = net
        network.create_node("client")
        server = network.create_node("server")

        def failing(node, payload, sender):
            raise NodeOfflineError("backend down")

        server.register_handler("m", failing)

        def client():
            try:
                yield from network.rpc("client", "server", "m")
            except RemoteError as exc:
                return type(exc.remote_exception).__name__

        assert sim.run_process(client()) == "NodeOfflineError"

    def test_rpc_nested_rpc_in_handler(self, net):
        sim, network = net
        network.create_node("client")
        middle = network.create_node("middle")
        backend = network.create_node("backend")
        backend.register_handler("data", lambda node, p, s: "payload")

        def middle_handler(node, payload, sender):
            result = yield from network.rpc("middle", "backend", "data")
            return f"via-middle:{result}"

        middle.register_handler("fetch", middle_handler)

        def client():
            return (yield from network.rpc("client", "middle", "fetch"))

        assert sim.run_process(client()) == "via-middle:payload"

    def test_rpc_bytes_accounted(self, net):
        sim, network = net
        network.create_node("client")
        server = network.create_node("server")
        server.register_handler("m", lambda *a: "ok")

        def client():
            yield from network.rpc("client", "server", "m", size_bytes=1000, response_bytes=2000)

        sim.run_process(client())
        assert network.bytes_sent("client") == 1000
        assert network.bytes_sent("server") == 2000

    def test_bytes_sent_of_unknown_node_raises(self, net):
        _, network = net
        network.create_node("client")
        assert network.bytes_sent("client") == 0
        with pytest.raises(NetworkError, match="unknown node"):
            network.bytes_sent("typo")


class TestPartitions:
    def test_cross_partition_send_lost(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("m", lambda *args: received.append(1))
        network.partition([["a"], ["b"]])
        network.send("a", "b", "m")
        sim.run()
        assert received == []
        assert sim.metrics.counter("net.messages_dropped.partition") == 1

    def test_same_partition_delivers(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        network.create_node("c")
        received = []
        b.register_handler("m", lambda *args: received.append(1))
        network.partition([["a", "b"], ["c"]])
        network.send("a", "b", "m")
        sim.run()
        assert received == [1]

    def test_unlisted_nodes_share_implicit_group(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        network.create_node("island")
        received = []
        b.register_handler("m", lambda *args: received.append(1))
        network.partition([["island"]])
        network.send("a", "b", "m")  # both implicit: still connected
        sim.run()
        assert received == [1]

    def test_rpc_times_out_across_partition(self, net):
        sim, network = net
        network.create_node("a")
        server = network.create_node("b")
        server.register_handler("m", lambda *args: "pong")
        network.partition([["a"], ["b"]])

        def client():
            try:
                yield from network.rpc("a", "b", "m", timeout=2.0)
            except RpcTimeoutError:
                return "partitioned"

        assert sim.run_process(client()) == "partitioned"

    def test_heal_restores_connectivity(self, net):
        sim, network = net
        network.create_node("a")
        server = network.create_node("b")
        server.register_handler("m", lambda *args: "pong")
        network.partition([["a"], ["b"]])
        network.heal()

        def client():
            return (yield from network.rpc("a", "b", "m"))

        assert sim.run_process(client()) == "pong"
        assert not network.partitioned

    def test_duplicate_group_membership_rejected(self, net):
        sim, network = net
        network.create_node("a")
        with pytest.raises(NetworkError):
            network.partition([["a"], ["a"]])

    def test_mid_flight_partition_loses_message(self, net):
        sim, network = net
        network.create_node("a")
        b = network.create_node("b")
        received = []
        b.register_handler("m", lambda *args: received.append(1))
        network.send("a", "b", "m")  # in flight for 50 ms
        sim.schedule(0.01, network.partition, [["a"], ["b"]])
        sim.run()
        assert received == []


class TestNodeMechanics:
    def test_handler_replacement(self):
        node = Node("n")
        node.register_handler("m", lambda n, p, s: "first")
        node.register_handler("m", lambda n, p, s: "second")
        assert node.dispatch("m", None, "peer") == "second"

    def test_has_handler(self):
        node = Node("n")
        assert not node.has_handler("m")
        node.register_handler("m", lambda n, p, s: None)
        assert node.has_handler("m")

    def test_dispatch_unknown_method(self):
        node = Node("n")
        with pytest.raises(NetworkError):
            node.dispatch("ghost", None, "peer")

    def test_sessions_counted(self):
        node = Node("n")
        node.set_online(False, 1.0)
        node.set_online(True, 2.0)
        node.set_online(False, 3.0)
        node.set_online(True, 4.0)
        assert node.sessions == 2


class TestRpcLossPaths:
    def test_response_can_be_lost(self):
        # With 50% loss, some RPCs lose the *response* (request delivered,
        # handler ran, answer dropped) — the caller still times out.
        sim = Simulator()
        network = Network(
            sim, RngStreams(51), latency=ConstantLatency(0.01), loss_rate=0.5
        )
        network.create_node("client")
        server = network.create_node("server")
        calls = {"handled": 0}

        def handler(node, payload, sender):
            calls["handled"] += 1
            return "pong"

        server.register_handler("m", handler)
        outcomes = {"ok": 0, "timeout": 0}

        def client():
            for _ in range(60):
                try:
                    yield from network.rpc("client", "server", "m", timeout=1.0)
                    outcomes["ok"] += 1
                except RpcTimeoutError:
                    outcomes["timeout"] += 1

        sim.run_process(client())
        assert outcomes["timeout"] > 0
        assert outcomes["ok"] > 0
        # Some handled requests produced lost responses.
        assert calls["handled"] > outcomes["ok"]

    def test_server_dying_before_response_times_out(self):
        sim = Simulator()
        network = Network(sim, RngStreams(52), latency=ConstantLatency(0.01))
        network.create_node("client")
        server = network.create_node("server")

        def slow(node, payload, sender):
            yield 5.0  # dies mid-work
            return "never sent"

        server.register_handler("m", slow)
        sim.schedule(1.0, server.set_online, False, 1.0)

        def client():
            try:
                yield from network.rpc("client", "server", "m", timeout=10.0)
            except RpcTimeoutError:
                return "lost"

        assert sim.run_process(client()) == "lost"
