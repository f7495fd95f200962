"""Relay forwarding, gossip discovery, and circumvention under a censor."""

from repro.errors import RpcTimeoutError
from repro.faults import Censor, FaultInjector, FaultPlan
from repro.gossip import CircumventionClient, RelayNode
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator


def build(seed=1):
    sim = Simulator()
    network = Network(sim, RngStreams(seed), latency=ConstantLatency(0.01))
    for node_id in ("dev0", "dev1", "svc0", "relay0", "relay1"):
        network.create_node(node_id)
    network.node("svc0").register_handler(
        "fetch", lambda node, payload, sender: f"page:{payload}")
    return sim, network


def border_plan(**overrides):
    fields = dict(
        inside=("dev0", "dev1"),
        at=5.0,
        blocked=("svc0",),
        fingerprints=("relay.",),
    )
    fields.update(overrides)
    return FaultPlan([Censor(**fields)], name="border")


class TestRelayForwarding:
    def test_relay_forwards_request_and_response(self):
        sim, network = build()
        relay = RelayNode(network, "relay0")
        client = CircumventionClient(network, "dev0", relays=["relay0"])
        FaultInjector(sim, network, border_plan(), RngStreams(2)).arm()

        results = []

        def attempt():
            value = yield from client.request("svc0", "fetch", "home")
            results.append(value)

        sim.schedule_at(10.0, lambda: sim.spawn(attempt()))
        sim.run(until=30.0)
        assert results == ["page:home"]
        assert relay.forwarded == 1
        assert client.relayed_ok == 1 and client.direct_ok == 0

    def test_direct_path_preferred_when_not_blocked(self):
        sim, network = build()
        RelayNode(network, "relay0")
        client = CircumventionClient(network, "dev0", relays=["relay0"])

        def scenario():
            value = yield from client.request("svc0", "fetch", "home")
            return value

        assert sim.run_process(scenario()) == "page:home"
        assert client.direct_ok == 1 and client.relayed_ok == 0

    def test_all_relays_blocked_raises(self):
        sim, network = build()
        RelayNode(network, "relay0")
        client = CircumventionClient(network, "dev0", relays=["relay0"])
        plan = border_plan(blocked=("svc0", "relay0"))
        FaultInjector(sim, network, plan, RngStreams(2)).arm()

        results = []

        def attempt():
            try:
                yield from client.request("svc0", "fetch", "x", timeout=2.0)
            except RpcTimeoutError:
                results.append("unreachable")
            else:
                results.append("reached")

        sim.schedule_at(10.0, lambda: sim.spawn(attempt()))
        sim.run(until=60.0)
        assert results == ["unreachable"]
        assert client.failures == 1
        assert client.attempts[-1][1] == "blocked"

    def test_rotation_skips_reblocked_relay(self):
        sim, network = build()
        RelayNode(network, "relay0")
        RelayNode(network, "relay1")
        client = CircumventionClient(network, "dev0",
                                     relays=["relay0", "relay1"])
        plan = border_plan(blocked=("svc0", "relay0"))
        FaultInjector(sim, network, plan, RngStreams(2)).arm()

        results = []

        def attempt():
            value = yield from client.request("svc0", "fetch", "x",
                                              timeout=2.0)
            results.append(value)

        sim.schedule_at(10.0, lambda: sim.spawn(attempt()))
        sim.run(until=60.0)
        assert results == ["page:x"]
        assert client.attempts[-1][1:] == ("relay", "relay1")

    def test_announce_teaches_listeners(self):
        sim, network = build()
        relay = RelayNode(network, "relay0")
        client = CircumventionClient(network, "dev0")
        assert client.relays == []
        sent = relay.announce(["dev0", "dev1"])
        sim.run(until=1.0)
        assert sent == 2
        assert client.relays == ["relay0"]


class TestDetectionLoop:
    def test_relay_usage_eventually_triggers_reblock(self):
        # With detect_prob=1 the first forwarded request exposes the
        # relay; after reblock_delay the relay is dead and the client is
        # fully blocked — the whack-a-mole dynamic E4C/E5C/E9C measure.
        sim, network = build()
        RelayNode(network, "relay0")
        client = CircumventionClient(network, "dev0", relays=["relay0"])
        plan = border_plan(detect_prob=1.0, reblock_delay=5.0)
        injector = FaultInjector(sim, network, plan, RngStreams(2))
        injector.arm()

        outcomes = []

        def attempt():
            try:
                value = yield from client.request("svc0", "fetch", "x",
                                                  timeout=2.0)
            except RpcTimeoutError:
                value = None
            outcomes.append((sim.now, value))

        sim.schedule_at(10.0, lambda: sim.spawn(attempt()))  # via relay
        sim.schedule_at(30.0, lambda: sim.spawn(attempt()))  # relay now dead
        sim.run(until=80.0)
        assert outcomes[0][1] == "page:x"
        assert outcomes[1][1] is None
        assert injector.relays_reblocked == 1
