"""Censorship campaigns: Censor plan events, border semantics, relay
detection and re-blocking, and the censor cost model."""

import pytest

from repro.errors import FaultError, RpcTimeoutError
from repro.faults import Censor, FaultInjector, FaultPlan
from repro.net import ConstantLatency, Network
from repro.obs import Metrics, Tracer, observe
from repro.sim import RngStreams, Simulator


def build(seed=1, inside=("in0", "in1"), outside=("svc0", "relay0", "relay1")):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.05))
    for node_id in (*inside, *outside):
        network.create_node(node_id)
    return sim, streams, network


def campaign(**overrides):
    fields = dict(
        inside=("in0", "in1"),
        at=10.0,
        heal_at=200.0,
        blocked=("svc0",),
        direction="outbound",
        degrade_prob=0.0,
        fingerprints=("relay.",),
        detect_prob=0.0,
        reblock_delay=0.0,
    )
    fields.update(overrides)
    return Censor(**fields)


class TestCensorEvent:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(FaultError):
            Censor(inside=(), at=0.0)
        with pytest.raises(FaultError):
            campaign(blocked=("in0",))  # blocked must be outside
        with pytest.raises(FaultError):
            campaign(heal_at=5.0)  # heal before start
        with pytest.raises(FaultError):
            campaign(direction="inbound")
        with pytest.raises(FaultError):
            campaign(detect_prob=1.5)
        with pytest.raises(FaultError):
            campaign(degrade_prob=-0.1)
        with pytest.raises(FaultError):
            campaign(fingerprints=("",))
        with pytest.raises(FaultError):
            campaign(reblock_delay=-1.0)

    def test_round_trips_through_json(self):
        plan = FaultPlan([campaign(degrade_prob=0.25, detect_prob=0.5,
                                   reblock_delay=3.0)],
                         name="border")
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.fingerprint() == plan.fingerprint()
        event = restored.events[0]
        assert isinstance(event, Censor)
        assert event.inside == ("in0", "in1")
        assert event.fingerprints == ("relay.",)
        assert event.detect_prob == 0.5

    def test_node_ids_cover_inside_and_blocked(self):
        plan = FaultPlan([campaign()])
        assert plan.node_ids() == ["in0", "in1", "svc0"]

    def test_arm_validates_node_ids(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(blocked=("ghost",))])
        with pytest.raises(FaultError):
            FaultInjector(sim, network, plan, streams).arm()


class TestBorderSemantics:
    def test_outbound_block_is_asymmetric(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign()])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=5.0)
        assert network.can_reach("in0", "svc0")  # campaign not yet open
        sim.run(until=20.0)
        assert injector.censor_active
        # inside -> blocked outside endpoint: hard block
        assert not network.can_reach("in0", "svc0")
        # the reverse direction is merely degraded, not blocked
        assert network.can_reach("svc0", "in0")
        # non-blocklisted cross-border endpoints still reachable
        assert network.can_reach("in0", "relay0")
        # purely-inside and purely-outside traffic untouched
        assert network.can_reach("in0", "in1")
        assert network.can_reach("svc0", "relay0")
        sim.run(until=250.0)
        assert not injector.censor_active
        assert network.can_reach("in0", "svc0")
        assert injector.last_heal_at == 200.0

    def test_both_direction_blocks_both_ways(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(direction="both")])
        FaultInjector(sim, network, plan, streams).arm()
        sim.run(until=20.0)
        assert not network.can_reach("in0", "svc0")
        assert not network.can_reach("svc0", "in0")

    def test_blocked_message_dropped_with_censor_reason(self):
        metrics = Metrics()
        with observe(metrics=metrics):
            sim, streams, network = build()
        plan = FaultPlan([campaign()])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        delivered = []
        network.node("svc0").register_handler(
            "m", lambda node, payload, sender: delivered.append(payload))
        sim.schedule_at(20.0, network.send, "in0", "svc0", "m", 1)
        sim.run(until=30.0)
        assert delivered == []
        assert metrics.counter("net.messages_dropped.censor") == 1
        assert injector.censor_cost()["blocked_flows"] == 1

    def test_blocked_rpc_request_traced_at_its_size(self):
        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            sim, streams, network = build()
        FaultInjector(sim, network, FaultPlan([campaign()]), streams).arm()
        network.node("svc0").register_handler(
            "m", lambda node, payload, sender: payload)

        def client():
            yield 20.0
            with pytest.raises(RpcTimeoutError):
                yield from network.rpc("in0", "svc0", "m", size_bytes=300,
                                       timeout=1.0)

        sim.spawn(client())
        sim.run(until=30.0)
        drops = [(d["leg"], d["reason"], d["bytes"])
                 for d in tracer.iter_kind("msg_drop")]
        assert drops == [("rpc_request", "censor", 300)]
        assert metrics.counter("net.messages_dropped.censor") == 1

    def test_degrade_drops_probabilistically_inbound(self):
        metrics = Metrics()
        with observe(metrics=metrics):
            sim, streams, network = build()
        plan = FaultPlan([campaign(degrade_prob=0.5, heal_at=None)])
        FaultInjector(sim, network, plan, streams).arm()
        delivered = []
        network.node("in0").register_handler(
            "m", lambda node, payload, sender: delivered.append(payload))
        for i in range(200):
            sim.schedule_at(20.0 + i, network.send, "svc0", "in0", "m", i)
        sim.run(until=300.0)
        # roughly half survive; all-blocked or all-pass would be a bug
        assert 40 < len(delivered) < 160
        censored = metrics.counter("net.messages_dropped.censor")
        assert censored == 200 - len(delivered)

    def test_mid_flight_campaign_kills_in_flight_message(self):
        # The censor verdict is consulted at delivery time, so a message
        # launched just before the border goes up still dies at it.
        metrics = Metrics()
        with observe(metrics=metrics):
            sim, streams, network = build()
        plan = FaultPlan([campaign(at=10.0)])
        FaultInjector(sim, network, plan, streams).arm()
        delivered = []
        network.node("svc0").register_handler(
            "m", lambda node, payload, sender: delivered.append(payload))
        sim.schedule_at(9.99, network.send, "in0", "svc0", "m", 1)
        sim.run(until=20.0)
        assert delivered == []
        assert metrics.counter("net.messages_dropped.censor") == 1


class TestDetectionAndReblock:
    def test_relay_detected_and_reblocked_after_delay(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(detect_prob=1.0, reblock_delay=5.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        network.node("relay0").register_handler(
            "relay.fwd", lambda node, payload, sender: None)
        sim.schedule_at(20.0, network.send, "in0", "relay0", "relay.fwd", 1)
        sim.run(until=22.0)
        # detected immediately, but the block order is still in flight
        assert network.can_reach("in0", "relay0")
        sim.run(until=30.0)
        assert not network.can_reach("in0", "relay0")
        assert injector.relays_reblocked == 1
        assert injector.censor_cost()["relays_reblocked"] == 1

    def test_unfingerprinted_traffic_is_never_detected(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(detect_prob=1.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        network.node("relay0").register_handler(
            "fetch", lambda node, payload, sender: None)
        for i in range(10):
            sim.schedule_at(20.0 + i, network.send, "in0", "relay0",
                            "fetch", i)
        sim.run(until=50.0)
        assert network.can_reach("in0", "relay0")
        assert injector.relays_reblocked == 0

    def test_each_relay_detected_at_most_once(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(detect_prob=1.0, reblock_delay=1.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        network.node("relay0").register_handler(
            "relay.fwd", lambda node, payload, sender: None)
        for i in range(5):
            sim.schedule_at(20.0 + 0.01 * i, network.send, "in0", "relay0",
                            "relay.fwd", i)
        sim.run(until=40.0)
        assert injector.relays_reblocked == 1

    def test_reblock_after_heal_is_a_noop(self):
        sim, streams, network = build()
        plan = FaultPlan([campaign(at=10.0, heal_at=25.0, detect_prob=1.0,
                                   reblock_delay=10.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        network.node("relay0").register_handler(
            "relay.fwd", lambda node, payload, sender: None)
        sim.schedule_at(20.0, network.send, "in0", "relay0", "relay.fwd", 1)
        sim.run(until=40.0)  # reblock lands at ~30, after the 25.0 heal
        assert injector.relays_reblocked == 0
        assert network.can_reach("in0", "relay0")

    def test_detection_emits_traces_and_metrics(self):
        from repro.obs import Metrics, Tracer

        tracer, metrics = Tracer(), Metrics()
        sim = Simulator(tracer=tracer, metrics=metrics)
        streams = RngStreams(1)
        network = Network(sim, streams, latency=ConstantLatency(0.05))
        for node_id in ("in0", "in1", "svc0", "relay0", "relay1"):
            network.create_node(node_id)
        plan = FaultPlan([campaign(detect_prob=1.0, reblock_delay=2.0)])
        FaultInjector(sim, network, plan, streams).arm()
        network.node("relay0").register_handler(
            "relay.fwd", lambda node, payload, sender: None)
        sim.schedule_at(20.0, network.send, "in0", "relay0",
                        "relay.fwd", 1)
        sim.run(until=40.0)
        kinds = [e["kind"] for e in tracer.events]
        assert "censor_detected" in kinds
        assert "censor_reblocked" in kinds
        assert metrics.counter("faults.censor.detected") == 1
        assert metrics.counter("faults.censor.reblocked") == 1


class TestCampaignComposition:
    def test_overlapping_campaigns_heal_only_the_active_one(self):
        # Same guarded-heal discipline as partitions: A(10-100) replaced
        # by B(50-150); A's heal must not lift B's border.
        sim, streams, network = build()
        plan = FaultPlan([
            campaign(at=10.0, heal_at=100.0, blocked=("svc0",)),
            campaign(at=50.0, heal_at=150.0, blocked=("relay0",)),
        ])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=60.0)
        assert not network.can_reach("in0", "relay0")  # B active
        assert network.can_reach("in0", "svc0")  # A's blocklist replaced
        sim.run(until=120.0)  # past A's heal
        assert injector.censor_active
        assert not network.can_reach("in0", "relay0")
        assert injector.last_heal_at is None
        assert injector.healed == 0
        sim.run(until=160.0)
        assert not injector.censor_active
        assert injector.last_heal_at == 150.0
        assert injector.healed == 1

    def test_replaced_campaign_cost_is_not_lost(self):
        sim, streams, network = build()
        plan = FaultPlan([
            campaign(at=10.0, heal_at=100.0, blocked=("svc0",)),
            campaign(at=50.0, heal_at=150.0, blocked=("relay0",)),
        ])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.schedule_at(20.0, network.send, "in0", "svc0", "m", 1)  # A kills
        sim.schedule_at(60.0, network.send, "in0", "relay0", "m", 2)  # B kills
        sim.run(until=200.0)
        cost = injector.censor_cost()
        assert cost["blocked_flows"] == 2

    def test_censor_and_partition_occupy_separate_slots(self):
        from repro.faults import Partition

        sim, streams, network = build()
        plan = FaultPlan([
            Partition((("in0",), ("in1",)), at=10.0, heal_at=30.0),
            campaign(at=20.0, heal_at=40.0),
        ])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        sim.run(until=25.0)
        assert injector.partition_active and injector.censor_active
        sim.run(until=35.0)  # partition healed, campaign still up
        assert not injector.partition_active
        assert injector.censor_active
        assert not network.can_reach("in0", "svc0")
        sim.run(until=50.0)
        assert not injector.censor_active
        assert injector.injected == 2 and injector.healed == 2

    def test_faults_quiet_sees_open_campaign(self):
        from repro.faults import InvariantContext

        sim, streams, network = build()
        plan = FaultPlan([campaign(at=10.0, heal_at=30.0)])
        injector = FaultInjector(sim, network, plan, streams)
        injector.arm()
        ctx = InvariantContext(sim=sim, network=network, injector=injector)
        sim.run(until=20.0)
        assert not ctx.faults_quiet
        sim.run(until=40.0)
        assert ctx.faults_quiet


class TestRngIsolation:
    def test_campaign_does_not_perturb_base_loss_stream(self):
        """Detection/degrade draws must not shift net.loss decisions."""

        def survivors(plan):
            sim = Simulator()
            streams = RngStreams(9)
            network = Network(sim, streams, latency=ConstantLatency(0.05),
                              loss_rate=0.3)
            for node_id in ("in0", "in1", "svc0", "relay0", "relay1"):
                network.create_node(node_id)
            FaultInjector(sim, network, plan, streams).arm()
            received = []
            network.node("in1").register_handler(
                "m", lambda node, payload, sender: received.append(payload))
            for i in range(40):
                sim.schedule_at(float(i), network.send, "in0", "in1", "m", i)
            sim.run(until=100.0)
            return received

        quiet = survivors(FaultPlan([]))
        # inside->inside traffic never crosses the border, so the only
        # way the campaign could change it is by stealing loss draws.
        noisy = survivors(FaultPlan([
            campaign(at=0.5, heal_at=90.0, degrade_prob=0.5,
                     detect_prob=0.5),
        ]))
        assert noisy == quiet
