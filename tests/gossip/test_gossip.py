"""Tests for anti-entropy replication and flooding pub/sub."""

import pytest

import repro.crypto.hashing as hashing
from repro.errors import GroupCommError
from repro.gossip import (
    AntiEntropyNode,
    PubSubMessage,
    PubSubNode,
    ReplicaStore,
    Versioned,
    build_pubsub_overlay,
)
from repro.net import ConstantLatency, Network
from repro.net.topology import random_graph, ring_lattice, star
from repro.sim import RngStreams, Simulator


def make_network(seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    return sim, streams, network


class TestReplicaStore:
    def test_write_then_get(self):
        store = ReplicaStore()
        store.write("k", "v", "me")
        assert store.get("k") == "v"
        assert "k" in store

    def test_merge_newer_wins(self):
        store = ReplicaStore()
        store.write("k", "old", "me")
        assert store.merge("k", Versioned("new", 99, "other"))
        assert store.get("k") == "new"

    def test_merge_older_ignored(self):
        store = ReplicaStore()
        store.write("k", "current", "me")
        store.write("k", "newer", "me")
        assert not store.merge("k", Versioned("stale", 1, "aaa"))
        assert store.get("k") == "newer"

    def test_tie_broken_by_writer(self):
        a, b = ReplicaStore(), ReplicaStore()
        a.write("k", "from-a", "a")
        b.write("k", "from-b", "b")
        # Same counter (1); higher writer id wins deterministically.
        item_a, item_b = a.item("k"), b.item("k")
        a.merge("k", item_b)
        b.merge("k", item_a)
        assert a.get("k") == b.get("k")

    def test_local_write_after_merge_wins(self):
        store = ReplicaStore()
        store.merge("k", Versioned("remote", 50, "other"))
        store.write("k", "local", "me")
        assert store.item("k").counter > 50


@pytest.fixture
def hash_calls(monkeypatch):
    """Record every ``hash_obj`` call; ``Versioned.stamp`` looks it up in
    ``repro.crypto.hashing`` on each computation."""
    calls = []
    real = hashing.hash_obj

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(hashing, "hash_obj", counting)
    return calls


class TestStamp:
    def test_stamp_hashed_once_per_instance(self, hash_calls):
        old = Versioned({"text": "old"}, 1, "a")
        new = Versioned({"text": "new"}, 2, "b")
        store = ReplicaStore()
        for _ in range(3):
            store.merge("k", old)
            store.merge("k", new)
            assert store.digest() == {"k": new.stamp}
            assert old.stamp < new.stamp
        assert hash_calls == [{"text": "new"}, {"text": "old"}]
        assert old.stamp == (1, "a", hashing.hash_obj({"text": "old"}))

    def test_from_wire_ignores_forged_stamp(self):
        wire = Versioned({"text": "hi"}, 4, "w").to_wire()
        assert wire == {"value": {"text": "hi"}, "counter": 4, "writer": "w"}
        forged = dict(wire, stamp=[99, "zzz", "forged"])
        item = Versioned.from_wire(forged)
        assert item == Versioned({"text": "hi"}, 4, "w")
        assert item.stamp == (4, "w", hashing.hash_obj({"text": "hi"}))
        store = ReplicaStore()
        store.write("k", "local", "m")
        store.write("k", "local-2", "m")
        assert not store.merge("k", Versioned.from_wire(dict(forged, counter=1)))
        assert store.get("k") == "local-2"


class TestAntiEntropy:
    def build_cluster(self, count=5, seed=2, interval=5.0):
        sim, streams, network = make_network(seed)
        names = [f"s{i}" for i in range(count)]
        for name in names:
            network.create_node(name)
        replicas = {
            name: AntiEntropyNode(
                network, network.node(name), names, streams, interval=interval
            )
            for name in names
        }
        return sim, network, replicas

    def test_write_propagates_everywhere(self):
        sim, network, replicas = self.build_cluster()
        for r in replicas.values():
            r.start()
        replicas["s0"].write("msg:1", {"text": "hello"})
        sim.run(until=300.0)
        for r in replicas.values():
            r.stop()
        assert all(r.store.get("msg:1") == {"text": "hello"} for r in replicas.values())

    def test_concurrent_writes_converge(self):
        sim, network, replicas = self.build_cluster()
        for r in replicas.values():
            r.start()
        replicas["s0"].write("k", "a")
        replicas["s3"].write("k", "b")
        sim.run(until=500.0)
        for r in replicas.values():
            r.stop()
        values = {r.store.get("k") for r in replicas.values()}
        assert len(values) == 1  # converged to a single winner

    def test_offline_node_catches_up_after_return(self):
        sim, network, replicas = self.build_cluster(interval=5.0)
        for r in replicas.values():
            r.start()
        network.node("s4").set_online(False, 0.0)
        replicas["s0"].write("k", "v")
        sim.run(until=100.0)
        assert replicas["s4"].store.get("k") is None
        network.node("s4").set_online(True, sim.now)
        sim.run(until=300.0)
        for r in replicas.values():
            r.stop()
        assert replicas["s4"].store.get("k") == "v"

    def test_direct_reconcile(self):
        sim, network, replicas = self.build_cluster()
        replicas["s0"].write("k", "v")

        def scenario():
            ok = yield from replicas["s1"].reconcile_with("s0")
            return ok

        assert sim.run_process(scenario()) is True
        assert replicas["s1"].store.get("k") == "v"

    def test_in_sync_reconcile_hashes_nothing(self, hash_calls):
        sim, network, replicas = self.build_cluster()
        replicas["s0"].write("k1", {"text": "a"})
        replicas["s1"].write("k2", {"text": "b"})

        def reconcile():
            return (yield from replicas["s1"].reconcile_with("s0"))

        assert sim.run_process(reconcile()) is True
        assert replicas["s0"].store.digest() == replicas["s1"].store.digest()
        hash_calls.clear()
        assert sim.run_process(reconcile()) is True
        assert hash_calls == []

    def test_reconcile_with_offline_peer_fails_gracefully(self):
        sim, network, replicas = self.build_cluster()
        network.node("s0").set_online(False, 0.0)

        def scenario():
            return (yield from replicas["s1"].reconcile_with("s0"))

        assert sim.run_process(scenario()) is False

    def test_on_change_callback_fires(self):
        sim, network, replicas = self.build_cluster()
        changes = []
        replicas["s1"].on_change = lambda key, item: changes.append((key, item.value))
        replicas["s0"].write("k", "v")

        def scenario():
            yield from replicas["s1"].reconcile_with("s0")

        sim.run_process(scenario())
        assert changes == [("k", "v")]


class TestPubSub:
    def test_flood_reaches_all_subscribers(self):
        sim, streams, network = make_network(3)
        graph = random_graph(20, 0.3, seed=1)
        overlay = build_pubsub_overlay(network, graph)
        for node in overlay.values():
            node.subscribe("news")
        overlay["n0"].publish("news", "hello")
        sim.run()
        assert all(node.received_payloads("news") == ["hello"] for node in overlay.values())

    def test_duplicate_suppression(self):
        sim, streams, network = make_network(4)
        graph = random_graph(15, 0.5, seed=2)  # dense: many duplicate paths
        overlay = build_pubsub_overlay(network, graph)
        for node in overlay.values():
            node.subscribe("t")
        overlay["n0"].publish("t", "once")
        sim.run()
        for node in overlay.values():
            assert len(node.received_payloads("t")) == 1

    def test_unsubscribed_topic_not_delivered_but_forwarded(self):
        sim, streams, network = make_network(5)
        graph = ring_lattice(5, k=2)
        overlay = build_pubsub_overlay(network, graph)
        overlay["n0"].subscribe("t")
        overlay["n3"].subscribe("t")
        overlay["n0"].publish("t", "x")
        sim.run()
        # n3 is not adjacent to n0 on the ring; delivery proves forwarding.
        assert overlay["n3"].received_payloads("t") == ["x"]
        assert overlay["n1"].received_payloads("t") == []

    def test_partition_blocks_delivery(self):
        sim, streams, network = make_network(6)
        graph = star("hub", [f"u{i}" for i in range(4)])
        overlay = build_pubsub_overlay(network, graph)
        for node in overlay.values():
            node.subscribe("t")
        network.node("hub").set_online(False, 0.0)
        overlay["u0"].publish("t", "m")
        sim.run()
        # Hub down: no other leaf receives the message.
        for leaf in ("u1", "u2", "u3"):
            assert overlay[leaf].received_payloads("t") == []

    def test_offline_publisher_rejected(self):
        sim, streams, network = make_network(7)
        graph = ring_lattice(3, k=2)
        overlay = build_pubsub_overlay(network, graph)
        network.node("n0").set_online(False, 0.0)
        with pytest.raises(GroupCommError):
            overlay["n0"].publish("t", "m")

    def test_callback_subscription(self):
        sim, streams, network = make_network(8)
        graph = ring_lattice(4, k=2)
        overlay = build_pubsub_overlay(network, graph)
        seen = []
        overlay["n2"].subscribe("t", lambda msg: seen.append(msg.payload))
        overlay["n0"].publish("t", 123)
        sim.run()
        assert seen == [123]

    def test_forward_shares_one_payload_across_neighbours(self):
        sim, streams, network = make_network(9)
        graph = star("hub", [f"u{i}" for i in range(5)])
        overlay = build_pubsub_overlay(network, graph)
        received = []
        for leaf in overlay["hub"].neighbors:
            network.node(leaf).register_handler(
                "pubsub.msg",
                lambda node, payload, sender: received.append(payload))
        msg = PubSubMessage("m1", "t", "x", "hub")
        overlay["hub"]._forward(msg, exclude="u0", size_bytes=512)
        assert sim.pending_events == 4  # one in-flight leg per neighbour
        sim.run()
        assert len(received) == 4
        assert all(payload is received[0] for payload in received)
        assert received[0] == {"msg": msg, "size": 512}


class TestPubSubUnderFailure:
    def test_offline_node_breaks_ring_flood(self):
        sim, streams, network = make_network(53)
        graph = ring_lattice(6, k=2)  # pure ring: n3 is a cut vertex set
        overlay = build_pubsub_overlay(network, graph)
        for node in overlay.values():
            node.subscribe("t")
        # Cut the ring in two places: n1 and n4 offline.
        network.node("n1").set_online(False, 0.0)
        network.node("n4").set_online(False, 0.0)
        overlay["n0"].publish("t", "m")
        sim.run()
        # n0's remaining neighbour n5 gets it; n2/n3 are cut off.
        assert overlay["n5"].received_payloads("t") == ["m"]
        assert overlay["n2"].received_payloads("t") == []
        assert overlay["n3"].received_payloads("t") == []

    def test_returning_node_missed_messages_forever(self):
        # Flooding has no repair: §3.2's connectedness threat under churn.
        sim, streams, network = make_network(54)
        graph = ring_lattice(4, k=2)
        overlay = build_pubsub_overlay(network, graph)
        for node in overlay.values():
            node.subscribe("t")
        network.node("n2").set_online(False, 0.0)
        overlay["n0"].publish("t", "missed")
        sim.run()
        network.node("n2").set_online(True, sim.now)
        sim.run(until=sim.now + 100.0)
        assert overlay["n2"].received_payloads("t") == []
