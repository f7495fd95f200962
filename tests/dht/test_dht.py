"""Tests for node ids, routing tables, and the Kademlia protocol."""

import pytest

from repro.dht import (
    Contact,
    DhtConfig,
    KademliaNode,
    RoutingTable,
    bucket_index,
    build_overlay,
    key_for,
    node_id_for,
    xor_distance,
)
from repro.errors import DHTError, LookupFailedError
from repro.net import ConstantLatency, Network
from repro.obs import Metrics
from repro.sim import RngStreams, Simulator


def make_network(seed=1, latency=0.01, loss_rate=0.0, metrics=None):
    sim = Simulator(metrics=metrics)
    network = Network(
        sim, RngStreams(seed), latency=ConstantLatency(latency), loss_rate=loss_rate
    )
    return sim, network


SMALL = DhtConfig(k=8, alpha=3, rpc_timeout=1.0)


class TestNodeId:
    def test_ids_stable_and_distinct(self):
        assert node_id_for("a") == node_id_for("a")
        assert node_id_for("a") != node_id_for("b")
        assert key_for("a") != node_id_for("a")  # separate namespaces

    def test_id_range(self):
        assert 0 <= node_id_for("x") < 2**160

    def test_xor_metric_properties(self):
        a, b, c = node_id_for("a"), node_id_for("b"), node_id_for("c")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)
        # Unidirectional triangle-ish property of XOR:
        assert xor_distance(a, c) ^ xor_distance(c, b) == xor_distance(a, b)

    def test_bucket_index_bounds(self):
        a, b = node_id_for("a"), node_id_for("b")
        assert 0 <= bucket_index(a, b) < 160

    def test_bucket_index_self_rejected(self):
        a = node_id_for("a")
        with pytest.raises(DHTError):
            bucket_index(a, a)

    def test_invalid_id_rejected(self):
        with pytest.raises(DHTError):
            xor_distance(-1, 0)


class TestRoutingTable:
    def test_observe_and_closest(self):
        table = RoutingTable(node_id_for("me"), k=4)
        contacts = [Contact(f"n{i}", node_id_for(f"n{i}")) for i in range(10)]
        for c in contacts:
            table.observe(c)
        target = node_id_for("target")
        closest = table.closest(target, 3)
        assert len(closest) == 3
        distances = [xor_distance(c.dht_id, target) for c in closest]
        assert distances == sorted(distances)

    def test_self_never_tracked(self):
        me = node_id_for("me")
        table = RoutingTable(me, k=4)
        table.observe(Contact("me", me))
        assert len(table) == 0

    def test_full_bucket_returns_eviction_candidate(self):
        me = node_id_for("me")
        table = RoutingTable(me, k=1)
        # Find two contacts in the same bucket.
        same_bucket = []
        i = 0
        while len(same_bucket) < 2:
            candidate = Contact(f"c{i}", node_id_for(f"c{i}"))
            i += 1
            if not same_bucket:
                same_bucket.append(candidate)
            elif bucket_index(me, candidate.dht_id) == bucket_index(
                me, same_bucket[0].dht_id
            ):
                same_bucket.append(candidate)
        assert table.observe(same_bucket[0]) is None
        candidate = table.observe(same_bucket[1])
        assert candidate == same_bucket[0]  # oldest is the evictee candidate
        assert not table.knows(same_bucket[1].name)

    def test_evict(self):
        table = RoutingTable(node_id_for("me"), k=4)
        c = Contact("x", node_id_for("x"))
        table.observe(c)
        assert table.evict("x")
        assert not table.knows("x")
        assert not table.evict("x")

    def test_reobserve_refreshes(self):
        table = RoutingTable(node_id_for("me"), k=4)
        c = Contact("x", node_id_for("x"))
        table.observe(c)
        table.observe(c)
        assert len(table) == 1

    def test_bad_k_rejected(self):
        with pytest.raises(DHTError):
            RoutingTable(node_id_for("me"), k=0)


class TestKademliaProtocol:
    def test_overlay_join_populates_tables(self):
        sim, network = make_network(seed=2)
        overlay = build_overlay(network, [f"n{i}" for i in range(20)], SMALL)
        assert all(len(node.table) > 0 for node in overlay.values())

    def test_put_get_roundtrip(self):
        sim, network = make_network(seed=3)
        overlay = build_overlay(network, [f"n{i}" for i in range(20)], SMALL)

        def scenario():
            acked = yield from overlay["n0"].put("greeting", "hello world")
            value = yield from overlay["n7"].get("greeting")
            return acked, value

        acked, value = sim.run_process(scenario())
        assert acked > 0
        assert value == "hello world"

    def test_replicas_land_on_closest_nodes(self):
        sim, network = make_network(seed=4)
        names = [f"n{i}" for i in range(30)]
        overlay = build_overlay(network, names, SMALL)

        def scenario():
            return (yield from overlay["n0"].put("some-key", 42))

        acked = sim.run_process(scenario())
        holders = [n for n in names if key_for("some-key") in overlay[n].stored_keys()]
        assert len(holders) == acked
        # Holders should be among the globally closest nodes to the key.
        by_distance = sorted(names, key=lambda n: xor_distance(node_id_for(n), key_for("some-key")))
        assert set(holders) <= set(by_distance[: SMALL.k + 2])

    def test_get_missing_key_raises(self):
        sim, network = make_network(seed=5)
        overlay = build_overlay(network, [f"n{i}" for i in range(10)], SMALL)

        def scenario():
            try:
                yield from overlay["n0"].get("never-stored")
            except LookupFailedError:
                return "missing"

        assert sim.run_process(scenario()) == "missing"

    def test_value_expires_after_ttl(self):
        sim, network = make_network(seed=6)
        overlay = build_overlay(network, [f"n{i}" for i in range(10)], SMALL)

        def scenario():
            yield from overlay["n0"].put("k", "v", ttl=10.0)
            yield 100.0  # outlive the TTL
            try:
                yield from overlay["n5"].get("k")
            except LookupFailedError:
                return "expired"

        assert sim.run_process(scenario()) == "expired"

    def test_lookup_survives_offline_nodes(self):
        sim, network = make_network(seed=7)
        names = [f"n{i}" for i in range(30)]
        overlay = build_overlay(network, names, SMALL)

        def scenario():
            yield from overlay["n0"].put("resilient", "data")
            # Kill a third of the network (not the publisher/reader).
            for name in names[10:20]:
                network.node(name).set_online(False, sim.now)
            value = yield from overlay["n1"].get("resilient")
            return value

        assert sim.run_process(scenario()) == "data"

    def test_dead_nodes_evicted_from_table(self):
        sim, network = make_network(seed=8)
        names = [f"n{i}" for i in range(15)]
        overlay = build_overlay(network, names, SMALL)
        network.node("n5").set_online(False, sim.now)

        def scenario():
            # Lookups touching n5 should evict it.
            for key in ("a", "b", "c", "d"):
                yield from overlay["n0"].lookup(key_for(key))
            return True

        sim.run_process(scenario())
        assert not overlay["n0"].table.knows("n5")

    def test_republish_keeps_value_alive(self):
        sim, network = make_network(seed=9)
        config = DhtConfig(k=4, alpha=2, value_ttl=50.0, republish_interval=20.0)
        overlay = build_overlay(network, [f"n{i}" for i in range(10)], config)
        overlay["n0"].start_republishing()

        def scenario():
            yield from overlay["n0"].put("persistent", "v")
            yield 200.0  # four TTLs
            value = yield from overlay["n3"].get("persistent")
            # Stop the maintenance loop so the event queue can drain.
            overlay["n0"].stop_republishing()
            return value

        assert sim.run_process(scenario()) == "v"

    def test_bootstrap_from_self_rejected(self):
        sim, network = make_network(seed=10)
        node = network.create_node("solo")
        kad = KademliaNode(network, node, SMALL)
        with pytest.raises(DHTError):
            sim.run_process(kad.bootstrap("solo"))

    def test_build_overlay_requires_names(self):
        sim, network = make_network()
        with pytest.raises(DHTError):
            build_overlay(network, [], SMALL)

    def test_lookup_converges_in_logarithmic_hops(self):
        metrics = Metrics()
        sim, network = make_network(seed=11, metrics=metrics)
        names = [f"n{i}" for i in range(64)]
        overlay = build_overlay(network, names, DhtConfig(k=8, alpha=3))
        rpcs_before = metrics.counter("net.rpcs_sent")

        def scenario():
            return (yield from overlay["n0"].lookup(key_for("needle")))

        sim.run_process(scenario())
        rpcs_used = metrics.counter("net.rpcs_sent") - rpcs_before
        # log2(64)=6 rounds of alpha=3 with some slack; far less than N.
        assert rpcs_used < 40

    def test_lookup_cost_grows_sublinearly_with_overlay_size(self):
        rpcs_per_lookup = {}
        for n in (16, 64, 256):
            metrics = Metrics()
            sim, network = make_network(seed=2, latency=0.005,
                                        metrics=metrics)
            overlay = build_overlay(
                network, [f"n{i}" for i in range(n)], DhtConfig(k=8, alpha=3)
            )
            before = metrics.counter("net.rpcs_sent")

            def lookups():
                for i in range(20):
                    yield from overlay["n0"].lookup(key_for(f"target-{i}"))

            sim.run_process(lookups())
            rpcs_per_lookup[n] = round(
                (metrics.counter("net.rpcs_sent") - before) / 20, 1
            )
        # 16x the nodes must cost far less than 16x the RPCs.
        assert rpcs_per_lookup[256] < 4 * rpcs_per_lookup[16]
