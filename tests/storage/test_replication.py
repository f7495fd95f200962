"""Tests for replica maintenance under churn (the E9 machinery)."""

import pytest

from repro.errors import StorageError
from repro.net import ChurnProfile, ConstantLatency, Network, attach_churn
from repro.sim import RngStreams, Simulator
from repro.storage import ReplicatedBlobStore, StorageProvider, make_random_blob


def setup_pool(seed=1, n_providers=10, replication_factor=3, check_interval=30.0):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    providers = [StorageProvider(network, f"p{i}") for i in range(n_providers)]
    store = ReplicatedBlobStore(
        network, providers, streams,
        replication_factor=replication_factor,
        check_interval=check_interval,
    )
    return sim, streams, network, providers, store


class TestPlacementAndRetrieval:
    def test_store_places_r_replicas(self):
        sim, streams, network, providers, store = setup_pool()
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            return health

        health = sim.run_process(scenario())
        assert len(health.holders) == 3
        assert store.online_replicas(blob.merkle_root) == 3

    def test_retrieve_roundtrip(self):
        sim, streams, network, providers, store = setup_pool(seed=2)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            yield from store.store(blob)
            return (yield from store.retrieve(blob.merkle_root))

        assert sim.run_process(scenario()) == blob.to_bytes()

    def test_retrieve_survives_minority_failures(self):
        sim, streams, network, providers, store = setup_pool(seed=3)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            holders = sorted(health.holders)
            for holder in holders[:2]:  # kill 2 of 3
                network.node(holder).set_online(False, sim.now)
            return (yield from store.retrieve(blob.merkle_root))

        assert sim.run_process(scenario()) == blob.to_bytes()

    def test_retrieve_fails_when_all_holders_down(self):
        sim, streams, network, providers, store = setup_pool(seed=4)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            for holder in health.holders:
                network.node(holder).set_online(False, sim.now)
            try:
                yield from store.retrieve(blob.merkle_root)
            except StorageError:
                return "unavailable"

        assert sim.run_process(scenario()) == "unavailable"

    def test_not_enough_online_providers(self):
        sim, streams, network, providers, store = setup_pool(
            seed=5, n_providers=3, replication_factor=3
        )
        network.node("p0").set_online(False, 0.0)
        blob = make_random_blob(streams, 1024)

        def scenario():
            try:
                yield from store.store(blob)
            except StorageError:
                return "underprovisioned"

        assert sim.run_process(scenario()) == "underprovisioned"

    def test_pool_smaller_than_factor_rejected(self):
        sim = Simulator()
        streams = RngStreams(6)
        network = Network(sim, streams)
        providers = [StorageProvider(network, "only")]
        with pytest.raises(StorageError):
            ReplicatedBlobStore(network, providers, streams, replication_factor=3)


class TestRepair:
    def test_repair_restores_replication_factor(self):
        sim, streams, network, providers, store = setup_pool(seed=7)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            store.start_repair()
            # Kill one holder permanently.
            victim = sorted(health.holders)[0]
            network.node(victim).set_online(False, sim.now)
            yield 200.0  # several check intervals
            store.stop_repair()
            return health

        health = sim.run_process(scenario(), until=1000.0)
        assert store.online_replicas(blob.merkle_root) >= 3
        assert health.repairs >= 1
        assert store.repair_bytes() >= 4096

    def test_no_repair_without_failures(self):
        sim, streams, network, providers, store = setup_pool(seed=8)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            store.start_repair()
            yield 200.0
            store.stop_repair()
            return health

        health = sim.run_process(scenario(), until=1000.0)
        assert health.repairs == 0
        assert store.repair_bytes() == 0

    def test_churny_pool_keeps_blob_alive(self):
        sim, streams, network, providers, store = setup_pool(
            seed=9, n_providers=12, replication_factor=4, check_interval=20.0
        )
        # Device-grade churn: up 200s, down 100s on average.
        profile = ChurnProfile(mean_uptime=200.0, mean_downtime=100.0)
        attach_churn(sim, streams, [p.node for p in providers], profile)
        blob = make_random_blob(streams, 2048, chunk_size=1024)

        def scenario():
            yield from store.store(blob)
            store.start_repair()
            yield 3000.0
            data = yield from store.retrieve(blob.merkle_root)
            store.stop_repair()
            return data

        assert sim.run_process(scenario(), until=10_000.0) == blob.to_bytes()

    def test_repair_traffic_scales_with_churn(self):
        repair_bytes = {}
        # Calm: failures are rare (long uptimes).  Churny: constant cycling.
        for label, uptime in (("calm", 100_000.0), ("churny", 300.0)):
            sim, streams, network, providers, store = setup_pool(
                seed=10, n_providers=12, replication_factor=3, check_interval=20.0
            )
            profile = ChurnProfile(mean_uptime=uptime, mean_downtime=100.0)
            attach_churn(sim, streams, [p.node for p in providers], profile)
            blob = make_random_blob(streams, 2048, chunk_size=1024)

            def scenario():
                yield from store.store(blob)
                store.start_repair()
                yield 2000.0
                store.stop_repair()

            sim.run_process(scenario(), until=8000.0)
            repair_bytes[label] = store.repair_bytes()
        assert repair_bytes["churny"] > repair_bytes["calm"]


class TestHolderOrder:
    """``BlobHealth.holders`` is a set: the store must visit it sorted, or
    the repair source and the retrieval order depend on PYTHONHASHSEED."""

    def spy_on_store_rpcs(self, network):
        calls = []
        original_rpc = network.rpc

        def spying_rpc(src, dst, method, payload, **kwargs):
            if method in ("store.get", "store.put"):
                calls.append((method, src, dst))
            return original_rpc(src, dst, method, payload, **kwargs)

        network.rpc = spying_rpc
        return calls

    def test_retrieve_tries_holders_in_sorted_order(self):
        sim, streams, network, providers, store = setup_pool(
            seed=11, replication_factor=6
        )
        blob = make_random_blob(streams, 2048, chunk_size=1024)
        by_id = {p.node_id: p for p in providers}

        def scenario():
            health = yield from store.store(blob)
            # Every holder serves a bad chunk 0, so retrieve tries them all.
            for holder in health.holders:
                by_id[holder].commitments[blob.merkle_root].payloads[0] = b"x"
            calls[:] = []
            try:
                yield from store.retrieve(blob.merkle_root)
            except StorageError:
                return sorted(health.holders)

        calls = self.spy_on_store_rpcs(network)
        holders = sim.run_process(scenario())
        assert calls == [("store.get", "replication-manager", h) for h in holders]

    def test_repair_uploads_from_first_sorted_online_holder(self):
        sim, streams, network, providers, store = setup_pool(
            seed=12, replication_factor=6
        )
        blob = make_random_blob(streams, 2048, chunk_size=1024)

        def scenario():
            health = yield from store.store(blob)
            holders = sorted(health.holders)
            network.node(holders[0]).set_online(False, sim.now)
            calls[:] = []
            store.start_repair()
            yield store.check_interval + 1.0  # one repair pass
            store.stop_repair()
            return holders

        calls = self.spy_on_store_rpcs(network)
        holders = sim.run_process(scenario(), until=1000.0)
        assert [src for _, src, _ in calls] == [holders[1]]
        assert [method for method, _, _ in calls] == ["store.put"]
