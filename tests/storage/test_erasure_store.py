"""Tests for erasure-coded storage across a churning pool."""

import pytest

from repro.errors import ReproError, StorageError
from repro.net import ChurnProfile, ConstantLatency, Network, attach_churn
from repro.sim import RngStreams, Simulator
from repro.storage import (
    ErasureBlobStore,
    ReplicatedBlobStore,
    StorageProvider,
    make_random_blob,
)


def setup_pool(seed=1, n_providers=10, k=4, m=2, check_interval=30.0):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    providers = [StorageProvider(network, f"p{i}") for i in range(n_providers)]
    store = ErasureBlobStore(
        network, providers, streams, k=k, m=m, check_interval=check_interval
    )
    return sim, streams, network, providers, store


def payload(streams, size=4096):
    return make_random_blob(streams, size, chunk_size=1024).to_bytes()


class TestErasurePlacement:
    def test_store_places_n_shards_on_distinct_providers(self):
        sim, streams, network, providers, store = setup_pool()
        data = payload(streams)

        def scenario():
            return (yield from store.store(data, "doc-1"))

        health = sim.run_process(scenario())
        assert len(health.placement) == 6  # k+m
        assert len(set(health.placement.values())) == 6

    def test_retrieve_roundtrip(self):
        sim, streams, network, providers, store = setup_pool(seed=2)
        data = payload(streams)

        def scenario():
            yield from store.store(data, "doc-1")
            return (yield from store.retrieve("doc-1"))

        assert sim.run_process(scenario()) == data

    def test_retrieve_survives_m_failures(self):
        sim, streams, network, providers, store = setup_pool(seed=3)
        data = payload(streams)

        def scenario():
            health = yield from store.store(data, "doc-1")
            victims = sorted(health.placement.values())[:2]  # m = 2
            for victim in victims:
                network.node(victim).set_online(False, sim.now)
            return (yield from store.retrieve("doc-1"))

        assert sim.run_process(scenario()) == data

    def test_retrieve_fails_past_m_failures(self):
        sim, streams, network, providers, store = setup_pool(seed=4)
        data = payload(streams)

        def scenario():
            health = yield from store.store(data, "doc-1")
            victims = sorted(health.placement.values())[:3]  # m + 1
            for victim in victims:
                network.node(victim).set_online(False, sim.now)
            try:
                yield from store.retrieve("doc-1")
            except StorageError:
                return "unrecoverable"

        assert sim.run_process(scenario()) == "unrecoverable"

    def test_storage_overhead_below_replication(self):
        sim, streams, network, providers, store = setup_pool(seed=5)
        data = payload(streams)

        def scenario():
            yield from store.store(data, "doc-1")

        sim.run_process(scenario())
        stored = store.stored_bytes("doc-1")
        # (4+2)/4 = 1.5x vs 3x for 2-failure-tolerant replication.
        assert stored < 2 * len(data)
        assert stored >= 1.4 * len(data)

    def test_duplicate_content_id_rejected(self):
        sim, streams, network, providers, store = setup_pool(seed=6)
        data = payload(streams)

        def scenario():
            yield from store.store(data, "doc-1")
            try:
                yield from store.store(data, "doc-1")
            except StorageError:
                return "dup"

        assert sim.run_process(scenario()) == "dup"

    def test_pool_too_small_rejected(self):
        sim = Simulator()
        streams = RngStreams(7)
        network = Network(sim, streams)
        providers = [StorageProvider(network, f"p{i}") for i in range(3)]
        with pytest.raises(StorageError):
            ErasureBlobStore(network, providers, streams, k=4, m=2)


class TestErasureRepair:
    def test_repair_restores_offline_shards(self):
        sim, streams, network, providers, store = setup_pool(seed=8)
        data = payload(streams)

        def scenario():
            health = yield from store.store(data, "doc-1")
            store.start_repair()
            victim = sorted(health.placement.values())[0]
            network.node(victim).set_online(False, sim.now)
            yield 200.0
            store.stop_repair()
            return health

        health = sim.run_process(scenario(), until=1000.0)
        assert health.repairs >= 1
        assert store.live_shards("doc-1") >= 6

    def test_repair_moves_less_data_than_full_replication_would(self):
        sim, streams, network, providers, store = setup_pool(seed=9)
        data = payload(streams)

        def scenario():
            health = yield from store.store(data, "doc-1")
            store.start_repair()
            victim = sorted(health.placement.values())[0]
            network.node(victim).set_online(False, sim.now)
            yield 200.0
            store.stop_repair()

        sim.run_process(scenario(), until=1000.0)
        # One lost shard costs ~1 shard of repair upload (vs a whole blob
        # for replication) -- though decode reads k shards internally.
        assert 0 < store.repair_bytes() <= len(data)

    def test_survives_churn_with_repair(self):
        sim, streams, network, providers, store = setup_pool(
            seed=10, n_providers=12, check_interval=20.0
        )
        profile = ChurnProfile(mean_uptime=300.0, mean_downtime=150.0)
        attach_churn(sim, streams, [p.node for p in providers], profile)
        data = payload(streams, size=2048)

        def scenario():
            yield from store.store(data, "doc-1")
            store.start_repair()
            yield 2500.0
            result = yield from store.retrieve("doc-1")
            store.stop_repair()
            return result

        assert sim.run_process(scenario(), until=10_000.0) == data


class TestErasureStoreEdges:
    def test_unknown_content_rejected(self):
        sim, streams, network, providers, store = setup_pool(
            seed=65, n_providers=6
        )
        with pytest.raises(StorageError):
            store.live_shards("ghost")

        def scenario():
            try:
                yield from store.retrieve("ghost")
            except StorageError:
                return "unknown"

        assert sim.run_process(scenario()) == "unknown"

    def test_store_requires_enough_online(self):
        sim, streams, network, providers, store = setup_pool(
            seed=66, n_providers=6
        )
        network.node("p0").set_online(False, 0.0)
        data = payload(streams, 1024)

        def scenario():
            try:
                yield from store.store(data, "doc")
            except StorageError:
                return "short"

        assert sim.run_process(scenario()) == "short"


class TestErasureVersusReplication:
    """The same durability problem solved two ways on device churn:
    (4, 2) erasure stores half of R=3 replication's bytes for the same
    two-failure tolerance, at the cost of decode-based repair."""

    def run_scheme(self, scheme):
        sim = Simulator()
        streams = RngStreams(17)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        providers = [StorageProvider(network, f"p{i}") for i in range(12)]
        attach_churn(sim, streams, [p.node for p in providers],
                     ChurnProfile(mean_uptime=400.0, mean_downtime=200.0))
        blob = make_random_blob(streams, 8 * 1024, chunk_size=1024)
        if scheme == "replication_r3":
            store = ReplicatedBlobStore(
                network, providers, streams,
                replication_factor=3, check_interval=30.0,
            )
            upload, key = store.store(blob), blob.merkle_root
        else:
            store = ErasureBlobStore(
                network, providers, streams, k=4, m=2, check_interval=30.0,
            )
            upload, key = store.store(blob.to_bytes(), "doc"), "doc"
        outcome = {"ok": 0, "attempts": 0}

        def scenario():
            yield from upload
            store.start_repair()
            for _ in range(15):
                yield 150.0
                outcome["attempts"] += 1
                try:
                    yield from store.retrieve(key)
                    outcome["ok"] += 1
                except ReproError:
                    pass
            store.stop_repair()

        sim.run_process(scenario(), until=20_000.0)
        stored = (3 * blob.size_bytes if scheme == "replication_r3"
                  else store.stored_bytes("doc"))
        return stored, round(outcome["ok"] / outcome["attempts"], 3)

    def test_erasure_halves_the_bytes_at_equal_availability(self):
        replication_bytes, replication_availability = self.run_scheme(
            "replication_r3")
        erasure_bytes, erasure_availability = self.run_scheme("erasure_4_2")
        assert erasure_bytes < 0.6 * replication_bytes
        assert replication_availability >= 0.85
        assert erasure_availability >= 0.85
