"""Cross-subsystem integration tests: full stacks, end to end.

These wire several subsystems together the way the surveyed systems do:

* a Blockstack-style stack: name on the chain -> zone file off-chain ->
  audited storage provider -> retrieval starting from just the name;
* a full federated community under churn with anti-entropy repair;
* a ZeroNet-style site whose address receives payments on the chain.
"""

import pytest

from repro.chain import BlockchainNetwork, ConsensusParams, TxKind, make_transaction
from repro.crypto import generate_keypair
from repro.errors import NameNotFoundError
from repro.gossip import AntiEntropyNode
from repro.naming import BlockchainNameRegistry, NameBinding, ZoneFile
from repro.net import ChurnProfile, ConstantLatency, Network, attach_churn
from repro.sim import RngStreams, Simulator
from repro.storage import (
    Commitment,
    DataBlob,
    StorageProvider,
    StorageVerifier,
)
from repro.webapps import HostlessSite

FAST = ConsensusParams(
    target_block_interval=10.0, retarget_interval=50, initial_difficulty=100.0
)


class TestBlockstackStyleStack:
    """Name -> zone file hash on chain; data on a provider; end-to-end
    retrieval starting from only the human-readable name."""

    def test_resolve_name_then_fetch_profile(self):
        sim = Simulator()
        streams = RngStreams(31)
        network = Network(sim, streams, latency=ConstantLatency(0.01))

        # Substrate 1: the chain, with two miners.
        alice = generate_keypair("int-alice")
        chain_net = BlockchainNetwork(
            sim, streams, params=FAST, propagation_delay=0.5,
            premine={alice.public_key: 100.0},
        )
        chain_net.add_participant("m1", hashrate=10.0)
        chain_net.add_participant("m2", hashrate=10.0)
        chain_net.start()
        registry = BlockchainNameRegistry(
            chain_net, chain_net.participant("m1"), confirmations=2
        )

        # Substrate 2: a storage provider holding alice's profile blob.
        provider = StorageProvider(network, "gaia-hub")
        verifier = StorageVerifier(network, "reader-device", streams)
        profile_blob = DataBlob.from_bytes(
            b'{"name": "alice", "avatar": "..."}' * 20, chunk_size=256
        )
        provider.accept_blob(profile_blob)

        # The zone file points at the storage; its hash goes on-chain.
        zone_file = ZoneFile({
            "storage_provider": "gaia-hub",
            "merkle_root": profile_blob.merkle_root,
            "chunk_count": len(profile_blob.chunks),
        })
        binding = NameBinding("alice.id", alice.public_key, zone_file.digest)

        def scenario():
            yield from registry.register(alice, "alice.id", binding.as_value())
            # --- later, a reader starts from just the name ---
            resolution = yield from registry.resolve("alice.id")
            resolved = NameBinding.from_value("alice.id", resolution.value)
            # Zone file integrity is checked against the on-chain hash.
            assert resolved.verify_zone_file(zone_file)
            commitment = Commitment(
                zone_file.entries["merkle_root"],
                zone_file.entries["chunk_count"],
            )
            chunks = yield from verifier.retrieve_all(
                zone_file.entries["storage_provider"], commitment
            )
            return b"".join(chunks)

        data = sim.run_process(scenario(), until=50_000.0)
        assert data == profile_blob.to_bytes()

    def test_tampered_zone_file_detected(self):
        alice = generate_keypair("int-alice2")
        zone_file = ZoneFile({"storage_provider": "honest-hub"})
        binding = NameBinding("alice.id", alice.public_key, zone_file.digest)
        forged = ZoneFile({"storage_provider": "evil-hub"})
        assert not binding.verify_zone_file(forged)


class TestFederationUnderChurn:
    """Anti-entropy keeps a federation converged while servers churn."""

    def test_messages_survive_rolling_server_outages(self):
        sim = Simulator()
        streams = RngStreams(34)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        servers = [f"srv{i}" for i in range(4)]
        for server in servers:
            network.create_node(server)
        replicas = {
            server: AntiEntropyNode(
                network, network.node(server), servers, streams, interval=3.0
            )
            for server in servers
        }
        for replica in replicas.values():
            replica.start()
        # Rolling outages: each server takes a different nap.
        for i, server in enumerate(servers):
            start = 50.0 + 40.0 * i
            sim.schedule(start, network.node(server).set_online, False, start)
            sim.schedule(start + 30.0, network.node(server).set_online, True, start + 30.0)

        def scenario():
            for i in range(8):
                # Write to whichever server is up.
                online = [s for s in servers if network.node(s).online]
                replicas[online[i % len(online)]].write(f"msg{i}", f"body-{i}")
                yield 25.0
            yield 300.0  # repair time
            for replica in replicas.values():
                replica.stop()
            return True

        sim.run_process(scenario(), until=5000.0)
        for server in servers:
            store = replicas[server].store
            assert len(store) == 8, f"{server} missing messages"
            assert store.get("msg0") == "body-0"


class TestZeroNetDonations:
    """§3.4: 'The public key is also a standard Bitcoin address for
    accepting donations and payments directly to the web application.'"""

    def test_site_address_receives_chain_payments(self):
        from repro.chain import TxKind

        sim = Simulator()
        streams = RngStreams(35)
        fan = generate_keypair("int-donor")
        chain_net = BlockchainNetwork(
            sim, streams, params=FAST, propagation_delay=0.3,
            premine={fan.public_key: 50.0},
        )
        chain_net.add_participant("m1", hashrate=10.0)
        chain_net.start()

        site = HostlessSite("donation-site")
        site.write_file("index.html", b"<h1>tip jar below</h1>")
        bundle = site.publish()
        site_address = bundle.manifest.site_address  # also a payment address

        donation = make_transaction(
            fan, TxKind.PAY, {"to": site_address, "amount": 7.5}, 0, fee=0.1
        )
        chain_net.submit_transaction(donation)
        sim.run(until=300.0)

        state = chain_net.participant("m1").chain.state_at()
        assert state.balance(site_address) == pytest.approx(7.5)
        # The bundle self-verifies, so the payee identity is exactly the
        # key that signs site updates: donations cannot be redirected by
        # a mirror without breaking verification.
        assert bundle.verify()


class TestSplitBrain:
    """Partition -> divergent writes -> heal -> anti-entropy convergence:
    the §3.2 'loss of communication channels' threat, end to end."""

    def test_federation_converges_after_partition_heals(self):
        sim = Simulator()
        streams = RngStreams(36)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        servers = [f"srv{i}" for i in range(4)]
        for server in servers:
            network.create_node(server)
        replicas = {
            server: AntiEntropyNode(
                network, network.node(server), servers, streams, interval=3.0
            )
            for server in servers
        }
        for replica in replicas.values():
            replica.start()

        def scenario():
            # Split 2-2 and write on both sides (including a conflict).
            network.partition([["srv0", "srv1"], ["srv2", "srv3"]])
            replicas["srv0"].write("left-only", "L")
            replicas["srv2"].write("right-only", "R")
            replicas["srv0"].write("conflict", "from-left")
            replicas["srv2"].write("conflict", "from-right")
            yield 120.0  # gossip happens within each side only
            # Divergence while partitioned:
            assert replicas["srv0"].store.get("right-only") is None
            assert replicas["srv2"].store.get("left-only") is None
            network.heal()
            yield 300.0  # anti-entropy repairs across the healed link
            for replica in replicas.values():
                replica.stop()
            return True

        sim.run_process(scenario(), until=5000.0)
        # Everyone has everything, and the conflict resolved identically.
        conflict_values = {r.store.get("conflict") for r in replicas.values()}
        assert len(conflict_values) == 1
        for replica in replicas.values():
            assert replica.store.get("left-only") == "L"
            assert replica.store.get("right-only") == "R"

    def test_blockchain_partition_forks_then_reorgs_on_heal(self):
        sim = Simulator()
        streams = RngStreams(37)
        chain_net = BlockchainNetwork(
            sim, streams, params=FAST, propagation_delay=0.5,
        )
        # NOTE: BlockchainNetwork gossips directly (not via repro.net), so
        # we model the partition by isolating one miner with withholding —
        # the same connectivity semantics from the chain's point of view.
        a = chain_net.add_participant("side-a", hashrate=15.0)
        b = chain_net.add_participant("side-b", hashrate=10.0)
        chain_net.start()
        sim.run(until=200.0)
        # "Partition": side-b stops hearing side-a and vice versa.
        b.begin_withholding()
        sim.run(until=600.0)
        fork_a, fork_b = a.chain.tip.block_id, b._private_tip_id
        assert fork_a != fork_b  # divergent chains during the partition
        # "Heal": side-b rejoins and publishes its fork.
        b.release_private_chain()
        sim.run(until=620.0)
        # Consensus resumes: both share one tip (heavier side wins).
        assert a.chain.tip.block_id == b.chain.tip.block_id
