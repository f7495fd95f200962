#!/usr/bin/env python3
"""Quickstart: a five-minute tour of the feudalsim library.

Reproduces the paper's headline artifact (Table 3), then runs one tiny
instance of each simulated subsystem the paper surveys: blockchain naming,
federated messaging, the storage marketplace, and a visitor-seeded web
app.

Run:  python examples/quickstart.py
"""

from repro.analysis import render_kv, render_table
from repro.analysis.experiments import run_feasibility
from repro.core import paper_model
from repro.crypto import generate_keypair
from repro.groupcomm import ReplicatedFederation
from repro.naming import CentralizedPKI
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator
from repro.storage import ProofKind, StorageMarketplace, StorageProvider, make_random_blob
from repro.webapps import HostlessSite, SiteSwarm, Tracker


def feasibility() -> None:
    print("\n--- 1. The paper's Table 3: is device capacity sufficient? ---")
    result = run_feasibility(paper_model())
    print(render_table(result["table3"]))
    print(render_kv({k: v for k, v in result["sufficient"].items()},
                    title="\nSufficient?"))


def naming() -> None:
    print("\n--- 2. Naming: registering alice.id with a centralized PKI ---")
    sim = Simulator()
    network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
    network.create_node("laptop")
    pki = CentralizedPKI(network)
    alice = generate_keypair("quickstart-alice")

    def scenario():
        receipt = yield from pki.register(
            alice, "alice.id", {"pk": alice.public_key[:16]}, client="laptop"
        )
        resolution = yield from pki.resolve("alice.id", client="laptop")
        return receipt, resolution

    receipt, resolution = sim.run_process(scenario())
    print(f"registered in {receipt.latency * 1000:.0f} ms;"
          f" resolves to owner {resolution.owner_public_key[:16]}...")
    print("(the blockchain backend takes minutes; see"
          " examples/decentralized_naming.py)")


def messaging() -> None:
    print("\n--- 3. Group communication: a two-server Matrix-style room ---")
    sim = Simulator()
    streams = RngStreams(2)
    network = Network(sim, streams, latency=ConstantLatency(0.02))
    federation = ReplicatedFederation(
        network, ["srv0", "srv1"], streams, gossip_interval=2.0,
        allow_failover=True,
    )
    federation.add_user("alice", home="srv0")
    federation.add_user("bob", home="srv1")
    federation.create_room("lobby", ["alice", "bob"])
    federation.start_replication()

    def scenario():
        yield from federation.post("alice", "lobby", "hello from alice")
        yield 30.0  # let replication converge
        network.node("srv0").set_online(False, sim.now)  # alice's home dies
        messages = yield from federation.fetch("alice", "lobby")
        federation.stop_replication()
        return messages

    messages = sim.run_process(scenario(), until=10_000.0)
    print(f"alice still reads {len(messages)} message(s) after her home"
          " server died (replication + failover)")


def storage() -> None:
    print("\n--- 4. Storage: one audited deal on the marketplace ---")
    sim = Simulator()
    streams = RngStreams(3)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    market = StorageMarketplace(network, streams)
    market.register_provider(StorageProvider(network, "provider"))
    network.create_node("consumer")
    market.ledger.credit("consumer", 100.0)
    blob = make_random_blob(streams, 16 * 1024, chunk_size=1024)

    def scenario():
        deal = yield from market.make_deal(
            "consumer", blob, epochs=3, proof_kind=ProofKind.STORAGE,
            price_per_epoch=1.0,
        )
        for _ in range(3):
            yield from market.run_epoch()
        return deal

    deal = sim.run_process(scenario())
    print(f"deal {deal.deal_id}: state={deal.state},"
          f" provider earned {market.provider_earnings('provider'):.1f}"
          " after 3 audited epochs")


def webapps() -> None:
    print("\n--- 5. Web apps: a hostless site served by its visitors ---")
    sim = Simulator()
    streams = RngStreams(4)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    swarm = SiteSwarm(network, Tracker(network))
    site = HostlessSite("quickstart-blog")
    site.write_file("index.html", b"<h1>no server required</h1>")
    bundle = site.publish()

    def scenario():
        yield from swarm.seed("author", bundle)
        fetched = yield from swarm.visit("visitor1", bundle.manifest.site_address)
        yield from swarm.seed("visitor1", fetched)
        network.node("author").set_online(False, sim.now)
        again = yield from swarm.visit("visitor2", bundle.manifest.site_address)
        return again

    fetched = sim.run_process(scenario())
    print(f"site {bundle.manifest.site_address[:16]}... survives its author:"
          f" visitor2 fetched {len(fetched.files)} verified file(s) from"
          " visitor1's seed")


if __name__ == "__main__":
    feasibility()
    naming()
    messaging()
    storage()
    webapps()
    print("\nDone. See DESIGN.md for the full experiment index and"
          " `python -m repro verify` for every paper claim.")
