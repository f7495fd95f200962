"""Experiment drivers E3-E14 (see DESIGN.md's experiment index).

Each function builds a fresh simulated world from a seed, runs one
experiment, and returns plain dict/list results that the CLI prints and
the claims in :mod:`repro.analysis.claims` assert on.  E1/E2 (the
taxonomy and storage-system tables) live in :mod:`repro.core.taxonomy`
and :mod:`repro.storage.systems`; everything here exercises behaviour.

Grid-shaped drivers are split in two: a top-level ``_*_point`` function
computes ONE grid point from explicit JSON-safe kwargs (so it can ship
to a worker process and key an on-disk cache), and the public driver
fans the grid out through a :class:`repro.analysis.runner.SweepRunner`.
The default runner is serial and uncached, so calling a driver with no
``runner`` argument behaves exactly as the historical serial loop did;
pass ``runner=SweepRunner(workers=N, cache=SweepCache(...))`` (or use
``python -m repro sweep``) to parallelize and memoize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import SweepRunner

from repro.chain import (
    BlockchainNetwork,
    ConsensusParams,
    MajorityAttack,
    TxKind,
    double_spend_success_probability,
    make_transaction,
    selfish_mining_revenue,
)
from repro.core.feasibility import FeasibilityModel, paper_model
from repro.crypto import generate_keypair
from repro.errors import (
    AccessDeniedError,
    GroupCommError,
    NameTakenError,
    NamingError,
    ReproError,
    RpcTimeoutError,
    StorageError,
    WebAppError,
)
from repro.groupcomm import (
    CentralizedPlatform,
    PartialFederation,
    ReplicatedFederation,
    SingleHomeFederation,
    SocialP2PNetwork,
    audit_centralized,
    audit_replicated_federation,
    audit_social_p2p,
    exposure_score,
)
from repro.naming import BlockchainNameRegistry, CentralizedPKI
from repro.net import (
    ChurnProfile,
    ConstantLatency,
    Network,
    attach_churn,
)
from repro.sim import RngStreams, Simulator
from repro.storage import (
    DealState,
    ProofKind,
    StorageDeal,
    StorageMarketplace,
    StorageProvider,
    Commitment,
    ReplicatedBlobStore,
    make_random_blob,
    seal_blob,
)
from repro.webapps import HostlessSite, SiteSwarm, Tracker, VisitorProcess

__all__ = [
    "run_feasibility",
    "run_moderation_comparison",
    "run_usenet_collapse",
    "run_endless_ledger",
    "chain_size_bytes",
    "run_selfish_mining",
    "run_refeudalization",
    "run_federation_availability",
    "run_partial_federation_sweep",
    "run_social_tradeoff",
    "run_naming_comparison",
    "naming_attack_curve",
    "run_name_theft",
    "run_proof_economics",
    "run_swarm_availability",
    "run_quality_vs_quantity",
]


# ---------------------------------------------------------------------------
# E3 — Table 3 feasibility
# ---------------------------------------------------------------------------

def _feasibility_point(model: Optional[FeasibilityModel] = None) -> Dict[str, object]:
    """One E3 evaluation (the whole experiment is a single grid point)."""
    model = model or paper_model()
    return {
        "table3": model.table3(),
        "sufficient": model.sufficient(),
        "ratios": model.device_capacity().ratio_to(model.cloud_capacity()),
        "breakeven_core_discount": model.breakeven_core_discount(),
    }


def run_feasibility(
    model: Optional[FeasibilityModel] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, object]:
    """E3: regenerate Table 3 plus the sufficiency verdict and breakeven."""
    if model is not None:
        # A custom model is not JSON-addressable; compute it directly.
        return _feasibility_point(model=model)
    runner = runner or SweepRunner()
    return runner.run("E3_feasibility", _feasibility_point, [{}])[0]


# ---------------------------------------------------------------------------
# E4 — federation availability under server failures
# ---------------------------------------------------------------------------

def _federation_point(
    model_name: str,
    seed: int,
    n_servers: int,
    n_users: int,
    n_messages: int,
    failed_servers: int,
    gossip_interval: float,
) -> Dict[str, object]:
    """One E4 grid point: one federation model, one failure count."""
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.02))
    servers = [f"srv{i}" for i in range(n_servers)]
    if model_name == "single_home":
        federation = SingleHomeFederation(network, servers)
    else:
        federation = ReplicatedFederation(
            network, servers, streams, gossip_interval=gossip_interval,
            allow_failover=(model_name == "replicated_failover"),
        )
    users = [f"u{i}" for i in range(n_users)]
    for i, user in enumerate(users):
        federation.add_user(user, home=servers[i % n_servers])
    federation.create_room("room", users)
    if isinstance(federation, ReplicatedFederation):
        federation.start_replication()

    authors = users[:n_messages]

    def post_phase():
        for i, author in enumerate(authors):
            yield from federation.post(author, "room", f"message-{i}")
        # Let pushes/gossip converge.
        yield 30 * gossip_interval
        return True

    sim.run_process(post_phase(), until=10_000.0)

    # Fail servers deterministically (the first k).
    for server in servers[:failed_servers]:
        network.node(server).set_online(False, sim.now)

    readable = {"count": 0}

    def read_phase():
        for user in users:
            try:
                messages = yield from federation.fetch(user, "room")
            except (RpcTimeoutError, GroupCommError):
                continue
            if len(messages) >= n_messages:
                readable["count"] += 1
        if isinstance(federation, ReplicatedFederation):
            federation.stop_replication()
        return True

    sim.run_process(read_phase(), until=sim.now + 10_000.0)
    return {
        "model": model_name,
        "servers": n_servers,
        "failed": failed_servers,
        "read_availability": readable["count"] / n_users,
    }


def run_federation_availability(
    seed: int = 1,
    n_servers: int = 5,
    n_users: int = 20,
    n_messages: int = 8,
    failed_servers: int = 1,
    gossip_interval: float = 2.0,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E4: message-read availability after server failures, per model.

    Returns one row per federation model with the fraction of users able
    to read the full room history after ``failed_servers`` die.
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "model_name": model_name,
            "seed": seed,
            "n_servers": n_servers,
            "n_users": n_users,
            "n_messages": n_messages,
            "failed_servers": failed_servers,
            "gossip_interval": gossip_interval,
        }
        for model_name in ("single_home", "replicated", "replicated_failover")
    ]
    return runner.run("E4_federation_availability", _federation_point, configs)


# ---------------------------------------------------------------------------
# E4P — partial federation across the trust/policy spectrum
# ---------------------------------------------------------------------------

def _partial_point(
    policy: str,
    trust: float,
    seed: int,
    n_servers: int,
    n_users: int,
    n_messages: int,
    failed_servers: int,
    gossip_interval: float,
    conflict_strategy: str,
) -> Dict[str, object]:
    """One E4P grid point: one (policy, trust) mix under one strategy.

    Two rooms stress both sides of the ``filtered`` gate: the public
    "town" (everyone; public entries federate regardless of trust) and
    the private "club" (first half of the users; private entries reach
    only peers at or above the trust threshold).  Concurrent topic
    writes from differently-homed users manufacture conflicts, so every
    point also reports residual divergence.
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.02))
    servers = [f"srv{i}" for i in range(n_servers)]
    federation = PartialFederation(
        network, servers, streams, gossip_interval=gossip_interval,
        conflict_strategy=conflict_strategy, default_policy=policy,
        default_trust=trust,
    )
    users = [f"u{i}" for i in range(n_users)]
    for i, user in enumerate(users):
        federation.add_user(user, home=servers[i % n_servers])
    town = federation.create_room("town", users, public=True)
    club_members = users[: max(2, n_users // 2)]
    federation.create_room("club", club_members, public=False)
    federation.start_federation()

    n_town = (n_messages + 1) // 2
    n_club = n_messages - n_town
    expected = {"town": n_town, "club": n_club}

    def post_phase():
        for i in range(n_town):
            yield from federation.post(users[i % n_users], "town", f"t-{i}")
        for i in range(n_club):
            yield from federation.post(
                club_members[i % len(club_members)], "club", f"c-{i}"
            )
        # Concurrent topic writes from two differently-homed users,
        # faster than a gossip round: genuine conflicts.
        yield from federation.set_room_state(users[0], "town", "topic", "a")
        yield 0.2
        yield from federation.set_room_state(users[1], "town", "topic", "b")
        # Let pushes/gossip converge.
        yield 30 * gossip_interval
        return True

    sim.run_process(post_phase(), until=10_000.0)

    # Metadata leak before any failure: fraction of (message, server)
    # sightings realised — 1/n_servers means origin-only, 1.0 means
    # every hub sees every message (the §3.2 replication leak).
    sightings = sum(
        len(federation.server_metadata_view(server)) for server in servers
    )
    exposure = sightings / (n_messages * n_servers) if n_messages else 0.0

    # Fail servers deterministically (the first k).
    for server in servers[:failed_servers]:
        network.node(server).set_online(False, sim.now)

    readable = {"count": 0, "attempts": 0}

    def read_phase():
        for room_id, members in (("town", users), ("club", club_members)):
            for user in members:
                readable["attempts"] += 1
                try:
                    messages = yield from federation.fetch(user, room_id)
                except (RpcTimeoutError, GroupCommError):
                    continue
                if len(messages) >= expected[room_id]:
                    readable["count"] += 1
        federation.stop_federation()
        return True

    sim.run_process(read_phase(), until=sim.now + 100_000.0)
    divergent = federation.divergence(online_only=True)
    pending = sum(
        len(federation.pending_conflicts(server)) for server in servers
    )
    return {
        "policy": policy,
        "trust": trust,
        "strategy": conflict_strategy,
        "failed": failed_servers,
        "read_availability": readable["count"] / readable["attempts"],
        "metadata_exposure": round(exposure, 4),
        "divergent_keys": len(divergent),
        "conflicts_pending": pending,
    }


def run_partial_federation_sweep(
    seed: int = 1,
    n_servers: int = 4,
    n_users: int = 12,
    n_messages: int = 8,
    failed_servers: int = 1,
    gossip_interval: float = 2.0,
    conflict_strategy: str = "lww",
    trust_levels: Sequence[float] = (0.2, 0.5, 0.9),
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E4P: availability/consistency/leak across the trust spectrum.

    One row per (policy, trust) pair.  At a fixed trust level,
    availability is monotone ``none`` -> ``filtered`` -> ``full`` (more
    federation, more survivable replicas) and so is metadata exposure —
    the §3.2 availability-vs-control trade as a measured curve rather
    than prose.
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "policy": policy,
            "trust": trust,
            "seed": seed,
            "n_servers": n_servers,
            "n_users": n_users,
            "n_messages": n_messages,
            "failed_servers": failed_servers,
            "gossip_interval": gossip_interval,
            "conflict_strategy": conflict_strategy,
        }
        for policy in ("none", "filtered", "full")
        for trust in trust_levels
    ]
    return runner.run("E4P_partial_federation", _partial_point, configs)


# ---------------------------------------------------------------------------
# E5 — privacy vs availability across communication models
# ---------------------------------------------------------------------------

def _social_point(
    family: str,
    seed: int,
    n_users: int,
    n_posts: int,
    n_probes: int,
    mean_uptime: float,
    mean_downtime: float,
    attrition: float,
    horizon: float,
) -> Dict[str, object]:
    """One E5 grid point: one system family under device churn.

    The churn profile arrives as its scalar fields (not a
    ``ChurnProfile``) so the config is JSON-canonicalizable for the
    runner's cache and picklable for its worker pool.
    """
    from repro.net.topology import small_world

    profile = ChurnProfile(
        mean_uptime=mean_uptime, mean_downtime=mean_downtime,
        attrition=attrition,
    )
    encrypted = family.endswith("_e2e")
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.02))
    rng = streams.stream("analysis.probes")
    graph = small_world(n_users, k=4, rewire_prob=0.2, seed=seed, prefix="u")
    users = sorted(graph)

    platform = None
    federation = None
    p2p = None
    if family == "centralized":
        platform = CentralizedPlatform(network)
        for user in users:
            network.create_node(user)
        platform.create_room("room", users)
    elif family.startswith("federated"):
        servers = [f"srv{i}" for i in range(4)]
        if family == "federated_single_home":
            federation = SingleHomeFederation(network, servers)
        else:
            federation = ReplicatedFederation(
                network, servers, streams, gossip_interval=5.0,
                allow_failover=True,
            )
        for i, user in enumerate(users):
            federation.add_user(user, home=servers[i % len(servers)])
        federation.create_room("room", users)
        if isinstance(federation, ReplicatedFederation):
            federation.start_replication()
    else:
        p2p = SocialP2PNetwork(network, graph, replicate_to_friends=1)

    # Device churn on user nodes only (servers stay up).
    attach_churn(sim, streams, [network.node(u) for u in users], profile)

    posted = []

    def post_phase():
        for i in range(n_posts):
            author = users[i % len(users)]
            if not network.node(author).online:
                continue
            try:
                if platform is not None:
                    yield from platform.post(author, "room", f"post-{i}")
                elif isinstance(federation, ReplicatedFederation):
                    yield from federation.post(
                        author, "room", f"post-{i}", encrypted=encrypted
                    )
                elif federation is not None:
                    yield from federation.post(author, "room", f"post-{i}")
                else:
                    yield from p2p.post(author, f"post-{i}")
                posted.append(author)
            except ReproError:
                pass
            yield 20.0
        return True

    sim.run_process(post_phase(), until=horizon)

    successes = {"n": 0, "attempts": 0}

    def probe_phase():
        for _ in range(n_probes):
            yield rng.uniform(5.0, 50.0)
            online_users = [u for u in users if network.node(u).online]
            if not online_users or not posted:
                continue
            reader = rng.choice(online_users)
            successes["attempts"] += 1
            try:
                if platform is not None:
                    messages = yield from platform.fetch(reader, "room")
                    ok = len(messages) > 0
                elif federation is not None:
                    messages = yield from federation.fetch(reader, "room")
                    ok = len(messages) > 0
                else:
                    # Probe an authorized pair: a friend reading the
                    # author's feed (strangers are denied by design).
                    author = rng.choice(posted)
                    friend_readers = [
                        f for f in p2p.friends_of(author)
                        if network.node(f).online
                    ]
                    if not friend_readers:
                        successes["attempts"] -= 1
                        continue
                    reader = rng.choice(friend_readers)
                    messages = yield from p2p.fetch(reader, author)
                    ok = len(messages) > 0
            except ReproError:
                ok = False
            if ok:
                successes["n"] += 1
        if isinstance(federation, ReplicatedFederation):
            federation.stop_replication()
        return True

    sim.run_process(probe_phase(), until=sim.now + horizon)

    if platform is not None:
        exposure = exposure_score(audit_centralized(platform, "room"))
    elif isinstance(federation, ReplicatedFederation):
        exposure = exposure_score(
            audit_replicated_federation(federation, "room")
        )
    elif federation is not None:
        # Single-home: each home server sees its copy of content+metadata;
        # structurally the same full exposure as centralized, split
        # across a few operators.
        exposure = 1.0
    else:
        exposure = exposure_score(audit_social_p2p(p2p, users))

    availability = (
        successes["n"] / successes["attempts"] if successes["attempts"] else 0.0
    )
    return {
        "system": family,
        "availability": round(availability, 3),
        "operator_exposure": round(exposure, 3),
        "probes": successes["attempts"],
    }


def run_social_tradeoff(
    seed: int = 1,
    n_users: int = 16,
    n_posts: int = 10,
    n_probes: int = 40,
    device_profile: Optional[ChurnProfile] = None,
    horizon: float = 4000.0,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E5: fetch availability vs operator exposure, per system family.

    User devices churn with ``device_profile`` (default: 2/3 availability).
    Servers/datacenters stay up.  Availability is the success fraction of
    read probes at random times; exposure is the audited operator-privacy
    score in [0, 1].
    """
    profile = device_profile or ChurnProfile(
        mean_uptime=400.0, mean_downtime=200.0
    )
    runner = runner or SweepRunner()
    configs = [
        {
            "family": family,
            "seed": seed,
            "n_users": n_users,
            "n_posts": n_posts,
            "n_probes": n_probes,
            "mean_uptime": profile.mean_uptime,
            "mean_downtime": profile.mean_downtime,
            "attrition": profile.attrition,
            "horizon": horizon,
        }
        for family in ("centralized", "federated_single_home",
                       "federated_replicated", "federated_replicated_e2e",
                       "socially_aware_p2p")
    ]
    return runner.run("E5_social_tradeoff", _social_point, configs)


# ---------------------------------------------------------------------------
# E6 — naming: latency comparison and the 51% attack
# ---------------------------------------------------------------------------

FAST_CHAIN = ConsensusParams(
    target_block_interval=10.0, retarget_interval=50, initial_difficulty=100.0
)


def _naming_point(
    backend: str, seed: int, confirmations: Optional[int] = None
) -> Dict[str, object]:
    """One E6a grid point: one naming backend (one depth, if blockchain)."""
    alice = generate_keypair(f"e6-alice-{seed}")
    if backend == "centralized_pki":
        sim = Simulator()
        streams = RngStreams(seed)
        network = Network(sim, streams, latency=ConstantLatency(0.05))
        network.create_node("client")
        pki = CentralizedPKI(network)

        def pki_scenario():
            receipt = yield from pki.register(
                alice, "alice.id", {"v": 1}, client="client"
            )
            return receipt.latency

        latency = sim.run_process(pki_scenario())
        return {"backend": "centralized_pki", "confirmations": "-",
                "registration_latency_s": round(latency, 3)}

    sim = Simulator()
    streams = RngStreams(seed + confirmations)
    chain_net = BlockchainNetwork(
        sim, streams, params=FAST_CHAIN, propagation_delay=0.5,
        premine={alice.public_key: 1000.0},
    )
    chain_net.add_participant("m1", hashrate=10.0)
    chain_net.add_participant("m2", hashrate=10.0)
    chain_net.start()
    registry = BlockchainNameRegistry(
        chain_net, chain_net.participant("m1"), confirmations=confirmations
    )

    def chain_scenario():
        receipt = yield from registry.register(alice, "alice.id", {"v": 1})
        return receipt.latency

    latency = sim.run_process(chain_scenario(), until=100_000.0)
    return {"backend": "blockchain", "confirmations": confirmations,
            "registration_latency_s": round(latency, 1)}


def run_naming_comparison(
    seed: int = 1,
    confirmation_levels: Sequence[int] = (1, 3, 6),
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E6a: registration latency, centralized PKI vs blockchain registry.

    Blockchain latency scales with confirmations x block interval; the PKI
    answers in one round trip.  Rows report measured simulated seconds.
    """
    runner = runner or SweepRunner()
    configs: List[Dict[str, object]] = [
        {"backend": "centralized_pki", "seed": seed}
    ]
    configs.extend(
        {"backend": "blockchain", "seed": seed, "confirmations": confirmations}
        for confirmations in confirmation_levels
    )
    return runner.run("E6a_naming_comparison", _naming_point, configs)


def naming_attack_curve(
    shares: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7),
    confirmations: int = 6,
) -> List[Dict[str, object]]:
    """E6b: analytic 51%-rewrite success probability vs hashrate share.

    The crossover at 0.5 is the paper's '51% attack' boundary.
    """
    return [
        {
            "attacker_share": share,
            "confirmations": confirmations,
            "rewrite_probability": round(
                double_spend_success_probability(share, confirmations), 6
            ),
        }
        for share in shares
    ]


def run_name_theft(
    seed: int = 1,
    attacker_share: float = 0.75,
    horizon: float = 4000.0,
) -> Dict[str, object]:
    """E6c: empirical name-theft attack at a given hashrate share."""
    alice = generate_keypair(f"e6c-alice-{seed}")
    sim = Simulator()
    streams = RngStreams(seed)
    total = 40.0
    chain_net = BlockchainNetwork(
        sim, streams, params=FAST_CHAIN, propagation_delay=0.5,
        premine={alice.public_key: 1000.0},
    )
    honest = chain_net.add_participant(
        "honest", hashrate=total * (1 - attacker_share)
    )
    attacker = chain_net.add_participant(
        "attacker", hashrate=total * attacker_share
    )
    chain_net.start()
    victim_tx = make_transaction(
        alice, TxKind.NAME_REGISTER, {"name": "victim.id", "value": "v"}, 0,
        fee=0.5,
    )
    chain_net.submit_transaction(victim_tx, origin="honest")
    sim.run(until=300.0)
    steal = make_transaction(
        attacker.keypair, TxKind.NAME_REGISTER,
        {"name": "victim.id", "value": "stolen"}, 0, fee=0.5,
    )
    outcome = MajorityAttack(chain_net, attacker).run(
        victim_tx.txid, reference=honest, horizon=horizon,
        release_lead=2, conflicting_tx=steal,
    )
    entry = honest.chain.state_at().live_name("victim.id", honest.chain.height)
    return {
        "attacker_share": attacker_share,
        "succeeded": outcome.succeeded,
        "victim_tx_erased": outcome.victim_tx_erased,
        "name_owner_is_attacker": (
            entry is not None and entry.owner == attacker.keypair.public_key
        ),
    }


# ---------------------------------------------------------------------------
# E7 — storage-proof economics: do attacks pay?
# ---------------------------------------------------------------------------

def _proof_economics_point(
    behaviour: str,
    proof_kind: str,
    seed: int,
    epochs: int,
    blob_chunks: int,
    chunk_size: int,
) -> Dict[str, object]:
    """One E7 grid point: one (provider behaviour, audit scheme) pair."""
    sim = Simulator()
    streams = RngStreams(seed)
    latency = 0.2 if behaviour == "outsourcing_far" else 0.01
    network = Network(sim, streams, latency=ConstantLatency(latency))
    market = StorageMarketplace(
        network, streams, response_deadline=0.3
    )
    provider = StorageProvider(network, "provider", seal_time=1.0)
    market.register_provider(provider)
    network.create_node("consumer")
    market.ledger.credit("consumer", 1000.0)
    blob = make_random_blob(streams, blob_chunks * chunk_size, chunk_size)

    def scenario():
        if behaviour == "dedup_sybil":
            sealed = seal_blob(blob, "replica-2")
            provider.claim_sealed_without_storing(sealed, blob, "replica-2")
            deal = StorageDeal(
                deal_id="dedup-deal",
                consumer="consumer",
                provider_id="provider",
                commitment=Commitment(sealed.merkle_root, len(sealed.chunks)),
                size_bytes=blob.size_bytes,
                price_per_epoch=1.0,
                epochs_total=epochs,
                proof_kind=proof_kind,
            )
            market.register_external_deal(deal)
        elif behaviour == "outsourcing_far":
            backend = StorageProvider(network, "backend")
            backend.accept_blob(blob)
            provider.claim_outsourced(blob, "backend")
            deal = StorageDeal(
                deal_id="outsource-deal",
                consumer="consumer",
                provider_id="provider",
                commitment=Commitment(blob.merkle_root, len(blob.chunks)),
                size_bytes=blob.size_bytes,
                price_per_epoch=1.0,
                epochs_total=epochs,
                proof_kind=proof_kind,
            )
            market.register_external_deal(deal)
        else:
            deal = yield from market.make_deal(
                "consumer", blob, epochs=epochs, proof_kind=proof_kind,
                price_per_epoch=1.0,
            )
            if behaviour.startswith("drop_half"):
                provider.drop_chunks(
                    blob.merkle_root, 0.5, streams.stream("analysis.drop")
                )
        for _ in range(epochs):
            yield from market.run_epoch()
        return deal

    deal = sim.run_process(scenario(), until=1_000_000.0)
    return {
        "behaviour": behaviour,
        "audit": proof_kind,
        "epochs_paid": deal.epochs_paid,
        "earnings": round(market.provider_earnings("provider"), 4),
        "slashed": deal.state == DealState.FAILED,
    }


def run_proof_economics(
    seed: int = 1,
    epochs: int = 10,
    blob_chunks: int = 32,
    chunk_size: int = 512,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E7: provider earnings per (behaviour, audit scheme).

    Rows show that without audits cheating pays in full; with the matched
    proof system the cheat is detected and slashed.
    """
    runner = runner or SweepRunner()
    scenarios = [
        ("honest", ProofKind.STORAGE),
        ("drop_half_no_audits", ProofKind.NONE),
        ("drop_half", ProofKind.STORAGE),
        ("drop_half", ProofKind.RETRIEVABILITY),
        ("dedup_sybil", ProofKind.REPLICATION),
        ("outsourcing_far", ProofKind.RETRIEVABILITY),
    ]
    configs = [
        {
            "behaviour": behaviour,
            "proof_kind": proof_kind,
            "seed": seed,
            "epochs": epochs,
            "blob_chunks": blob_chunks,
            "chunk_size": chunk_size,
        }
        for behaviour, proof_kind in scenarios
    ]
    return runner.run("E7_proof_economics", _proof_economics_point, configs)


# ---------------------------------------------------------------------------
# E8 — webapp swarm availability vs popularity
# ---------------------------------------------------------------------------

def _swarm_point(
    offered_load: float,
    seed: int,
    mean_seed_time: float,
    horizon: float,
    author_leaves_at: float,
) -> Dict[str, object]:
    """One E8 grid point: one offered load on a fresh swarm."""
    arrival_rate = offered_load / mean_seed_time
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    tracker = Tracker(network)
    swarm = SiteSwarm(network, tracker)
    site = HostlessSite(f"e8-site-{seed}")
    site.write_file("index.html", b"<h1>swarm test</h1>")
    bundle = site.publish()
    address = bundle.manifest.site_address

    def bootstrap():
        yield from swarm.seed("author", bundle)
        yield author_leaves_at
        yield from swarm.stop_seeding("author", address)

    population = VisitorProcess(
        swarm, address, streams,
        arrival_rate=arrival_rate, mean_seed_time=mean_seed_time,
    )
    population.start()
    sim.spawn(bootstrap())
    sim.run(until=horizon)
    population.stop()
    return {
        "offered_load": offered_load,
        "arrivals": population.stats.arrivals,
        "availability": round(population.stats.availability, 3),
    }


def run_swarm_availability(
    seed: int = 1,
    offered_loads: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 8.0, 32.0),
    mean_seed_time: float = 60.0,
    horizon: float = 3000.0,
    author_leaves_at: float = 300.0,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E8: site availability vs offered load (arrival rate x seed time).

    Expected shape: availability ~0 well below load 1, crossing to ~1 as
    the swarm becomes self-sustaining above it.
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "offered_load": load,
            "seed": seed,
            "mean_seed_time": mean_seed_time,
            "horizon": horizon,
            "author_leaves_at": author_leaves_at,
        }
        for load in offered_loads
    ]
    return runner.run("E8_swarm_availability", _swarm_point, configs)


# ---------------------------------------------------------------------------
# E9 — infrastructure quality vs quantity
# ---------------------------------------------------------------------------

#: E9 infrastructure grades; grid configs name a grade, the point
#: function rebuilds its ChurnProfile (JSON-safe configs).
QUALITY_PROFILES = {
    "datacenter": ChurnProfile(mean_uptime=100_000.0, mean_downtime=60.0),
    "device": ChurnProfile(mean_uptime=600.0, mean_downtime=300.0),
}


def _quality_point(
    infrastructure: str,
    replication_factor: int,
    seed: int,
    n_providers: int,
    horizon: float,
    n_probes: int,
    blob_kib: int,
) -> Dict[str, object]:
    """One E9 grid point: one (infrastructure grade, replication factor)."""
    profile = QUALITY_PROFILES[infrastructure]
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    providers = [
        StorageProvider(network, f"p{i}") for i in range(n_providers)
    ]
    store = ReplicatedBlobStore(
        network, providers, streams,
        replication_factor=replication_factor, check_interval=30.0,
    )
    attach_churn(sim, streams, [p.node for p in providers], profile)
    blob = make_random_blob(streams, blob_kib * 1024, chunk_size=1024)
    rng = streams.stream("analysis.probe_times")
    outcome = {"ok": 0, "attempts": 0}

    def scenario():
        yield from store.store(blob)
        store.start_repair()
        for _ in range(n_probes):
            yield rng.uniform(horizon / (2 * n_probes),
                              horizon / n_probes)
            outcome["attempts"] += 1
            try:
                yield from store.retrieve(blob.merkle_root)
                outcome["ok"] += 1
            except StorageError:
                pass
        store.stop_repair()
        return True

    sim.run_process(scenario(), until=10 * horizon)
    return {
        "infrastructure": infrastructure,
        "replication_factor": replication_factor,
        "retrieval_availability": round(
            outcome["ok"] / max(1, outcome["attempts"]), 3
        ),
        "repair_bytes": store.repair_bytes(),
    }


def run_quality_vs_quantity(
    seed: int = 1,
    replication_factors: Sequence[int] = (1, 2, 3, 4),
    n_providers: int = 16,
    horizon: float = 4000.0,
    n_probes: int = 20,
    blob_kib: int = 4,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E9: same storage workload on datacenter-grade vs device-grade infra.

    For each (infrastructure grade, replication factor): retrieval success
    fraction over random probes plus repair traffic.  Expected shape:
    datacenter-grade is ~always available at R=1-2 with no repair; device-
    grade needs R>=3 and pays continuous repair bandwidth.
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "infrastructure": grade,
            "replication_factor": factor,
            "seed": seed,
            "n_providers": n_providers,
            "horizon": horizon,
            "n_probes": n_probes,
            "blob_kib": blob_kib,
        }
        for grade in QUALITY_PROFILES
        for factor in replication_factors
    ]
    return runner.run("E9_quality_vs_quantity", _quality_point, configs)


# ---------------------------------------------------------------------------
# E10 (extension) — abuse prevention across moderation regimes (§3.2)
# ---------------------------------------------------------------------------

def run_moderation_comparison(
    seed: int = 1,
    n_legitimate: int = 60,
    n_spam: int = 40,
) -> List[Dict[str, object]]:
    """Extension experiment: spam pass rate vs collateral censorship.

    One traffic mix is pushed through four moderation regimes: none (pure
    P2P), central keyword filtering, report-driven reputation, and a
    Mastodon-style per-instance federation where one instance is strict
    and one is lax.  The paper's tension — moderation vs freedom of
    expression — appears as spam-pass-rate vs collateral-block-rate.
    """
    from repro.groupcomm import (
        KeywordPolicy,
        Message,
        NoModeration,
        PerInstancePolicy,
        ReputationPolicy,
        evaluate_policies,
    )
    from repro.sim.rng import RngStreams as _Streams

    rng = _Streams(seed).stream("analysis.moderation")
    legit_topics = [
        "lunch plans for the team",
        "the new compiler release notes",
        "cheap pills discussion in my pharmacology class",  # tricky ham
        "weekend hiking photos",
        "federated systems reading group",
    ]
    traffic: List[Message] = []
    spam_ids = set()
    for i in range(n_legitimate):
        traffic.append(Message(
            author=f"user{i % 10}", room="town", sent_at=float(i),
            body=rng.choice(legit_topics), seq=i,
        ))
    for i in range(n_spam):
        message = Message(
            author="spammer", room="town", sent_at=float(n_legitimate + i),
            body=f"BUY cheap pills NOW offer #{i}", seq=n_legitimate + i,
        )
        traffic.append(message)
        spam_ids.add(message.msg_id)
    rng.shuffle(traffic)

    regimes = [
        ("none (pure P2P)", NoModeration(), 0),
        ("central keyword filter", KeywordPolicy(["cheap pills"]), 0),
        ("report-driven reputation", ReputationPolicy(report_threshold=3), 1),
        (
            "per-instance federation",
            PerInstancePolicy({
                "strict.social": KeywordPolicy(["cheap pills"]),
                "lax.social": NoModeration(),
            }),
            0,
        ),
    ]
    rows = []
    for label, policy, reporters in regimes:
        outcome = evaluate_policies(
            policy, traffic, spam_ids, reporters_per_spam=reporters
        )
        rows.append({
            "regime": label,
            "spam_pass_rate": round(outcome.spam_pass_rate, 3),
            "collateral_block_rate": round(outcome.collateral_rate, 3),
        })
    return rows


# ---------------------------------------------------------------------------
# E11 (extension) — the Usenet collapse: full-feed federation cost (§3.2)
# ---------------------------------------------------------------------------

def _usenet_point(
    community_size: int,
    seed: int,
    message_bytes: int,
    interest_fraction: float,
) -> Dict[str, object]:
    """One E11 grid point: one community size, both cost models."""
    from repro.gossip import build_pubsub_overlay
    from repro.net.topology import small_world

    n_users = community_size
    # --- federated flooding: everyone subscribes to everything ------
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.005))
    graph = small_world(n_users, k=6, rewire_prob=0.2, seed=seed, prefix="n")
    overlay = build_pubsub_overlay(network, graph)
    for node in overlay.values():
        node.subscribe("news")
    for i, name in enumerate(sorted(overlay)):
        overlay[name].publish("news", f"post-{i}", size_bytes=message_bytes)
    sim.run()
    total_bytes = sum(node.bytes_sent for node in network.nodes())
    per_node_flooding = total_bytes / n_users

    # --- centralized: users fetch only what interests them ------------
    interesting = max(1, int(interest_fraction * n_users))
    per_user_centralized = (
        message_bytes  # their own upload
        + interesting * message_bytes  # selective downloads
    )
    server_centralized = n_users * message_bytes * (1 + interest_fraction * n_users)

    return {
        "community_size": n_users,
        "per_node_bytes_federated": int(per_node_flooding),
        "per_user_bytes_centralized": per_user_centralized,
        "server_bytes_centralized": int(server_centralized),
    }


def run_usenet_collapse(
    seed: int = 1,
    community_sizes: Sequence[int] = (10, 20, 40, 80),
    message_bytes: int = 512,
    interest_fraction: float = 0.1,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Extension experiment: why Usenet 'collapsed under its own traffic'.

    Every member posts one message.  In the federated full-feed model
    (Usenet / flooding pub-sub) every node carries every message, so
    per-node bandwidth grows linearly with community size.  In the
    centralized model users fetch only the fraction they care about —
    per-user cost stays flat while the provider absorbs the linear load
    (the §2.1 'performance' advantage of central administration).
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "community_size": n_users,
            "seed": seed,
            "message_bytes": message_bytes,
            "interest_fraction": interest_fraction,
        }
        for n_users in community_sizes
    ]
    return runner.run("E11_usenet_collapse", _usenet_point, configs)


# ---------------------------------------------------------------------------
# E12 (extension) — the endless ledger problem (§3.1)
# ---------------------------------------------------------------------------

def _canonical_size(obj: object) -> int:
    from repro.crypto.hashing import _canonical

    return len(_canonical(obj))


def chain_size_bytes(chain) -> int:
    """Approximate serialized size of a chain's main branch."""
    total = 0
    for block in chain.main_chain():
        total += _canonical_size(block.header())
        for tx in block.transactions:
            total += _canonical_size(tx.body())
            if tx.signature is not None:
                total += _canonical_size(tx.signature.as_dict())
    return total


def run_endless_ledger(
    seed: int = 1,
    horizon: float = 3000.0,
    sample_every: float = 500.0,
    registration_interval: float = 30.0,
    name_lifetime_blocks: int = 20,
) -> List[Dict[str, object]]:
    """Extension experiment: the ledger grows forever; the name set doesn't.

    Names expire after ``name_lifetime_blocks`` (so live names plateau),
    but every registration lives in the chain's history forever — the
    'endless ledger problem' §3.1 lists among blockchain weaknesses.
    Rows sample (time, live_names, chain_bytes).
    """
    from repro.chain.ledger import LedgerRules

    sim = Simulator()
    streams = RngStreams(seed)
    users = [
        generate_keypair(f"el-user-{seed}-{i}")
        for i in range(int(horizon / registration_interval) + 2)
    ]
    chain_net = BlockchainNetwork(
        sim,
        streams,
        params=FAST_CHAIN,
        propagation_delay=0.2,
        rules=LedgerRules(name_lifetime_blocks=name_lifetime_blocks),
        premine={u.public_key: 10.0 for u in users},
    )
    chain_net.add_participant("m", hashrate=10.0)
    chain_net.start()

    def submitter():
        for i, user in enumerate(users):
            tx = make_transaction(
                user, TxKind.NAME_REGISTER,
                {"name": f"name-{i}", "value": i}, 0, fee=0.01,
            )
            chain_net.submit_transaction(tx)
            yield registration_interval

    sim.spawn(submitter())
    rows = []
    t = sample_every
    while t <= horizon:
        sim.run(until=t)
        chain = chain_net.participant("m").chain
        state = chain.state_at()
        live = sum(
            1 for name in state.names
            if state.live_name(name, chain.height) is not None
        )
        rows.append(
            {
                "time_s": t,
                "live_names": live,
                "total_registrations": len(state.names),
                "chain_bytes": chain_size_bytes(chain),
            }
        )
        t += sample_every
    return rows


# ---------------------------------------------------------------------------
# E13 (extension) — selfish-mining profitability (§5.1)
# ---------------------------------------------------------------------------

def run_selfish_mining(seed: int = 1) -> List[Dict[str, object]]:
    """Extension experiment: Eyal-Sirer selfish-mining revenue share.

    One row per attacker hashrate share ``alpha`` (0.10-0.45): the
    attacker's revenue share over 300,000 blocks at each ``gamma`` (the
    fraction of honest miners that build on the attacker's branch during
    a race; 0, 0.5, 1), beside the ``alpha`` an honest miner earns.
    Selfish mining pays above alpha = 1/3 at gamma = 0 and at every
    alpha when gamma = 1.
    """
    rows = []
    for alpha in (0.10, 0.20, 0.30, 0.35, 0.40, 0.45):
        row: Dict[str, object] = {"alpha": alpha}
        for gamma in (0.0, 0.5, 1.0):
            revenue = selfish_mining_revenue(
                alpha, gamma=gamma, blocks=300_000, seed=seed
            )
            row[f"revenue(gamma={gamma})"] = round(revenue, 4)
        row["honest_revenue"] = alpha
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E14 (extension) — re-feudalization under economies of scale (§5.3)
# ---------------------------------------------------------------------------

def run_refeudalization(seed: int = 1) -> List[Dict[str, object]]:
    """Extension experiment: does a democratized market re-centralize?

    §5.3: "centralization is frequently driven by economies of scale".
    A 20-provider market runs 300 rounds once per scale advantage (0,
    0.1, 0.25); each row reports the survivors, the Herfindahl index and
    the top provider's share at the end.  With flat costs the market
    stays fragmented; with scale economies most providers exit.
    """
    from repro.core.economics import MarketParams, ProviderMarket

    rows = []
    for scale_advantage in (0.0, 0.1, 0.25):
        market = ProviderMarket(
            20, MarketParams(scale_advantage=scale_advantage),
            RngStreams(seed),
        )
        final = market.run(300)[-1]
        rows.append({
            "scale_advantage": scale_advantage,
            "providers_surviving": final["providers_alive"],
            "hhi": round(final["hhi"], 3),
            "top_provider_share": round(final["top_share"], 3),
        })
    return rows
