"""Chaos scenarios: experiment-shaped workloads run under a fault plan.

Each ``run_chaos_*`` function rebuilds a small, fast variant of one of
the paper's experiments, arms a :class:`~repro.faults.FaultInjector`
with the caller's plan, sweeps an :class:`~repro.faults.InvariantHarness`
throughout, and returns one JSON-friendly result dict:

``experiment`` / ``plan`` / ``seed`` / ``horizon`` — run identity;
``result`` — the scenario's own measurements (availability, latency,
repair bytes, ...); ``flow`` — the transport conservation snapshot;
``faults`` — injected/healed counts; ``invariants`` + ``violations`` —
what the harness checked and what failed.

The scenarios' node naming is the contract the presets in
:mod:`repro.faults.presets` target: ``srv<i>`` (E4 federation servers),
``dev<ii>`` (E5 devices), ``client0``/``ca`` (E6), ``prov<i>`` (E9
providers), ``ca``/``hub1``/``hub2`` + ``client0``/``dev<ii>`` (E4P
partial-federation hubs and users, so the E6 and E5 presets apply to it
unchanged).  The censor scenarios (``E4C``/``E5C``/``E9C``) share one
cast built from a region-labelled :func:`~repro.net.topology.isp_tree`
— inside nodes ``isp0``/``isp2`` + their users (the ``cn`` region),
outside services ``svc0``/``svc1``, and volunteer relays
``relay0``–``relay3`` — so the ``border-*`` presets apply to all three.

Everything is deterministic in (plan, seed): all randomness flows
through :class:`~repro.sim.rng.RngStreams`, and observation hooks are
adopted from any enclosing :func:`repro.obs.observe` block, so the CLI
gets full traces without the scenarios knowing about it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.crypto.keys import generate_keypair
from repro.errors import (
    FaultError,
    NameTakenError,
    RpcTimeoutError,
    StorageError,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantContext,
    InvariantHarness,
    eventually,
    message_conservation,
    monotonic,
    no_double_resume,
    read_your_writes,
)
from repro.faults.plan import FaultPlan
from repro.gossip.relay import CircumventionClient, RelayNode
from repro.groupcomm.federated import ReplicatedFederation
from repro.groupcomm.partial import PartialFederation
from repro.naming.centralized_pki import CentralizedPKI
from repro.net.churn import ChurnProcess, ChurnProfile, attach_churn
from repro.net.node import NodeClass
from repro.net.topology import isp_tree, nodes_in_region
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.storage.blob import DataBlob
from repro.storage.provider import StorageProvider
from repro.storage.replication import ReplicatedBlobStore

__all__ = [
    "SCENARIOS",
    "run_chaos",
    "run_chaos_e4",
    "run_chaos_e4c",
    "run_chaos_e4p",
    "run_chaos_e5",
    "run_chaos_e5c",
    "run_chaos_e6",
    "run_chaos_e9",
    "run_chaos_e9c",
]


def _assemble(
    experiment: str,
    plan: FaultPlan,
    seed: int,
    sim: Simulator,
    network: Network,
    injector: FaultInjector,
    harness: InvariantHarness,
    result: Dict[str, Any],
) -> Dict[str, Any]:
    """Close the harness and build the common result envelope."""
    violations = harness.finish()
    return {
        "experiment": experiment,
        "plan": plan.name,
        "seed": seed,
        "horizon": sim.now,
        "result": result,
        "flow": network.flow_snapshot(),
        "faults": {"injected": injector.injected, "healed": injector.healed},
        "invariants": {
            "registered": len(harness.invariants),
            "checks_run": harness.checks_run,
            "violated": len(violations),
        },
        "violations": [
            {
                "name": v.name,
                "message": v.message,
                "at": v.at,
                "details": v.details,
            }
            for v in violations
        ],
    }


# -- E4: replicated federation availability under server kills -----------


def run_chaos_e4(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E4 variant: 4-server replicated federation, 12 users, failover on.

    One user posts six messages early; at t=400 every user fetches the
    room (failing over from dead home servers).  Availability is the
    fraction of users whose fetch returns the full room.
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    servers = [f"srv{i}" for i in range(4)]
    fed = ReplicatedFederation(
        network, servers, streams, gossip_interval=2.0, allow_failover=True
    )
    users = [f"user{i:02d}" for i in range(12)]
    for user in users:
        fed.add_user(user)  # round-robin homes: user00->srv0, ...
    fed.create_room("room", users)
    fed.start_replication()

    posted: List[str] = []
    post_times: Dict[str, float] = {}
    reads = {"ok": 0, "failed": 0}

    def poster() -> Generator:
        yield 10.0
        for i in range(6):
            msg_id = yield from fed.post("user02", "room", f"msg-{i}")
            posted.append(msg_id)
            post_times[msg_id] = sim.now
            yield 5.0

    def reader(user: str) -> Generator:
        try:
            messages = yield from fed.fetch(user, "room")
        except RpcTimeoutError:
            reads["failed"] += 1
            return
        if len(messages) == len(posted):
            reads["ok"] += 1
        else:
            reads["failed"] += 1

    def start_readers() -> None:
        for user in users:
            sim.spawn(reader(user), name=f"reader-{user}")

    sim.spawn(poster(), name="poster")
    sim.schedule_at(400.0, start_readers)

    def replicas_probe(ctx: InvariantContext):
        # After heal (+grace), every *online* server's anti-entropy
        # replica must hold every posted message old enough for gossip
        # to have propagated (5 rounds of the 2 s interval).
        settled = [m for m in posted if ctx.now >= post_times[m] + 10.0]
        for server_id in servers:
            if not network.node(server_id).online:
                continue
            store = fed.replicas[server_id].store
            keys = set(store.keys())
            missing = [m for m in settled if f"room/{m}" not in keys]
            if missing:
                return (
                    f"{server_id} missing {len(missing)} posted message(s)",
                    {"server": server_id, "missing": len(missing)},
                )
        return None

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    harness.add(read_your_writes(replicas_probe, grace=30.0))
    injector.arm()
    harness.start()
    sim.run(until=600.0)

    total = reads["ok"] + reads["failed"]
    result = {
        "posted": len(posted),
        "reads_ok": reads["ok"],
        "reads_failed": reads["failed"],
        "availability": reads["ok"] / total if total else 0.0,
    }
    return _assemble("E4", plan, seed, sim, network, injector, harness, result)


# -- E4P: partial federation diverging and re-converging under faults ----


def run_chaos_e4p(
    plan: FaultPlan, seed: int, interval: float = 5.0,
    strategy: str = "lww",
) -> Dict[str, Any]:
    """E4P variant: 3 trust-gated hubs whose room state diverges and must
    re-converge under the chosen :class:`ConflictStrategy`.

    Hubs ``ca``/``hub1``/``hub2`` federate fully; users ``client0`` and
    ``dev00``–``dev04`` share the public room "town".  ``client0`` posts
    messages (retrying through faults) while ``dev00`` and ``dev01`` —
    homed on different hubs — rewrite the room topic on competing
    schedules until t=150, manufacturing divergence under any partition
    the plan opens.  An operator process drains manual conflict queues
    every 20 s, so the ``manual`` strategy converges too.  The
    ``replicas_converge`` invariant requires zero divergence and empty
    conflict queues from t=380 onward; ``read_your_writes`` requires all
    online hubs to agree once faults are quiet, writes have settled, and
    the heal grace has passed.
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    hubs = ["ca", "hub1", "hub2"]
    fed = PartialFederation(
        network, hubs, streams, gossip_interval=2.0,
        conflict_strategy=strategy,
    )
    # Federation-wide reputations: ca is the venerable anchor, hub2 the
    # freshly-spun-up (possibly Sybil) instance.
    fed.set_reputation("ca", 0.9)
    fed.set_reputation("hub1", 0.7)
    fed.set_reputation("hub2", 0.2)
    homes = {
        "client0": "ca", "dev00": "hub1", "dev01": "hub2",
        "dev02": "ca", "dev03": "hub1", "dev04": "hub2",
    }
    for user in sorted(homes):
        fed.add_user(user, homes[user])
    users = sorted(homes)
    fed.create_room("town", users, public=True)
    fed.start_federation()

    posted: List[str] = []
    last_write = {"t": 0.0}
    topic_writes = {"count": 0}
    reads = {"ok": 0, "failed": 0}

    def poster() -> Generator:
        yield 10.0
        for i in range(6):
            while True:
                try:
                    msg_id = yield from fed.post(
                        "client0", "town", f"msg-{i}"
                    )
                except RpcTimeoutError:
                    yield 5.0
                    continue
                break
            posted.append(msg_id)
            last_write["t"] = sim.now
            yield 8.0

    def topic_writer(user: str, phase: float, label: str) -> Generator:
        yield phase
        while sim.now < 150.0:
            try:
                yield from fed.set_room_state(
                    user, "town", "topic", f"{label}-{sim.now:.0f}"
                )
                topic_writes["count"] += 1
                last_write["t"] = sim.now
            except RpcTimeoutError:
                pass
            yield 25.0

    def operator() -> Generator:
        while True:
            yield 20.0
            if fed.resolve_manual_queues():
                last_write["t"] = sim.now

    def reader(user: str) -> Generator:
        try:
            messages = yield from fed.fetch(user, "town")
        except RpcTimeoutError:
            reads["failed"] += 1
            return
        if len(messages) == len(posted):
            reads["ok"] += 1
        else:
            reads["failed"] += 1

    def start_readers() -> None:
        for user in users:
            sim.spawn(reader(user), name=f"reader-{user}")

    sim.spawn(poster(), name="poster")
    sim.spawn(topic_writer("dev00", 15.0, "north"), name="topic-dev00")
    sim.spawn(topic_writer("dev01", 27.0, "south"), name="topic-dev01")
    sim.spawn(operator(), name="conflict-operator")
    sim.schedule_at(390.0, start_readers)

    def agreement_probe(ctx: InvariantContext) -> Any:
        # Writes need time to gossip (and, under `manual`, an operator
        # pass) before agreement is a fair demand.
        if ctx.now < last_write["t"] + 60.0:
            return None
        divergent = fed.divergence(online_only=True)
        if divergent:
            return (
                f"{len(divergent)} divergent key(s) among online hubs",
                {"keys": sorted(divergent)},
            )
        return None

    def converged() -> bool:
        if fed.divergence():
            return False
        return not any(
            fed.pending_conflicts(server_id) for server_id in hubs
        )

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    harness.add(read_your_writes(agreement_probe, grace=60.0))
    harness.add(eventually(
        "replicas_converge", deadline=380.0,
        predicate=lambda ctx: converged(),
    ))
    injector.arm()
    harness.start()
    sim.run(until=420.0)

    total = reads["ok"] + reads["failed"]
    queued = sum(len(fed.pending_conflicts(s)) for s in hubs)
    result = {
        "strategy": fed.strategy.name,
        "posted": len(posted),
        "topic_writes": topic_writes["count"],
        "reads_ok": reads["ok"],
        "reads_failed": reads["failed"],
        "availability": reads["ok"] / total if total else 0.0,
        "divergent_keys": len(fed.divergence()),
        "conflicts_pending": queued,
        "final_topic": (
            fed.hubs["ca"].store.get("state/town/topic") or {}
        ).get("value"),
    }
    return _assemble(
        "E4P", plan, seed, sim, network, injector, harness, result
    )


# -- E5: device fleet pinging a datacenter through a churn storm ---------


def run_chaos_e5(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E5 variant: 16 churning devices ping a datacenter every 10 s.

    The measurement is the ping success rate — the §5.2 social cost of
    device-grade infrastructure, degraded further by whatever the plan
    throws at the transport.
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    dc = network.create_node("dc", node_class=NodeClass.DATACENTER)
    dc.register_handler("ping", lambda node, payload, sender: "pong")
    devices = [
        network.create_node(f"dev{i:02d}", node_class=NodeClass.SMARTPHONE)
        for i in range(16)
    ]
    profile = ChurnProfile(mean_uptime=300.0, mean_downtime=100.0,
                           name="e5-device")
    churn_processes = attach_churn(sim, streams, devices, profile)
    churn: Dict[str, ChurnProcess] = {
        p.node.node_id: p for p in churn_processes
    }

    pings = {"attempts": 0, "ok": 0}

    def pinger(device_id: str) -> Generator:
        while True:
            yield 10.0
            if not network.node(device_id).online:
                continue  # an offline device does not originate traffic
            pings["attempts"] += 1
            try:
                yield from network.rpc(
                    device_id, "dc", "ping", None, timeout=5.0, retries=1
                )
            except RpcTimeoutError:
                continue
            pings["ok"] += 1

    for device in devices:
        sim.spawn(pinger(device.node_id), name=f"pinger-{device.node_id}")

    injector = FaultInjector(sim, network, plan, streams, churn=churn)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    injector.arm()
    harness.start()
    sim.run(until=400.0)

    result = {
        "ping_attempts": pings["attempts"],
        "ping_ok": pings["ok"],
        "ping_success_rate": (
            pings["ok"] / pings["attempts"] if pings["attempts"] else 0.0
        ),
    }
    return _assemble("E5", plan, seed, sim, network, injector, harness, result)


# -- E6: name registration while partitioned from the CA -----------------


def run_chaos_e6(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E6 variant: a client registers a name, retrying through faults.

    The client starts at t=10 and re-issues the registration on every
    timeout; the measurement is end-to-end registration latency.  The
    liveness invariant requires completion by t=150, which the
    ``registration-partition-noheal`` mutation plan must violate.
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    pki = CentralizedPKI(network)  # creates the "ca" node
    network.create_node("client0", node_class=NodeClass.PERSONAL_COMPUTER)
    keypair = generate_keypair("client0-key")

    outcome: Dict[str, Any] = {"registered": False, "attempts": 0,
                               "latency": None}

    def registrar() -> Generator:
        yield 10.0
        start = sim.now
        while True:
            outcome["attempts"] += 1
            try:
                yield from pki.register(
                    keypair, "alice", {"host": "client0"}, client="client0"
                )
            except RpcTimeoutError:
                continue
            except NameTakenError:
                pass  # an earlier attempt landed after all
            outcome["registered"] = True
            outcome["latency"] = sim.now - start
            return

    sim.spawn(registrar(), name="registrar")

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    harness.add(monotonic(
        "names_registered_monotonic",
        lambda ctx: float(pki.names_registered),
    ))
    harness.add(eventually(
        "registration_completes", deadline=150.0,
        predicate=lambda ctx: outcome["registered"],
    ))
    injector.arm()
    harness.start()
    sim.run(until=200.0)

    result = dict(outcome)
    return _assemble("E6", plan, seed, sim, network, injector, harness, result)


# -- E9: replicated blob storage across flapping devices -----------------


def run_chaos_e9(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E9 variant: a 3-way replicated blob on 8 device-grade providers.

    A repair loop re-replicates every 20 s; a prober retrieves the blob
    every 25 s.  Measurements: retrieval availability and total repair
    traffic (the §5.2 redundancy bandwidth cost).
    """
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    providers = [
        StorageProvider(network, f"prov{i}", node_class=NodeClass.SMARTPHONE)
        for i in range(8)
    ]
    store = ReplicatedBlobStore(
        network, providers, streams, replication_factor=3, check_interval=20.0
    )
    blob = DataBlob.from_bytes(b"\xa5" * 4096, chunk_size=1024)
    probes = {"attempts": 0, "ok": 0}

    def setup() -> Generator:
        yield from store.store(blob)
        store.start_repair()

    def prober() -> Generator:
        yield 30.0
        while True:
            probes["attempts"] += 1
            try:
                yield from store.retrieve(blob.merkle_root)
            except StorageError:
                pass
            else:
                probes["ok"] += 1
            yield 25.0

    sim.spawn(setup(), name="blob-setup")
    sim.spawn(prober(), name="blob-prober")

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    harness.add(monotonic(
        "repair_bytes_monotonic",
        lambda ctx: float(store.repair_bytes()),
    ))
    injector.arm()
    harness.start()
    sim.run(until=300.0)

    result = {
        "repair_bytes": store.repair_bytes(),
        "probe_attempts": probes["attempts"],
        "probe_ok": probes["ok"],
        "availability": (
            probes["ok"] / probes["attempts"] if probes["attempts"] else 0.0
        ),
    }
    return _assemble("E9", plan, seed, sim, network, injector, harness, result)


# -- E4C/E5C/E9C: censorship campaigns over a labelled border ------------
#
# One shared cast (so every border-* preset validates against all
# three): a region-labelled isp_tree supplies the censored country
# (region "cn" -> isp0/isp2 and their users), svc0/svc1 are the outside
# services the campaigns blocklist, and relay0-relay3 are outside
# volunteers.  Inside users run CircumventionClients that start with no
# relay knowledge and learn addresses from relay.announce gossip — the
# announcements cross the border carrying the relay fingerprint, so
# probing campaigns detect relays even before they carry traffic.


def _censor_fabric(
    seed: int,
) -> Tuple[Simulator, RngStreams, Network, List[str], List[CircumventionClient]]:
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams)
    graph, region_of = isp_tree(4, 2, regions=("cn", "intl"))
    for node_id in sorted(graph):
        network.create_node(
            node_id,
            node_class=(
                NodeClass.DATACENTER if node_id.startswith("isp")
                else NodeClass.PERSONAL_COMPUTER
            ),
        )
    inside = nodes_in_region(region_of, "cn")
    for service in ("svc0", "svc1"):
        network.create_node(service, node_class=NodeClass.DATACENTER)
    relays = []
    for i in range(4):
        network.create_node(f"relay{i}",
                            node_class=NodeClass.PERSONAL_COMPUTER)
        relays.append(RelayNode(network, f"relay{i}"))
    clients = [
        CircumventionClient(network, user)
        for user in inside if user.startswith("user")
    ]

    def announcer(relay: RelayNode, phase: float) -> Generator:
        yield phase
        while True:
            relay.announce([c.node.node_id for c in clients])
            yield 30.0

    for i, relay in enumerate(relays):
        sim.spawn(announcer(relay, 20.0 + 2.0 * i),
                  name=f"announce-{relay.node.node_id}")
    return sim, streams, network, inside, clients


def _censor_result(
    injector: FaultInjector,
    attempts: List[Tuple[float, bool]],
    horizon: float,
    bucket: float = 100.0,
) -> Dict[str, Any]:
    """The shared censor measurements: reachability over time,
    time-to-reblock, and the censor's cost model."""
    ok = sum(1 for _, success in attempts if success)
    timeline = []
    edge = 0.0
    while edge < horizon:
        window = [s for t, s in attempts if edge <= t < edge + bucket]
        timeline.append({
            "t": edge,
            "attempts": len(window),
            "ok": sum(window),
        })
        edge += bucket
    return {
        "attempts": len(attempts),
        "ok": ok,
        "reachability": ok / len(attempts) if attempts else 0.0,
        "timeline": timeline,
        "relays_detected": len(injector.detection_log),
        "relays_reblocked": injector.relays_reblocked,
        "first_detection_at": (
            injector.detection_log[0][0] if injector.detection_log else None
        ),
        "first_reblock_at": (
            injector.reblock_log[0][0] if injector.reblock_log else None
        ),
        "censor_cost": injector.censor_cost(),
    }


def _run_censor_scenario(
    experiment: str,
    plan: FaultPlan,
    seed: int,
    interval: float,
    attempt_factory: Callable[
        [Network, CircumventionClient, List[Tuple[float, bool]]],
        Callable[[], Generator],
    ],
    period: float,
    horizon: float = 400.0,
) -> Dict[str, Any]:
    """Common driver: every inside user runs ``attempt_factory``'s
    probe loop against the blocked services while the plan's campaigns
    come and go."""
    sim, streams, network, inside, clients = _censor_fabric(seed)
    attempts: List[Tuple[float, bool]] = []

    def prober(client: CircumventionClient, phase: float) -> Generator:
        attempt = attempt_factory(network, client, attempts)
        yield phase
        while True:
            yield from attempt()
            yield period

    for i, client in enumerate(clients):
        sim.spawn(prober(client, 10.0 + 1.0 * i),
                  name=f"prober-{client.node.node_id}")

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=interval)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    injector.arm()
    harness.start()
    sim.run(until=horizon)

    result = _censor_result(injector, attempts, horizon)
    return _assemble(
        experiment, plan, seed, sim, network, injector, harness, result
    )


def run_chaos_e4c(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E4C: group-feed reads from a blocked outside service.

    ``svc0`` hosts a message feed that grows until t=200; inside users
    fetch it every 20 s through their circumvention clients.  An attempt
    succeeds only if the full feed (as of fetch time) comes back —
    the E4 availability question asked across a censored border.
    """
    feed: List[str] = []

    def attempt_factory(
        network: Network,
        client: CircumventionClient,
        attempts: List[Tuple[float, bool]],
    ) -> Callable[[], Generator]:
        if not network.node("svc0").has_handler("feed.fetch"):
            network.node("svc0").register_handler(
                "feed.fetch", lambda node, payload, sender: list(feed)
            )

            def poster() -> Generator:
                yield 5.0
                while network.sim.now < 200.0:
                    feed.append(f"msg-{len(feed)}")
                    yield 15.0

            network.sim.spawn(poster(), name="feed-poster")

        def attempt() -> Generator:
            expected = len(feed)
            try:
                messages = yield from client.request("svc0", "feed.fetch")
            except RpcTimeoutError:
                attempts.append((network.sim.now, False))
                return
            attempts.append((network.sim.now, len(messages) >= expected))
        return attempt

    report = _run_censor_scenario(
        "E4C", plan, seed, interval, attempt_factory, period=20.0
    )
    report["result"]["posted"] = len(feed)
    return report


def run_chaos_e5c(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E5C: liveness pings to a blocked outside service.

    The E5 question — can a device reach the service at all — asked
    across a censored border: inside users ping ``svc0`` every 10 s via
    their circumvention clients.
    """

    def attempt_factory(
        network: Network,
        client: CircumventionClient,
        attempts: List[Tuple[float, bool]],
    ) -> Callable[[], Generator]:
        if not network.node("svc0").has_handler("ping"):
            network.node("svc0").register_handler(
                "ping", lambda node, payload, sender: "pong"
            )

        def attempt() -> Generator:
            try:
                yield from client.request("svc0", "ping")
            except RpcTimeoutError:
                attempts.append((network.sim.now, False))
                return
            attempts.append((network.sim.now, True))
        return attempt

    return _run_censor_scenario(
        "E5C", plan, seed, interval, attempt_factory, period=10.0
    )


def run_chaos_e9c(
    plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """E9C: chunked blob retrieval from a blocked outside service.

    ``svc0`` serves a 4-chunk blob; every 30 s each inside user pulls
    all four chunks through its circumvention client.  An attempt
    succeeds only if every chunk arrives — partial retrievals count as
    failures, so mid-fetch re-blocking (a relay dying between chunk 2
    and 3) is visible in the reachability curve.
    """
    chunks = [bytes([0xA0 + i]) * 256 for i in range(4)]

    def attempt_factory(
        network: Network,
        client: CircumventionClient,
        attempts: List[Tuple[float, bool]],
    ) -> Callable[[], Generator]:
        if not network.node("svc0").has_handler("blob.chunk"):
            network.node("svc0").register_handler(
                "blob.chunk",
                lambda node, payload, sender: chunks[int(payload)],
            )

        def attempt() -> Generator:
            got = 0
            for index in range(len(chunks)):
                try:
                    data = yield from client.request(
                        "svc0", "blob.chunk", index
                    )
                except RpcTimeoutError:
                    break
                if data == chunks[index]:
                    got += 1
            attempts.append((network.sim.now, got == len(chunks)))
        return attempt

    return _run_censor_scenario(
        "E9C", plan, seed, interval, attempt_factory, period=30.0
    )


#: Experiment key -> chaos scenario runner.
SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "E4": run_chaos_e4,
    "E4C": run_chaos_e4c,
    "E4P": run_chaos_e4p,
    "E5": run_chaos_e5,
    "E5C": run_chaos_e5c,
    "E6": run_chaos_e6,
    "E9": run_chaos_e9,
    "E9C": run_chaos_e9c,
}


def run_chaos(
    experiment: str, plan: FaultPlan, seed: int, interval: float = 5.0
) -> Dict[str, Any]:
    """Dispatch to a chaos scenario by experiment key (``E4``/``E5``/...)."""
    runner = SCENARIOS.get(experiment)
    if runner is None:
        raise FaultError(
            f"no chaos scenario for {experiment!r}; available:"
            f" {', '.join(sorted(SCENARIOS))}"
        )
    return runner(plan, seed, interval=interval)
