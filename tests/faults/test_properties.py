"""Property-based chaos testing: random bounded fault plans.

Hypothesis generates small-but-adversarial ``FaultPlan``s (overlapping
windows, unhealed partitions, crashes with and without restarts) and we
assert the two safety invariants every scenario in this repo relies on:

* **message conservation** — every sent message is delivered, dropped,
  or still in flight; nothing is double-counted or lost by the
  accounting itself, no matter which faults fire.
* **no double resume** — no combination of crash/heal/window events
  causes a process to be resumed twice (``sim.stale_resumes == 0``).
* **metrics equal the ledger** — the ``net.messages_*`` counters agree
  with the flow ledger for one-way and RPC legs alike, the drop reasons
  sum to the drops, and ``net.bytes_sent`` to the nodes' own tallies.

plus the reproducibility contract: the same ``(plan, seed)`` pair must
produce a byte-identical trace.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, RemoteError, RpcTimeoutError
from repro.faults import (
    Corrupt,
    Crash,
    DropBurst,
    FaultInjector,
    FaultPlan,
    InvariantHarness,
    LatencySpike,
    Partition,
    message_conservation,
    no_double_resume,
)
from repro.net import ConstantLatency, Network
from repro.obs import Metrics, Tracer, observe
from repro.sim import RngStreams, Simulator

HORIZON = 100.0
NODES = ("n0", "n1", "n2", "n3")

# Keep CI runs bounded; run the full budget locally.  Applied per-test
# (not via load_profile, which would leak into other modules' defaults).
_MAX_EXAMPLES = 40 if os.environ.get("CI") else 200

chaos_settings = settings(
    max_examples=_MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------
# Strategies: bounded fault plans over the fixed 4-node topology.
# --------------------------------------------------------------------------

def times():
    return st.floats(min_value=1.0, max_value=HORIZON - 10.0,
                     allow_nan=False, allow_infinity=False)


def windows():
    return st.tuples(times(), times()).map(sorted).filter(
        lambda w: w[1] > w[0] + 0.5
    ).map(tuple)


def probs():
    return st.floats(min_value=0.05, max_value=0.95,
                     allow_nan=False, allow_infinity=False)


node_ids = st.sampled_from(NODES)


@st.composite
def partitions(draw):
    at = draw(times())
    heal = draw(st.one_of(
        st.none(),
        st.floats(min_value=at + 1.0, max_value=HORIZON,
                  allow_nan=False, allow_infinity=False),
    ))
    cut = draw(st.integers(min_value=1, max_value=len(NODES) - 1))
    return Partition((NODES[:cut], NODES[cut:]), at=at, heal_at=heal)


@st.composite
def crashes(draw):
    at = draw(times())
    restart = draw(st.one_of(
        st.none(),
        st.floats(min_value=at + 1.0, max_value=HORIZON,
                  allow_nan=False, allow_infinity=False),
    ))
    return Crash(draw(node_ids), at=at, restart_at=restart)


def drop_bursts():
    return st.builds(DropBurst, window=windows(), prob=probs())


def corrupts():
    return st.builds(Corrupt, window=windows(), prob=probs())


def latency_spikes():
    return st.builds(
        LatencySpike, window=windows(),
        factor=st.floats(min_value=1.1, max_value=10.0,
                         allow_nan=False, allow_infinity=False),
    )


def fault_plans():
    event = st.one_of(partitions(), crashes(), drop_bursts(),
                      corrupts(), latency_spikes())
    return st.lists(event, min_size=0, max_size=6).map(
        lambda evs: FaultPlan(evs, name="prop")
    )


# --------------------------------------------------------------------------
# A small generic workload: every node pings every other node on a
# staggered clock for the whole horizon, and calls the others in turn
# through a plain, a generator and a failing handler, some calls with a
# retry.
# --------------------------------------------------------------------------

def _echo(node, payload, sender):
    return payload


def _slow_echo(node, payload, sender):
    yield 0.3
    return payload


def _refuse(node, payload, sender):
    raise NetworkError("refused")


RPC_HANDLERS = (("echo", _echo), ("slow", _slow_echo), ("refuse", _refuse))


def _rpc_client(sim, network, index):
    src = NODES[index]
    yield 0.4 * index
    call = 0
    while sim.now < HORIZON - 10.0:
        dst = NODES[(index + 1 + call % 3) % len(NODES)]
        method = RPC_HANDLERS[call % len(RPC_HANDLERS)][0]
        try:
            yield from network.rpc(src, dst, method, call, timeout=2.0,
                                   retries=call % 2)
        except (RemoteError, RpcTimeoutError):
            pass
        yield 1.5
        call += 1


def run_workload(plan, seed, tracer=None, metrics=None):
    with observe(tracer=tracer, metrics=metrics):
        return _run_workload(plan, seed)


def _run_workload(plan, seed):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.05),
                      loss_rate=0.05)
    for node_id in NODES:
        node = network.create_node(node_id)
        node.register_handler("ping", lambda n, payload, sender: None)
        for method, handler in RPC_HANDLERS:
            node.register_handler(method, handler)

    for i, src in enumerate(NODES):
        for j, dst in enumerate(NODES):
            if src == dst:
                continue
            t = 1.0 + 0.7 * i + 0.3 * j
            while t < HORIZON - 5.0:
                sim.schedule_at(t, network.send, src, dst, "ping", t)
                t += 4.0
        sim.spawn(_rpc_client(sim, network, i), name=f"client.{src}")

    injector = FaultInjector(sim, network, plan, streams)
    harness = InvariantHarness(sim, network, injector, interval=5.0)
    harness.add(message_conservation())
    harness.add(no_double_resume())
    injector.arm()
    harness.start()
    # Slack so in-flight messages settle.  Overlapping LatencySpike factors
    # multiply (documented in repro.faults.injector), so the settle window
    # must scale with the worst-case stacked amplification of the base
    # 0.05s link latency — a fixed constant strands amplified messages.
    amplification = 1.0
    for event in plan.events:
        if isinstance(event, LatencySpike):
            amplification *= event.factor
    sim.run(until=HORIZON + 60.0 + 0.05 * amplification)
    return sim, network, harness.finish()


@chaos_settings
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**20))
def test_invariants_hold_under_random_faults(plan, seed):
    metrics = Metrics()
    sim, network, violations = run_workload(plan, seed, metrics=metrics)
    assert violations == []
    flow = network.flow_snapshot()
    assert flow["in_flight"] == 0
    assert flow["delivered"] + flow["dropped"] == flow["sent"]
    assert sim.stale_resumes == 0
    counters = metrics.snapshot()["counters"]
    for outcome in ("sent", "delivered", "dropped"):
        assert counters.get(f"net.messages_{outcome}", 0) == flow[outcome]
    assert counters.get("net.messages_dropped", 0) == sum(
        count for name, count in counters.items()
        if name.startswith("net.messages_dropped."))
    assert counters.get("net.bytes_sent", 0) == sum(
        node.bytes_sent for node in network.nodes())


@chaos_settings
@given(plan=fault_plans())
def test_invariants_hold_across_seeds(plan):
    for seed in (1, 2, 3):
        _, _, violations = run_workload(plan, seed)
        assert violations == []


@settings(parent=chaos_settings, max_examples=max(10, _MAX_EXAMPLES // 4))
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**20))
def test_same_plan_and_seed_reproduce_identical_traces(plan, seed):
    traces = []
    for _ in range(2):
        tracer = Tracer()
        run_workload(plan, seed, tracer=tracer)
        traces.append(tracer.to_jsonl())
    assert traces[0] == traces[1]


@chaos_settings
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_quiet_plan_is_fault_free(seed):
    """The empty plan injects nothing and heals nothing."""
    tracer = Tracer()
    run_workload(FaultPlan([], name="quiet"), seed, tracer=tracer)
    assert tracer.count("fault_injected") == 0
    assert tracer.count("fault_healed") == 0


# --------------------------------------------------------------------------
# Overlapping-window composition: the PR-10 heal-guard property.
# --------------------------------------------------------------------------

@st.composite
def overlapping_plans(draw):
    """Plans built to collide: every window edge is drawn from a pool of
    four instants, so identical and overlapping Partition/DropBurst
    windows — including events equal in every field — are the common
    case, not a rare one.  Exactly the shape that used to double-heal."""
    pool = sorted(draw(st.lists(
        st.sampled_from([10.0, 20.0, 30.0, 40.0, 55.0, 70.0]),
        min_size=4, max_size=4, unique=True,
    )))
    groups = (NODES[:2], NODES[2:])

    def window_events(count):
        events = []
        for _ in range(count):
            at = draw(st.sampled_from(pool[:-1]))
            heal = draw(st.one_of(st.none(), st.sampled_from(
                [t for t in pool if t > at]
            )))
            if draw(st.booleans()):
                events.append(Partition(groups, at=at, heal_at=heal))
            else:
                end = heal if heal is not None else HORIZON - 10.0
                events.append(DropBurst(window=(at, end), prob=0.5))
        return events

    return FaultPlan(window_events(draw(st.integers(2, 5))), name="overlap")


def run_overlap_workload(plan, seed):
    tracer = Tracer()
    with observe(tracer=tracer):
        sim = Simulator()
        streams = RngStreams(seed)
        network = Network(sim, streams, latency=ConstantLatency(0.05))
        for node_id in NODES:
            node = network.create_node(node_id)
            node.register_handler("ping", lambda n, payload, sender: None)
        for i, src in enumerate(NODES):
            dst = NODES[(i + 2) % len(NODES)]  # always cross-group
            t = 1.0
            while t < HORIZON - 5.0:
                sim.schedule_at(t + 0.7 * i, network.send,
                                src, dst, "ping", t)
                t += 3.0
        injector = FaultInjector(sim, network, plan, streams)
        harness = InvariantHarness(sim, network, injector, interval=5.0)
        harness.add(message_conservation())
        harness.add(no_double_resume())
        injector.arm()
        harness.start()
        sim.run(until=HORIZON + 30.0)
        return network, injector, tracer, harness.finish()


@chaos_settings
@given(plan=overlapping_plans(), seed=st.integers(min_value=0, max_value=2**20))
def test_overlapping_windows_conserve_messages_and_never_double_heal(
    plan, seed
):
    network, injector, tracer, violations = run_overlap_workload(plan, seed)
    assert violations == []
    flow = network.flow_snapshot()
    assert flow["in_flight"] == 0
    assert flow["delivered"] + flow["dropped"] == flow["sent"]
    # Last-writer-wins with guarded heals: a replaced event's heal is a
    # no-op, so heals can never outnumber injections — and each event
    # heals at most once even when another event equals it field-for-field.
    assert tracer.count("fault_healed") <= tracer.count("fault_injected")
    # If every partition in the plan carries a heal, none may leak past
    # its window: the last writer's heal always lands.
    if all(e.heal_at is not None
           for e in plan.events if isinstance(e, Partition)):
        assert not injector.partition_active
        assert network.can_reach(NODES[0], NODES[2])
