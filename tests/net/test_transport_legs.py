"""Per-leg costs and input validation of the transport's message legs.

An in-flight leg is an arrival method bound once per network plus its
arguments, not a closure: one GC-tracked object, the
``_ScheduledEvent`` that holds the arguments inline and is a heap entry
or a link in its instant's chain.  A chain link reuses its head's time
float and, in an untraced simulator, its head's seq, so in a
same-instant burst a leg is the event list and its ten-slot item array:
136 bytes on CPython 3.11 (240 in two objects while the arguments were
a tuple of their own).  A closure with its cells costs 11 objects, and
at the queue depths of a message flood the cyclic collector rescans
every one of them on each pass.

An RPC attempt is one call object that is the caller's wait, the
payload of both its legs and the timeout callback.  In flight, with its
caller process, it holds at most 12 GC-tracked objects (11 on CPython
3.11; a signal-or-timeout race held 30, and a process parked on
``yield 30.0`` holds 7), and it costs three engine events when answered
and two when it times out.  A cancelled event keeps neither its
callback nor its arguments alive while it waits in the queue.

Each budget is read from the second of two identical passes: a tracer
(coverage's, or the standard library's ``trace``) allocates once per
line it first executes, and the first pass absorbs those allocations.
"""

import gc
import tracemalloc
import types
import weakref

import pytest

from repro.errors import NetworkError, RpcTimeoutError
from repro.net import ConstantLatency, Network
from repro.net.transport import _RpcCall
from repro.obs import Metrics
from repro.sim import RngStreams, Simulator

LEGS = 2_000
TRACKED_PER_LEG = 1
TRACKED_PER_RPC = 12
BYTES_PER_LEG = 144
RPC_ROUNDS = 400


def _pair(metrics=None):
    sim = Simulator(metrics=metrics)
    network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
    network.create_node("a")
    network.create_node("b").register_handler("ping", lambda *args: None)
    return sim, network


@pytest.fixture
def pair():
    return _pair()


@pytest.fixture
def metered_pair():
    """``pair`` with a metrics registry: the transport's only counters."""
    metrics = Metrics()
    return (*_pair(metrics), metrics)


def net_counters(metrics):
    return {name: count
            for name, count in metrics.snapshot()["counters"].items()
            if name.startswith("net.")}


def tracked_per_leg(issue_one_leg):
    """GC-tracked objects added per call of ``issue_one_leg`` in the
    second of two passes of ``LEGS`` calls, with the collector held off
    so nothing is freed or untracked mid-count."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            before = len(gc.get_objects())
            for _ in range(LEGS):
                issue_one_leg()
            after = len(gc.get_objects())
    finally:
        gc.enable()
    return (after - before) / LEGS


def bytes_per_leg(issue_one_leg):
    """``tracemalloc`` bytes added per call of ``issue_one_leg`` in the
    second of two passes of ``LEGS`` calls, with the collector held
    off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(LEGS):
                issue_one_leg()
            after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return (after - before) / LEGS


def _tracked_without_frames():
    return sum(1 for obj in gc.get_objects()
               if not isinstance(obj, types.FrameType))


def tracked_per_caller(sim, caller):
    """GC-tracked objects added per process spawned from ``caller`` and
    run up to its first wait, in the second of two passes of ``LEGS``
    processes.  Frames are not counted: CPython 3.11+ keeps a suspended
    generator's frame inside the generator, 3.10 tracks it as an object
    of its own."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            before = _tracked_without_frames()
            for _ in range(LEGS):
                sim.spawn(caller())
            sim.run(until=sim.now)
            after = _tracked_without_frames()
    finally:
        gc.enable()
    return (after - before) / LEGS


class TestAllocationBudget:
    def test_one_way_leg_stays_within_budget(self, pair):
        sim, network = pair
        network.send("a", "b", "ping", 1)  # warm the counter keys
        sim.run()
        per_leg = tracked_per_leg(lambda: network.send("a", "b", "ping", 1))
        assert per_leg <= TRACKED_PER_LEG
        assert sim.pending_events == 2 * LEGS

    def test_one_way_leg_bytes_stay_within_budget(self, pair):
        # Every leg lands at 0.05, so all but the first are chain links.
        sim, network = pair
        network.send("a", "b", "ping", 1)  # warm the counter keys
        sim.run()
        per_leg = bytes_per_leg(lambda: network.send("a", "b", "ping", 1))
        assert per_leg <= BYTES_PER_LEG
        assert len(sim._queue) == 1
        assert sim.pending_events == 2 * LEGS

    def test_rpc_response_leg_stays_within_budget(self, pair):
        # A request leg that nobody waits on: its arrival tells the call
        # its server and client and answers it, and that response
        # resolves nothing.  Every later reply is one more response leg.
        sim, network = pair
        call = _RpcCall(network, 1, 512, 30.0)
        network.send("a", "b", "ping", call)
        sim.run()
        assert network.flow_snapshot()["delivered"] == 2
        per_leg = tracked_per_leg(lambda: call.reply(1))
        assert per_leg <= TRACKED_PER_LEG
        assert sim.pending_events == 2 * LEGS

    def test_in_flight_rpc_stays_within_budget(self, pair):
        sim, network = pair

        def caller():
            yield from network.rpc("a", "b", "ping", 1)

        sim.run_process(caller())  # warm the counter keys
        per_call = tracked_per_caller(sim, caller)
        assert per_call <= TRACKED_PER_RPC
        # Every caller of both passes has sent its request and none has
        # its response: one request leg and one timer each.
        assert sim.pending_events == 2 * 2 * LEGS


class _Referent:
    def take(self, value):
        raise AssertionError("a cancelled event fired")


class TestTombstones:
    def test_cancelled_event_releases_callback_and_arguments(self):
        metrics = Metrics()
        sim = Simulator(metrics=metrics)
        owner, argument = _Referent(), _Referent()
        refs = [weakref.ref(owner), weakref.ref(argument)]
        event = sim.schedule(1.0, owner.take, argument)
        del owner, argument
        assert all(ref() is not None for ref in refs)
        event.cancel()
        # Freed at cancel time, with the tombstone still queued.
        assert all(ref() is None for ref in refs)
        assert len(sim._queue) == 1
        assert sim.pending_events == 0
        assert metrics.counter("sim.events_cancelled") == 1
        sim.run()
        assert metrics.counter("sim.tombstones_drained") == 1
        assert sim.pending_events == 0
        assert sim.events_processed == 0


def _rpc_rounds(server_online, timeout=30.0):
    """The ``micro.transport.rpc_roundtrip`` loop: sequential echo RPCs
    from one client; returns every counter the run records."""
    metrics = Metrics()
    sim = Simulator(metrics=metrics)
    network = Network(sim, RngStreams(2003))
    network.create_node("client")
    server = network.create_node("server")
    server.register_handler("echo", lambda node, payload, sender: payload)
    server.set_online(server_online, 0.0)

    def client():
        for i in range(RPC_ROUNDS):
            try:
                yield from network.rpc("client", "server", "echo", i,
                                       timeout=timeout)
            except RpcTimeoutError:
                pass

    sim.run_process(client())
    return metrics.snapshot()["counters"]


class TestRpcEventBudget:
    def test_answered_rpc_is_three_events(self):
        # Request leg, a timer that gets cancelled, response leg (the
        # extra event is the client's spawn).
        assert _rpc_rounds(server_online=True) == {
            "sim.events_scheduled": 3 * RPC_ROUNDS + 1,
            "sim.events_fired": 2 * RPC_ROUNDS + 1,
            "sim.events_cancelled": RPC_ROUNDS,
            "sim.tombstones_drained": RPC_ROUNDS,
            "sim.processes_spawned": 1,
            "sim.processes_finished": 1,
            # Two 512-byte legs per call, each sent and delivered.
            "net.messages_sent": 2 * RPC_ROUNDS,
            "net.messages_delivered": 2 * RPC_ROUNDS,
            "net.bytes_sent": 2 * RPC_ROUNDS * 512,
            "net.bytes_delivered": 2 * RPC_ROUNDS * 512,
            "net.rpcs_sent": RPC_ROUNDS,
            "net.rpcs_ok": RPC_ROUNDS,
        }

    def test_timed_out_rpc_is_two_events(self):
        # Request leg (dropped at the offline server) and the timer.
        assert _rpc_rounds(server_online=False, timeout=1.0) == {
            "sim.events_scheduled": 2 * RPC_ROUNDS + 1,
            "sim.events_fired": 2 * RPC_ROUNDS + 1,
            "sim.processes_spawned": 1,
            "sim.processes_finished": 1,
            "net.messages_sent": RPC_ROUNDS,
            "net.messages_dropped": RPC_ROUNDS,
            "net.messages_dropped.offline": RPC_ROUNDS,
            "net.bytes_sent": RPC_ROUNDS * 512,
            "net.rpcs_sent": RPC_ROUNDS,
            "net.rpcs_timeout": RPC_ROUNDS,
        }


class TestRpcCallEdges:
    def test_timer_wins_a_same_instant_tie(self, metered_pair):
        # Request and response each take exactly 0.05 s, so the
        # response lands at the timeout instant; the timer was scheduled
        # first and decides the call.
        sim, network, metrics = metered_pair
        network.node("b").register_handler(
            "echo", lambda node, payload, sender: payload)

        def client():
            try:
                yield from network.rpc("a", "b", "echo", 1, size_bytes=0,
                                       response_bytes=0, timeout=0.1)
            except RpcTimeoutError:
                return sim.now
            return None

        assert sim.run_process(client()) == 0.1
        assert metrics.counter("net.rpcs_timeout") == 1
        assert sim.stale_resumes == 0


class TestNegativeSizes:
    def test_one_way_rejected_before_any_accounting(self, metered_pair):
        sim, network, metrics = metered_pair
        with pytest.raises(NetworkError, match="negative message size"):
            network.send("a", "b", "ping", size_bytes=-1)
        assert net_counters(metrics) == {}
        assert network.flow_snapshot()["sent"] == 0
        assert sim.pending_events == 0

    def test_nan_one_way_rejected_before_any_accounting(self, metered_pair):
        # A NaN size passes a ``< 0`` test: it would reach the byte
        # counters and the flow ledger before the engine refused its
        # NaN delay.
        sim, network, metrics = metered_pair
        with pytest.raises(NetworkError, match="negative message size"):
            network.send("a", "b", "ping", 1, size_bytes=float("nan"))
        assert net_counters(metrics) == {}
        assert network.node("a").bytes_sent == 0
        assert network.flow_snapshot() == {
            "sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0,
        }
        assert sim.pending_events == 0

    @pytest.mark.parametrize("sizes", [
        {"size_bytes": -1},
        {"response_bytes": -1},
        {"size_bytes": float("nan")},
        {"response_bytes": float("nan")},
    ])
    def test_rpc_rejected_in_the_caller(self, metered_pair, sizes):
        sim, network, metrics = metered_pair
        network.node("b").register_handler("echo", lambda n, p, s: p)

        def client():
            try:
                yield from network.rpc("a", "b", "echo", 7, **sizes)
            except NetworkError as exc:
                return str(exc)

        assert "negative message size" in sim.run_process(client())
        assert net_counters(metrics) == {}
        assert network.flow_snapshot() == {
            "sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0,
        }
        assert network.node("a").bytes_sent == 0

    def test_negative_rpc_timeout_rejected_in_the_caller(self, metered_pair):
        sim, network, metrics = metered_pair

        def client():
            try:
                yield from network.rpc("a", "b", "ping", timeout=-1.0)
            except NetworkError as exc:
                return str(exc)

        assert "negative rpc timeout" in sim.run_process(client())
        assert net_counters(metrics) == {}
        assert sim.pending_events == 0

    def test_nan_rpc_timeout_rejected_in_the_caller(self, metered_pair):
        # A NaN timer would fire before the response and time out a
        # call to a live server.
        sim, network, metrics = metered_pair
        network.node("b").register_handler("echo", lambda n, p, s: p)

        def client():
            try:
                yield from network.rpc("a", "b", "echo", 7,
                                       timeout=float("nan"))
            except NetworkError as exc:
                return str(exc)

        assert "negative rpc timeout" in sim.run_process(client())
        assert net_counters(metrics) == {}
        assert network.flow_snapshot()["sent"] == 0
