"""Per-leg costs and input validation of the transport's message legs.

An in-flight leg is a bound arrival method plus its arguments, not a
closure: four GC-tracked objects (heap tuple, ``_ScheduledEvent``,
bound method, args tuple).  A closure with its cells costs 11, and at
the heap depths of a message flood the cyclic collector rescans every
one of them on each pass.
"""

import gc

import pytest

from repro.errors import NetworkError
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator

LEGS = 2_000
TRACKED_PER_LEG = 4


@pytest.fixture
def pair():
    sim = Simulator()
    network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
    network.create_node("a")
    network.create_node("b").register_handler("ping", lambda *args: None)
    return sim, network


def tracked_per_leg(issue_one_leg):
    """GC-tracked objects added per call of ``issue_one_leg``, with the
    collector held off so nothing is freed or untracked mid-count."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(LEGS):
            issue_one_leg()
        after = len(gc.get_objects())
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
        assert sim.pending_events == LEGS

    def test_rpc_response_leg_stays_within_budget(self, pair):
        sim, network = pair
        src, dst = network.node("a"), network.node("b")
        done = sim.signal("rpc")
        network._rpc_respond(src, dst, 1, 512, done)  # warm the counter key
        sim.run()
        per_leg = tracked_per_leg(
            lambda: network._rpc_respond(src, dst, 1, 512, done)
        )
        assert per_leg <= TRACKED_PER_LEG
        assert sim.pending_events == LEGS


class TestNegativeSizes:
    def test_one_way_rejected_before_any_accounting(self, pair):
        sim, network = pair
        with pytest.raises(NetworkError, match="negative message size"):
            network.send("a", "b", "ping", size_bytes=-1)
        assert network.monitor.counters.as_dict() == {}
        assert network.flow_snapshot()["sent"] == 0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("sizes", [
        {"size_bytes": -1},
        {"response_bytes": -1},
    ])
    def test_rpc_rejected_in_the_caller(self, pair, sizes):
        sim, network = pair
        network.node("b").register_handler("echo", lambda n, p, s: p)

        def client():
            try:
                yield from network.rpc("a", "b", "echo", 7, **sizes)
            except NetworkError as exc:
                return str(exc)

        assert "negative message size" in sim.run_process(client())
        assert network.monitor.counters.as_dict() == {}
        assert network.flow_snapshot() == {
            "sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0,
        }
