"""Tests for Kademlia bucket-refresh maintenance."""

from repro.dht import DhtConfig, build_overlay
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator


class TestDhtRefresh:
    def test_refresh_evicts_dead_contacts(self):
        sim = Simulator()
        streams = RngStreams(6)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        overlay = build_overlay(
            network, [f"n{i}" for i in range(20)], DhtConfig(k=4, alpha=2)
        )
        # Kill several nodes; n0's table still references some of them.
        dead = [f"n{i}" for i in range(10, 16)]
        for name in dead:
            network.node(name).set_online(False, sim.now)
        known_dead_before = [d for d in dead if overlay["n0"].table.knows(d)]
        assert known_dead_before  # otherwise the test proves nothing

        def scenario():
            buckets = yield from overlay["n0"].refresh_buckets(
                streams.stream("refresh")
            )
            return buckets

        refreshed = sim.run_process(scenario())
        assert refreshed > 0
        still_known = [d for d in known_dead_before if overlay["n0"].table.knows(d)]
        assert len(still_known) < len(known_dead_before)

    def test_periodic_refresh_loop_runs_and_stops(self):
        sim = Simulator()
        streams = RngStreams(7)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        overlay = build_overlay(
            network, [f"n{i}" for i in range(10)], DhtConfig(k=4, alpha=2)
        )
        node = overlay["n0"]
        node.start_refreshing(streams.stream("refresh"), interval=50.0)
        sim.run(until=300.0)
        node.stop_refreshing()
        sim.run(until=400.0)  # loop exits; queue drains
        assert True  # reaching here without deadlock is the assertion
