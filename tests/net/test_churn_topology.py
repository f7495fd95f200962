"""Tests for churn processes and topology builders."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    ChurnProfile,
    Network,
    Node,
    NodeClass,
    attach_churn,
    profile_for_class,
)
from repro.net.churn import PERSONAL_COMPUTER_PROFILE, SMARTPHONE_PROFILE
from repro.groupcomm.federated import federation_homes
from repro.net.topology import (
    isp_tree,
    nodes_in_region,
    random_graph,
    ring_lattice,
    small_world,
    star,
)
from repro.sim import RngStreams, Simulator


class TestChurnProfile:
    def test_availability_formula(self):
        profile = ChurnProfile(mean_uptime=30.0, mean_downtime=10.0)
        assert profile.availability == pytest.approx(0.75)

    def test_invalid_means_rejected(self):
        with pytest.raises(NetworkError):
            ChurnProfile(mean_uptime=0.0, mean_downtime=1.0)

    def test_invalid_attrition_rejected(self):
        with pytest.raises(NetworkError):
            ChurnProfile(mean_uptime=1.0, mean_downtime=1.0, attrition=2.0)

    def test_class_profiles_exist(self):
        for node_class in NodeClass.ALL:
            assert profile_for_class(node_class).mean_uptime > 0

    def test_unknown_class_rejected(self):
        with pytest.raises(NetworkError):
            profile_for_class("quantum")

    def test_datacenter_availability_exceeds_phone(self):
        assert (
            profile_for_class(NodeClass.DATACENTER).availability
            > profile_for_class(NodeClass.SMARTPHONE).availability
        )


class TestChurnProcess:
    def test_empirical_availability_matches_profile(self):
        sim = Simulator()
        streams = RngStreams(11)
        profile = ChurnProfile(mean_uptime=100.0, mean_downtime=50.0)
        nodes = [Node(f"n{i}") for i in range(60)]
        attach_churn(sim, streams, nodes, profile)
        horizon = 20_000.0
        sim.run(until=horizon)
        fractions = [n.uptime_fraction(horizon) for n in nodes]
        mean_avail = sum(fractions) / len(fractions)
        assert abs(mean_avail - profile.availability) < 0.06

    def test_attrition_removes_nodes_permanently(self):
        sim = Simulator()
        streams = RngStreams(12)
        profile = ChurnProfile(mean_uptime=10.0, mean_downtime=10.0, attrition=0.5)
        nodes = [Node(f"n{i}") for i in range(50)]
        processes = attach_churn(sim, streams, nodes, profile)
        sim.run(until=1000.0)
        departed = [p for p in processes if p.departed]
        assert len(departed) > 30  # half-life of a few cycles
        for p in departed:
            assert not p.node.online

    def test_stop_freezes_state(self):
        sim = Simulator()
        streams = RngStreams(13)
        node = Node("n")
        [process] = attach_churn(
            sim, streams, [node], ChurnProfile(mean_uptime=1.0, mean_downtime=1.0)
        )
        process.stop()
        sim.run(until=100.0)
        assert node.online  # never flipped after stop

    def test_default_profile_by_class(self):
        sim = Simulator()
        streams = RngStreams(14)
        phone = Node("p", node_class=NodeClass.SMARTPHONE)
        [process] = attach_churn(sim, streams, [phone])
        assert process.profile is SMARTPHONE_PROFILE


class TestCrashRestore:
    """Injected crashes suspend the renewal process (repro.faults hook)."""

    def _process(self, seed=21, mean_uptime=5.0, mean_downtime=5.0):
        sim = Simulator()
        streams = RngStreams(seed)
        node = Node("n")
        [process] = attach_churn(
            sim, streams, [node],
            ChurnProfile(mean_uptime=mean_uptime, mean_downtime=mean_downtime),
        )
        return sim, node, process

    def test_crash_holds_node_down_despite_churn(self):
        sim, node, process = self._process()
        sim.run(until=10.0)
        process.crash()
        assert process.crashed and not node.online
        # Churn would flip a 5s-uptime node many times in 200s; a
        # crashed node must never come back on its own.
        sim.run(until=210.0)
        assert not node.online

    def test_restore_resumes_renewal_clock(self):
        sim, node, process = self._process()
        sim.run(until=10.0)
        process.crash()
        sim.run(until=50.0)
        process.restore()
        assert not process.crashed and node.online
        # The renewal process is live again: with a 5 s mean uptime the
        # node flips off at some point after restore.
        states = []
        for t in range(51, 251):
            sim.run(until=float(t))
            states.append(node.online)
        assert False in states

    def test_crash_is_idempotent(self):
        sim, node, process = self._process()
        sim.run(until=3.0)
        process.crash()
        process.crash()
        assert process.crashed
        process.restore()
        process.restore()
        assert not process.crashed

    def test_restore_without_crash_is_noop(self):
        sim, node, process = self._process()
        sim.run(until=3.0)
        was_online = node.online
        process.restore()
        assert node.online == was_online

    def test_crash_does_not_consume_rng_draws(self):
        """Crash/restore must not shift the churn RNG stream."""

        def flips_after(crash):
            sim, node, process = self._process(seed=33)
            if crash:
                sim.schedule_at(40.0, process.crash)
                sim.schedule_at(60.0, process.restore)
            sim.run(until=40.0)
            # Record the flip schedule well after the crash window.
            sim.run(until=500.0)
            return node.uptime_fraction(500.0)

        # Not equal (the crash removes 20 s of uptime) but both runs
        # must complete deterministically; equality of draws is pinned
        # by the injector-level RNG isolation test.  Here we pin that
        # crash() during a run neither raises nor deadlocks the clock.
        assert 0.0 < flips_after(False) <= 1.0
        assert 0.0 < flips_after(True) <= 1.0

    def test_restore_respects_departure(self):
        sim = Simulator()
        streams = RngStreams(12)
        profile = ChurnProfile(
            mean_uptime=10.0, mean_downtime=10.0, attrition=0.9
        )
        nodes = [Node(f"n{i}") for i in range(20)]
        processes = attach_churn(sim, streams, nodes, profile)
        sim.run(until=500.0)
        departed = [p for p in processes if p.departed]
        assert departed  # with attrition=0.9 some node left
        process = departed[0]
        process.crash()
        process.restore()
        assert not process.node.online  # departure wins over restore


def edges(graph):
    """Each undirected edge once, as a sorted pair; also checks symmetry."""
    pairs = {tuple(sorted((u, v))) for u in graph for v in graph[u]}
    assert all(u in graph[v] and v in graph[u] for u, v in pairs)
    return pairs


def is_connected(graph):
    start = next(iter(graph))
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for neighbour in graph[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(graph)


class TestTopologies:
    def test_star_shape(self):
        g = star("hub", [f"u{i}" for i in range(5)])
        assert len(g["hub"]) == 5
        assert all(g[f"u{i}"] == ["hub"] for i in range(5))

    def test_star_rejects_center_leaf(self):
        with pytest.raises(NetworkError):
            star("hub", ["hub"])

    def test_isp_tree_structure(self):
        g, region_of = isp_tree(n_isps=3, users_per_isp=4)
        isps = [n for n in g if n.startswith("isp")]
        users = [n for n in g if n.startswith("user")]
        assert len(isps) == 3
        assert len(users) == 12
        # ISPs are fully meshed.
        assert len(g["isp0"]) == 2 + 4
        assert len(edges(g)) == 3 + 12
        assert is_connected(g)
        assert region_of == {}
        with pytest.raises(NetworkError):
            nodes_in_region(region_of, "cn")

    def test_isp_tree_regions(self):
        g, region_of = isp_tree(4, 2, regions=("cn", "intl"))
        assert set(region_of) == set(g)
        assert nodes_in_region(region_of, "cn") == [
            "isp0", "isp2", "user0_0", "user0_1", "user2_0", "user2_1",
        ]

    def test_random_graph_size(self):
        g = random_graph(50, 0.1, seed=1)
        assert len(g) == 50

    def test_random_graph_reproducible(self):
        g1 = random_graph(30, 0.2, seed=7)
        g2 = random_graph(30, 0.2, seed=7)
        assert edges(g1) == edges(g2)

    def test_small_world_params(self):
        g = small_world(40, k=4, rewire_prob=0.1, seed=2)
        assert len(g) == 40
        degrees = [len(neighbours) for neighbours in g.values()]
        assert sum(degrees) / len(degrees) == pytest.approx(4.0, abs=0.5)
        assert len(edges(g)) == 40 * 4 // 2  # rewiring keeps the edge count

    def test_small_world_k_bound(self):
        with pytest.raises(NetworkError):
            small_world(5, k=5)

    def test_ring_lattice_regular(self):
        g = ring_lattice(10, k=2)
        assert all(len(neighbours) == 2 for neighbours in g.values())
        assert is_connected(g)

    def test_ring_lattice_k_bound(self):
        assert len(edges(ring_lattice(5, k=5))) == 10  # k == count: complete
        with pytest.raises(NetworkError):
            ring_lattice(5, k=6)

    def test_bad_count_rejected(self):
        with pytest.raises(NetworkError):
            random_graph(0, 0.5, seed=1)


class TestFederationHomes:
    def test_every_user_assigned(self):
        users = [f"u{i}" for i in range(10)]
        servers = ["s0", "s1", "s2"]
        homes = federation_homes(users, servers, seed=1)
        assert set(homes) == set(users)
        assert set(homes.values()) <= set(servers)

    def test_balanced_assignment(self):
        users = [f"u{i}" for i in range(30)]
        servers = ["s0", "s1", "s2"]
        homes = federation_homes(users, servers, seed=2)
        from collections import Counter as C

        counts = C(homes.values())
        assert all(count == 10 for count in counts.values())

    def test_requires_servers(self):
        with pytest.raises(NetworkError):
            federation_homes(["u"], [])

    def test_seed_changes_assignment(self):
        users = [f"u{i}" for i in range(30)]
        servers = ["s0", "s1", "s2"]
        assert federation_homes(users, servers, seed=1) != federation_homes(
            users, servers, seed=2
        )


class TestFederationHomesGoldens:
    """Pin the exact assignment under seeded_rng seed derivation.

    federation_homes now shuffles on the named stream
    "topology.federation_homes" (derive_seed) instead of seeding
    random.Random with the raw seed; this golden freezes the new
    mapping so experiment outputs cannot silently shift again.
    """

    def test_pinned_assignment(self):
        users = [f"u{i}" for i in range(8)]
        servers = ["s0", "s1", "s2"]
        assert federation_homes(users, servers, seed=1) == {
            "u0": "s0", "u1": "s1", "u5": "s2", "u6": "s0",
            "u3": "s1", "u4": "s2", "u2": "s0", "u7": "s1",
        }

    def test_matches_named_stream_shuffle(self):
        from repro.sim.rng import seeded_rng

        users = [f"u{i}" for i in range(12)]
        servers = ["s0", "s1"]
        expected_order = list(users)
        seeded_rng(7, "topology.federation_homes").shuffle(expected_order)
        expected = {
            user: servers[i % len(servers)]
            for i, user in enumerate(expected_order)
        }
        assert federation_homes(users, servers, seed=7) == expected
