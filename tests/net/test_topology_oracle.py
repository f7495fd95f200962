"""The random topology builders against networkx, their reference.

``repro.net.topology`` re-implements the networkx 3.x generators it used
to call, draw for draw, because the node and neighbour order of E5's
social graph and E11's flood overlay feed traces and outputs.  Each case
compares the adjacency dict, and its key order, with
``networkx.relabel_nodes`` of the same generator at the same seed.
"""

import pytest

from repro.net.topology import random_graph, ring_lattice, small_world

nx = pytest.importorskip("networkx")


def reference(graph, count, prefix):
    """A networkx graph over ``range(count)`` as the builders' dict."""
    relabelled = nx.relabel_nodes(graph, {i: f"{prefix}{i}" for i in range(count)})
    return {node: list(relabelled.neighbors(node)) for node in relabelled}


def assert_same(got, expected, case):
    assert list(got) == list(expected), case
    assert got == expected, case


@pytest.mark.parametrize("count, ks, ps, seeds", [
    (count, (0, 1, 2, 3, 4, 6), (0.0, 0.2, 0.5, 1.0), (0, 3, 9))
    for count in (5, 8, 12, 16, 40, 80)
] + [
    (16, (4,), (0.2,), range(10, 30)),  # E5's social graph
    (256, (6,), (0.2,), (3, 7, 11)),  # the pubsub_flood workload's overlay
])
def test_small_world_matches_networkx(count, ks, ps, seeds):
    for k in ks:
        for p in ps:
            for seed in seeds:
                if k >= count:
                    continue
                case = (count, k, p, seed)
                expected = reference(
                    nx.watts_strogatz_graph(count, k, p, seed=seed), count, "u")
                got = small_world(count, k=k, rewire_prob=p, seed=seed, prefix="u")
                assert_same(got, expected, case)


@pytest.mark.parametrize("count", [1, 2, 5, 20, 50])
def test_random_graph_matches_networkx(count):
    for p in (0.0, 0.1, 0.3, 0.5, 1.0):
        for seed in (0, 1, 7):
            expected = reference(nx.gnp_random_graph(count, p, seed=seed), count, "n")
            assert_same(random_graph(count, p, seed=seed), expected, (count, p, seed))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 10])
def test_ring_lattice_matches_networkx(count):
    for k in range(count + 1):
        expected = reference(nx.watts_strogatz_graph(count, k, 0.0, seed=0), count, "n")
        assert_same(ring_lattice(count, k=k), expected, (count, k))
