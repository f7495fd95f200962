"""Topology and social-graph builders.

A graph is a plain adjacency dict, ``Dict[str, List[str]]``: node id →
its neighbours.  Protocol layers use it as *connectivity*: who may talk
to whom directly (socially-aware P2P only serves trusted neighbours,
pub/sub floods along edges, a censor border is a labelled region).

Every builder takes an explicit ``seed`` so topologies are reproducible.
The random builders draw what networkx 3.x draws for the same seed and
give its node and neighbour order, because flood fan-out (E11) and the
social graph (E5) feed traces and outputs;
``tests/net/test_topology_oracle.py`` checks them against networkx.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.sim.rng import graph_rng

__all__ = [
    "star",
    "isp_tree",
    "nodes_in_region",
    "random_graph",
    "small_world",
    "ring_lattice",
]


def _ids(prefix: str, count: int) -> List[str]:
    if count <= 0:
        raise NetworkError(f"need a positive node count, got {count}")
    return [f"{prefix}{i}" for i in range(count)]


def _relabelled(
    adjacency: Sequence[Iterable[int]], ids: List[str]
) -> Dict[str, List[str]]:
    """The integer graph ``adjacency`` over ``ids``, in the order
    ``networkx.relabel_nodes(copy=True)`` gives: nodes in index order,
    then every edge added once, from the end visited first."""
    graph: Dict[str, List[str]] = {name: [] for name in ids}
    for u, neighbours in enumerate(adjacency):
        for v in neighbours:
            if v > u:
                graph[ids[u]].append(ids[v])
                graph[ids[v]].append(ids[u])
    return graph


def _watts_strogatz(
    count: int, k: int, rewire_prob: float, seed: int
) -> List[Dict[int, None]]:
    """``networkx.watts_strogatz_graph``: a ring where each node links
    its ``k // 2`` nearest neighbours on each side, then each edge
    ``(u, u + j)`` rewired to ``(u, w)`` with probability ``rewire_prob``
    (``k == count`` is the complete graph).  A neighbour set is a dict so
    that it keeps insertion order."""
    if k == count:
        return _gnp(count, 1.0, seed)
    adjacency: List[Dict[int, None]] = [{} for _ in range(count)]
    for j in range(1, k // 2 + 1):
        for u in range(count):
            v = (u + j) % count
            adjacency[u][v] = adjacency[v][u] = None
    rng = graph_rng(seed)
    nodes = list(range(count))
    for j in range(1, k // 2 + 1):
        for u in range(count):
            v = (u + j) % count
            if rng.random() < rewire_prob:
                w = rng.choice(nodes)
                while w == u or w in adjacency[u]:
                    w = rng.choice(nodes)
                    if len(adjacency[u]) >= count - 1:
                        break  # u already links every node: skip
                else:
                    del adjacency[u][v], adjacency[v][u]
                    adjacency[u][w] = adjacency[w][u] = None
    return adjacency


def _gnp(count: int, edge_prob: float, seed: int) -> List[Dict[int, None]]:
    """``networkx.gnp_random_graph``: each pair in ``combinations`` order
    is an edge with probability ``edge_prob``; 1 and 0 draw nothing."""
    adjacency: List[Dict[int, None]] = [{} for _ in range(count)]
    if edge_prob <= 0:
        return adjacency
    rng = graph_rng(seed)
    for u, v in combinations(range(count), 2):
        if edge_prob >= 1 or rng.random() < edge_prob:
            adjacency[u][v] = adjacency[v][u] = None
    return adjacency


def star(center: str, leaves: Sequence[str]) -> Dict[str, List[str]]:
    """A hub-and-spoke graph: the centralized-provider shape."""
    if center in leaves:
        raise NetworkError("center cannot also be a leaf")
    graph = {center: list(dict.fromkeys(leaves))}
    for leaf in graph[center]:
        graph[leaf] = [center]
    return graph


def isp_tree(
    n_isps: int,
    users_per_isp: int,
    isp_prefix: str = "isp",
    user_prefix: str = "user",
    regions: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, List[str]], Dict[str, str]]:
    """The 1990s-Internet shape the paper calls semi-democratized (§2):
    hundreds of ISPs, each serving its own users, ISPs fully meshed.

    Returns the graph and each node's region (empty without
    ``regions``): ISPs are assigned to regions round-robin and users sit
    in their ISP's region.  Censorship campaigns
    (:class:`repro.faults.Censor`) draw their border from these labels
    via :func:`nodes_in_region`.
    """
    isps = _ids(isp_prefix, n_isps)
    graph = {isp: [other for other in isps if other != isp] for isp in isps}
    region_of: Dict[str, str] = {}
    for i, isp in enumerate(isps):
        users = [f"{user_prefix}{i}_{j}" for j in range(users_per_isp)]
        graph[isp].extend(users)
        for user in users:
            graph[user] = [isp]
        if regions:
            for node in (isp, *users):
                region_of[node] = regions[i % len(regions)]
    return graph, region_of


def nodes_in_region(region_of: Dict[str, str], region: str) -> List[str]:
    """All node ids labelled with ``region``, sorted (a censor border).

    Raises if there are no region labels at all — asking for a border on
    an unlabelled topology is a setup bug, not an empty set.
    """
    if not region_of:
        raise NetworkError("graph has no region labels (see isp_tree)")
    return sorted(node for node, label in region_of.items() if label == region)


def random_graph(
    count: int, edge_prob: float, seed: int, prefix: str = "n"
) -> Dict[str, List[str]]:
    """Erdős–Rényi over generated node ids."""
    if not 0 <= edge_prob <= 1:
        raise NetworkError(f"edge_prob must be in [0,1]: {edge_prob}")
    ids = _ids(prefix, count)
    return _relabelled(_gnp(count, edge_prob, seed), ids)


def small_world(
    count: int, k: int = 6, rewire_prob: float = 0.1, seed: int = 0, prefix: str = "n"
) -> Dict[str, List[str]]:
    """Watts–Strogatz small world — the standard social-graph stand-in
    used for the socially-aware P2P experiments (E5)."""
    if k >= count:
        raise NetworkError(f"k={k} must be < count={count}")
    ids = _ids(prefix, count)
    return _relabelled(_watts_strogatz(count, k, rewire_prob, seed), ids)


def ring_lattice(count: int, k: int = 2, prefix: str = "n") -> Dict[str, List[str]]:
    """Ring lattice (Watts–Strogatz with rewire probability 0)."""
    ids = _ids(prefix, count)
    if k > count:
        raise NetworkError(f"k={k} must be <= count={count}")
    return _relabelled(_watts_strogatz(count, k, 0.0, seed=0), ids)
