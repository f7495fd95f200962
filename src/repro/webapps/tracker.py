"""Peer discovery for site swarms: a classic tracker.

ZeroNet looks site addresses up "on trackers or DHTs" (§3.4); the swarm
here uses a tracker, which is simple and centralized (a single point of
failure the tests exercise).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generator, List, Set

from repro.net.node import NodeClass
from repro.net.transport import Network

__all__ = ["Tracker"]


class Tracker:
    """A classic announce/get-peers tracker on one node."""

    def __init__(self, network: Network, tracker_id: str = "tracker"):
        self.network = network
        self.tracker_id = tracker_id
        self.node = (
            network.node(tracker_id)
            if network.has_node(tracker_id)
            else network.create_node(tracker_id, node_class=NodeClass.DATACENTER)
        )
        self._peers: Dict[str, Set[str]] = defaultdict(set)
        self.node.register_handler("tracker.announce", self._on_announce)
        self.node.register_handler("tracker.get_peers", self._on_get_peers)
        self.node.register_handler("tracker.depart", self._on_depart)

    def _on_announce(self, node, payload: dict, sender: str) -> int:
        self._peers[payload["site"]].add(payload["peer"])
        return len(self._peers[payload["site"]])

    def _on_depart(self, node, payload: dict, sender: str) -> bool:
        self._peers[payload["site"]].discard(payload["peer"])
        return True

    def _on_get_peers(self, node, payload: dict, sender: str) -> List[str]:
        return sorted(self._peers.get(payload["site"], set()))

    # -- client side -------------------------------------------------------

    def announce(self, peer: str, site: str) -> Generator:
        count = yield from self.network.rpc(
            peer, self.tracker_id, "tracker.announce",
            {"site": site, "peer": peer},
        )
        return count

    def depart(self, peer: str, site: str) -> Generator:
        ok = yield from self.network.rpc(
            peer, self.tracker_id, "tracker.depart",
            {"site": site, "peer": peer},
        )
        return ok

    def get_peers(self, requester: str, site: str) -> Generator:
        peers = yield from self.network.rpc(
            requester, self.tracker_id, "tracker.get_peers", {"site": site}
        )
        return peers

