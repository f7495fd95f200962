"""Anti-entropy replication: eventually-consistent full replication.

This is the mechanism behind Matrix-style federation in the group
communication experiments (§3.2): every server eventually holds every
item, so any single server failure loses nothing.  Items are
last-writer-wins registers versioned by ``(counter, writer)`` pairs
(a Lamport-style total order).

Each node runs a periodic reconciliation loop: pick a random peer,
exchange digests, pull what the peer has newer, push what we have newer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import NetworkError, RemoteError, RpcTimeoutError
from repro.net.node import Node
from repro.net.transport import Network
from repro.sim.rng import RngStreams

__all__ = ["Stamp", "Versioned", "ReplicaStore", "AntiEntropyNode"]

#: ``(counter, writer, value hash)``: the total order over versions.
Stamp = Tuple[int, str, str]


@dataclass(frozen=True)
class Versioned:
    """A replicated register value with its version stamp.

    The stamp totally orders *all* writes, including a buggy or Byzantine
    writer reusing a counter with different values: the value hash breaks
    that tie deterministically, so replicas always converge.

    Contract: ``value`` is never mutated after its ``Versioned`` is built,
    so the stamp is hashed at most once per instance and then cached.
    Every copy received over the wire is a new instance built by
    :meth:`from_wire`, so a receiver always hashes the value itself and
    never trusts a stamp computed by the sender.
    """

    value: Any
    counter: int
    writer: str

    @cached_property
    def stamp(self) -> Stamp:
        from repro.crypto.hashing import hash_obj

        return (self.counter, self.writer, hash_obj(self.value))

    def to_wire(self) -> Dict[str, Any]:
        """The RPC payload form; carries no stamp."""
        return {"value": self.value, "counter": self.counter, "writer": self.writer}

    @classmethod
    def from_wire(cls, raw: Dict[str, Any]) -> "Versioned":
        """Rebuild a received item; any other field in ``raw`` is ignored."""
        return cls(raw["value"], raw["counter"], raw["writer"])


class ReplicaStore:
    """Key -> versioned value, merged by last-writer-wins."""

    def __init__(self) -> None:
        self._items: Dict[str, Versioned] = {}
        self._clock = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def keys(self) -> List[str]:
        return list(self._items)

    def get(self, key: str) -> Optional[Any]:
        item = self._items.get(key)
        return item.value if item is not None else None

    def write(self, key: str, value: Any, writer: str) -> Versioned:
        """A local write: bumps the Lamport clock past anything seen."""
        self._clock += 1
        item = Versioned(value, self._clock, writer)
        self._items[key] = item
        return item

    def merge(self, key: str, incoming: Versioned) -> bool:
        """Adopt ``incoming`` if it beats the local version.

        Returns True when the store changed.  Observing a higher counter
        also advances the local clock so later local writes win.
        """
        self._clock = max(self._clock, incoming.counter)
        current = self._items.get(key)
        if current is None or incoming.stamp > current.stamp:
            self._items[key] = incoming
            return True
        return False

    def digest(self) -> Dict[str, Stamp]:
        """Version stamps for every key (sent during reconciliation)."""
        return {key: item.stamp for key, item in self._items.items()}

    def item(self, key: str) -> Versioned:
        return self._items[key]


class AntiEntropyNode:
    """One replica running periodic pairwise reconciliation."""

    def __init__(
        self,
        network: Network,
        node: Node,
        peers: List[str],
        streams: RngStreams,
        interval: float = 10.0,
        rpc_timeout: float = 5.0,
        on_change: Optional[Callable[[str, Versioned], None]] = None,
    ):
        if interval <= 0:
            raise NetworkError(f"gossip interval must be positive: {interval}")
        self.network = network
        self.node = node
        self.peers = [p for p in peers if p != node.node_id]
        self.interval = interval
        self.rpc_timeout = rpc_timeout
        self.store = ReplicaStore()
        self.on_change = on_change
        self.rounds = 0
        self.items_transferred = 0
        self._running = False
        self._rng = streams.stream(f"antientropy.{node.node_id}")
        node.register_handler("gossip.digest", self._on_digest)
        node.register_handler("gossip.pull", self._on_pull)
        node.register_handler("gossip.push", self._on_push)

    # -- server handlers ------------------------------------------------------

    def _on_digest(self, node: Node, payload: Any, sender: str) -> Dict[str, Stamp]:
        return self.store.digest()

    def _on_pull(self, node: Node, payload: Any, sender: str) -> Dict[str, dict]:
        return {
            key: self.store.item(key).to_wire()
            for key in payload["keys"]
            if key in self.store
        }

    def _on_push(self, node: Node, payload: Any, sender: str) -> int:
        merged = 0
        for key, raw in payload["items"].items():
            item = Versioned.from_wire(raw)
            if self.store.merge(key, item):
                merged += 1
                if self.on_change is not None:
                    self.on_change(key, item)
        return merged

    # -- client side -----------------------------------------------------------

    def write(self, key: str, value: Any) -> Versioned:
        """Local write; reaches other replicas on subsequent gossip rounds."""
        return self.store.write(key, value, self.node.node_id)

    def start(self) -> None:
        """Begin the periodic reconciliation loop."""
        if self._running:
            return
        self._running = True
        self.network.sim.spawn(
            self._loop(), name=f"antientropy:{self.node.node_id}"
        )

    def stop(self) -> None:
        self._running = False

    def _loop(self) -> Generator:
        while self._running:
            yield self._rng.uniform(0.5 * self.interval, 1.5 * self.interval)
            if not self._running:
                return
            if not self.node.online or not self.peers:
                continue
            peer = self._rng.choice(self.peers)
            yield from self.reconcile_with(peer)

    def reconcile_with(self, peer: str) -> Generator:
        """One full pull+push exchange with ``peer`` (yieldable)."""
        try:
            their_digest = yield from self.network.rpc(
                self.node.node_id, peer, "gossip.digest", {},
                timeout=self.rpc_timeout,
            )
        except (RpcTimeoutError, RemoteError, NetworkError):
            return False
        mine = self.store.digest()
        to_pull = [
            key for key, stamp in their_digest.items()
            if key not in mine or tuple(stamp) > mine[key]
        ]
        to_push = {
            key: self.store.item(key).to_wire()
            for key, stamp in mine.items()
            if key not in their_digest or stamp > tuple(their_digest[key])
        }
        try:
            if to_pull:
                items = yield from self.network.rpc(
                    self.node.node_id, peer, "gossip.pull", {"keys": to_pull},
                    timeout=self.rpc_timeout,
                )
                for key, raw in items.items():
                    item = Versioned.from_wire(raw)
                    if self.store.merge(key, item):
                        self.items_transferred += 1
                        if self.on_change is not None:
                            self.on_change(key, item)
            if to_push:
                merged = yield from self.network.rpc(
                    self.node.node_id, peer, "gossip.push", {"items": to_push},
                    timeout=self.rpc_timeout,
                )
                self.items_transferred += merged
        except (RpcTimeoutError, RemoteError, NetworkError):
            return False
        self.rounds += 1
        return True
