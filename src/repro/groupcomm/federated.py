"""Federated group communication: the two §3.2 federation designs.

* :class:`SingleHomeFederation` — the OStatus/pump.io model (GNU social,
  Mastodon, Identi.ca, Friendica): each user lives on one home server;
  posts are pushed server-to-server once, with no repair.  The paper's
  criticism made measurable: "applications are bottlenecked by single
  servers that can cause entire instances to be inaccessible if they
  fail."
* :class:`ReplicatedFederation` — the Matrix model: room history is
  replicated across every participating server by anti-entropy, so any
  single server failure loses nothing (the repair loop re-converges).
  Optional end-to-end encryption hides bodies from servers while leaving
  metadata visible — exactly the residual leak the paper notes.

Both share user-homing and room-membership plumbing through
:class:`FederationBase`, so E4 compares mechanisms, not bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional, Sequence, Set

from repro.errors import (
    GroupCommError,
    NetworkError,
    RemoteError,
    RpcTimeoutError,
)
from repro.gossip.antientropy import AntiEntropyNode
from repro.groupcomm.messages import Message, Room
from repro.net.node import NodeClass
from repro.net.transport import Network
from repro.sim.rng import RngStreams, seeded_rng

__all__ = [
    "FederationBase",
    "SingleHomeFederation",
    "ReplicatedFederation",
    "federation_homes",
]


def federation_homes(
    user_ids: Sequence[str], server_ids: Sequence[str], seed: int = 0
) -> Dict[str, str]:
    """Assign each user a home server, round-robin after a seeded shuffle.

    Round-robin keeps instances balanced; the shuffle decorrelates user
    index from server index so failure experiments aren't accidentally
    structured.  The shuffle draws from the named stream
    ``"topology.federation_homes"`` (see :func:`repro.sim.rng.seeded_rng`)
    so it is independent of every other consumer of the same root seed.
    The stream keeps the name of the module the function first lived in:
    renaming it would re-home every user.
    """
    if not server_ids:
        raise NetworkError("need at least one server")
    shuffled = list(user_ids)
    seeded_rng(seed, "topology.federation_homes").shuffle(shuffled)
    return {
        user_id: server_ids[i % len(server_ids)]
        for i, user_id in enumerate(shuffled)
    }


class FederationBase:
    """Shared plumbing: servers, user homes, rooms."""

    def __init__(
        self,
        network: Network,
        server_ids: List[str],
        node_class: str = NodeClass.HOME_SERVER,
    ):
        if not server_ids:
            raise GroupCommError("a federation needs at least one server")
        self.network = network
        self.server_ids = list(server_ids)
        for server_id in self.server_ids:
            if not network.has_node(server_id):
                network.create_node(server_id, node_class=node_class)
        self.homes: Dict[str, str] = {}
        self._rooms: Dict[str, Room] = {}

    # -- membership ------------------------------------------------------------

    def add_user(self, user: str, home: Optional[str] = None) -> str:
        """Home a user (round-robin by default); creates their device node."""
        if user in self.homes:
            raise GroupCommError(f"user {user!r} already registered")
        if home is None:
            index = len(self.homes) % len(self.server_ids)
            home = self.server_ids[index]
        if home not in self.server_ids:
            raise GroupCommError(f"unknown server {home!r}")
        if not self.network.has_node(user):
            self.network.create_node(user, node_class=NodeClass.PERSONAL_COMPUTER)
        self.homes[user] = home
        return home

    def add_users(self, users: List[str], seed: int = 0) -> None:
        assignment = federation_homes(users, self.server_ids, seed=seed)
        # Same contract as add_user: bulk registration must not silently
        # re-home an existing user.  Checked up front so a duplicate
        # mid-list leaves no partial assignment behind.
        for user in users:
            if user in self.homes:
                raise GroupCommError(f"user {user!r} already registered")
        for user, home in assignment.items():
            if not self.network.has_node(user):
                self.network.create_node(user, node_class=NodeClass.PERSONAL_COMPUTER)
            self.homes[user] = home

    def home_of(self, user: str) -> str:
        home = self.homes.get(user)
        if home is None:
            raise GroupCommError(f"user {user!r} has no home server")
        return home

    def create_room(self, room_id: str, members: List[str], public: bool = False) -> Room:
        if room_id in self._rooms:
            raise GroupCommError(f"room {room_id!r} exists")
        for member in members:
            self.home_of(member)  # all members must be homed
        room = Room(room_id, set(members), public)
        self._rooms[room_id] = room
        return room

    def room(self, room_id: str) -> Room:
        room = self._rooms.get(room_id)
        if room is None:
            raise GroupCommError(f"no room {room_id!r}")
        return room

    def servers_for_room(self, room_id: str) -> Set[str]:
        """Servers homing at least one member."""
        room = self.room(room_id)
        return {self.home_of(member) for member in room.members}


class SingleHomeFederation(FederationBase):
    """OStatus-style push federation with per-server timelines.

    Each instance may set its own moderation policy
    (:meth:`set_instance_policy`) — Mastodon's model: "allows federations
    to define their own rules on abuse" (§3.2).  A policy filters both
    what an instance accepts from peers and what it serves its users.
    """

    kind = "federated_single_home"

    def __init__(self, network: Network, server_ids: List[str], **kwargs):
        super().__init__(network, server_ids, **kwargs)
        # Per-server room timelines (server_id -> room -> messages).
        self._timelines: Dict[str, Dict[str, List[Message]]] = {
            server_id: defaultdict(list) for server_id in self.server_ids
        }
        self._policies: Dict[str, object] = {}
        for server_id in self.server_ids:
            node = network.node(server_id)
            node.register_handler("fed.post", self._make_post_handler(server_id))
            node.register_handler("fed.fetch", self._make_fetch_handler(server_id))
            node.register_handler("fed.push", self._make_push_handler(server_id))

    def _make_post_handler(self, server_id: str):
        def handler(node, payload: dict, sender: str) -> dict:
            user, room_id, body = payload["user"], payload["room"], payload["body"]
            if self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            room = self.room(room_id)
            room.require_member(user)
            message = Message(
                author=user, room=room_id, body=body,
                sent_at=self.network.sim.now,
                seq=len(self._timelines[server_id][room_id]),
            )
            self._timelines[server_id][room_id].append(message)
            # Push once to every other involved server; no retry, no repair.
            # Sorted: servers_for_room returns a set, and fan-out order
            # must not depend on hash order in a simulated package.
            for peer in sorted(self.servers_for_room(room_id)):
                if peer != server_id:
                    self.network.send(
                        server_id, peer, "fed.push",
                        {"room": room_id, "message": message},
                    )
            return {"msg_id": message.msg_id}

        return handler

    def set_instance_policy(self, server_id: str, policy) -> None:
        """Attach a moderation policy (see
        :mod:`repro.groupcomm.moderation`) to one instance."""
        if server_id not in self.server_ids:
            raise GroupCommError(f"unknown server {server_id!r}")
        self._policies[server_id] = policy

    def _instance_allows(self, server_id: str, message: Message) -> bool:
        policy = self._policies.get(server_id)
        return policy is None or policy.allows(message)

    def _make_push_handler(self, server_id: str):
        def handler(node, payload: dict, sender: str) -> None:
            room_id, message = payload["room"], payload["message"]
            if not self._instance_allows(server_id, message):
                return  # this instance's rules reject the content
            timeline = self._timelines[server_id][room_id]
            if all(m.msg_id != message.msg_id for m in timeline):
                timeline.append(message)

        return handler

    def _make_fetch_handler(self, server_id: str):
        def handler(node, payload: dict, sender: str) -> List[Message]:
            user, room_id = payload["user"], payload["room"]
            if self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            self.room(room_id).require_member(user)
            return sorted(
                (
                    m for m in self._timelines[server_id][room_id]
                    if self._instance_allows(server_id, m)
                ),
                key=lambda m: (m.sent_at, m.msg_id),
            )

        return handler

    # -- client operations ---------------------------------------------------------

    def post(self, user: str, room_id: str, body: Any) -> Generator:
        """Post via the user's home server; fails if the home is down."""
        home = self.home_of(user)
        try:
            answer = yield from self.network.rpc(
                user, home, "fed.post",
                {"user": user, "room": room_id, "body": body},
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return answer["msg_id"]

    def fetch(self, user: str, room_id: str) -> Generator:
        """Read from the user's home server only — the single-home
        bottleneck: home down means this user sees nothing."""
        home = self.home_of(user)
        try:
            messages = yield from self.network.rpc(
                user, home, "fed.fetch", {"user": user, "room": room_id}
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return messages


class ReplicatedFederation(FederationBase):
    """Matrix-style full replication via anti-entropy."""

    kind = "federated_replicated"

    def __init__(
        self,
        network: Network,
        server_ids: List[str],
        streams: RngStreams,
        gossip_interval: float = 5.0,
        allow_failover: bool = False,
        **kwargs,
    ):
        super().__init__(network, server_ids, **kwargs)
        self.allow_failover = allow_failover
        self.replicas: Dict[str, AntiEntropyNode] = {
            server_id: AntiEntropyNode(
                network, network.node(server_id), self.server_ids, streams,
                interval=gossip_interval,
            )
            for server_id in self.server_ids
        }
        for server_id in self.server_ids:
            node = network.node(server_id)
            node.register_handler("fed.post", self._make_post_handler(server_id))
            node.register_handler("fed.fetch", self._make_fetch_handler(server_id))

    def start_replication(self) -> None:
        for replica in self.replicas.values():
            replica.start()

    def stop_replication(self) -> None:
        for replica in self.replicas.values():
            replica.stop()

    def _make_post_handler(self, server_id: str):
        def handler(node, payload: dict, sender: str) -> dict:
            user, room_id, body = payload["user"], payload["room"], payload["body"]
            encrypted = payload.get("encrypted", False)
            if self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            room = self.room(room_id)
            room.require_member(user)
            message = Message(
                author=user, room=room_id, body=body,
                sent_at=self.network.sim.now, encrypted=encrypted,
                seq=len(self.replicas[server_id].store),
            )
            self.replicas[server_id].write(
                f"{room_id}/{message.msg_id}",
                {
                    "author": message.author,
                    "room": message.room,
                    "body": message.body,
                    "sent_at": message.sent_at,
                    "encrypted": message.encrypted,
                    "seq": message.seq,
                },
            )
            return {"msg_id": message.msg_id}

        return handler

    def _make_fetch_handler(self, server_id: str):
        def handler(node, payload: dict, sender: str) -> List[Message]:
            user, room_id = payload["user"], payload["room"]
            if not self.allow_failover and self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            self.room(room_id).require_member(user)
            return self._room_messages(server_id, room_id)

        return handler

    def _room_messages(self, server_id: str, room_id: str) -> List[Message]:
        store = self.replicas[server_id].store
        messages = []
        prefix = f"{room_id}/"
        for key in store.keys():
            if key.startswith(prefix):
                raw = store.get(key)
                messages.append(
                    Message(
                        author=raw["author"], room=raw["room"], body=raw["body"],
                        sent_at=raw["sent_at"], encrypted=raw["encrypted"],
                        seq=raw["seq"],
                    )
                )
        return sorted(messages, key=lambda m: (m.sent_at, m.msg_id))

    # -- client operations ---------------------------------------------------------

    def post(self, user: str, room_id: str, body: Any, encrypted: bool = False) -> Generator:
        home = self.home_of(user)
        try:
            answer = yield from self.network.rpc(
                user, home, "fed.post",
                {"user": user, "room": room_id, "body": body, "encrypted": encrypted},
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return answer["msg_id"]

    def fetch(self, user: str, room_id: str) -> Generator:
        """Read from the home server; with ``allow_failover``, any live
        federation server answers when the home is down."""
        home = self.home_of(user)
        targets = [home]
        if self.allow_failover:
            targets += [s for s in self.server_ids if s != home]
        last_error: Optional[Exception] = None
        for target in targets:
            try:
                messages = yield from self.network.rpc(
                    user, target, "fed.fetch", {"user": user, "room": room_id}
                )
                return messages
            except RemoteError as exc:
                raise exc.remote_exception
            except RpcTimeoutError as exc:
                last_error = exc
                continue
        raise last_error if last_error else GroupCommError("no servers")

    def server_metadata_view(self, server_id: str) -> List[Dict[str, Any]]:
        """What one server's operator can observe: metadata always, bodies
        only when not end-to-end encrypted (§3.2's Matrix caveat)."""
        out = []
        store = self.replicas[server_id].store
        for key in store.keys():
            raw = store.get(key)
            entry: Dict[str, Any] = {
                "author": raw["author"],
                "room": raw["room"],
                "sent_at": raw["sent_at"],
            }
            if not raw["encrypted"]:
                entry["body"] = raw["body"]
            out.append(entry)
        return out
