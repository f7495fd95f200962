"""Socially-aware P2P communication (PrPl / Persona / Lockr, §3.2).

Users keep ownership of their data: posts live on the author's own device
and, optionally, on friends' devices as encrypted replicas.  Peers serve
*only* socially-trusted requesters (graph neighbours), which is what buys
privacy — and what costs availability, because the set of nodes allowed to
serve a post is small and device-grade (the trade E5 quantifies).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional

from repro.errors import (
    AccessDeniedError,
    GroupCommError,
    RemoteError,
    RpcTimeoutError,
)
from repro.groupcomm.messages import Audience, Message
from repro.net.node import NodeClass
from repro.net.transport import Network

__all__ = ["SocialP2PNetwork"]


class SocialP2PNetwork:
    """A friend-to-friend data network over a social graph."""

    kind = "socially_aware_p2p"

    def __init__(
        self,
        network: Network,
        social_graph: Dict[str, List[str]],
        replicate_to_friends: int = 2,
        node_class: str = NodeClass.PERSONAL_COMPUTER,
    ):
        if replicate_to_friends < 0:
            raise GroupCommError(
                f"replication count cannot be negative: {replicate_to_friends}"
            )
        self.network = network
        self.graph = social_graph
        self.replicate_to_friends = replicate_to_friends
        # user -> author -> messages held locally (own posts + replicas).
        self._held: Dict[str, Dict[str, List[Message]]] = defaultdict(
            lambda: defaultdict(list)
        )
        # user -> designated close friends (a subset of their friends).
        self._close_friends: Dict[str, set] = defaultdict(set)
        for user in social_graph:
            if not network.has_node(user):
                network.create_node(user, node_class=node_class)
            network.node(user).register_handler(
                "p2p.fetch", self._make_fetch_handler(user)
            )
            network.node(user).register_handler(
                "p2p.replica", self._make_replica_handler(user)
            )

    # -- social checks --------------------------------------------------------

    def friends_of(self, user: str) -> List[str]:
        if user not in self.graph:
            raise GroupCommError(f"unknown user {user!r}")
        return sorted(self.graph[user])

    def are_friends(self, a: str, b: str) -> bool:
        return b in self.graph.get(a, ())

    # -- access levels (Persona/Lockr-style, §3.2) -----------------------------

    def designate_close_friends(self, user: str, close: List[str]) -> None:
        """Mark a subset of a user's friends as close friends.

        Relationship definitions stay with the user — the §3.2 point that
        these systems let users define relationships and ensure they are
        not exploited.
        """
        for friend in close:
            if not self.are_friends(user, friend):
                raise GroupCommError(
                    f"{friend!r} is not a friend of {user!r};"
                    " close friends must be friends first"
                )
        self._close_friends[user] = set(close)

    def relationship(self, author: str, reader: str) -> str:
        """The reader's relationship to the author: self, close_friend,
        friend, or stranger."""
        if reader == author:
            return "self"
        if reader in self._close_friends.get(author, set()):
            return "close_friend"
        if self.are_friends(author, reader):
            return "friend"
        return "stranger"

    def may_read(self, author: str, reader: str, audience: str) -> bool:
        """Does the author's access policy allow this reader?"""
        relationship = self.relationship(author, reader)
        if relationship == "self":
            return True
        if audience == Audience.PUBLIC:
            return True
        if audience == Audience.FRIENDS:
            return relationship in ("friend", "close_friend")
        if audience == Audience.CLOSE_FRIENDS:
            return relationship == "close_friend"
        raise GroupCommError(f"unknown audience {audience!r}")

    # -- handlers -----------------------------------------------------------------

    def _make_fetch_handler(self, holder: str):
        def handler(node, payload: dict, sender: str) -> List[Message]:
            author, reader = payload["author"], payload["reader"]
            # Trust gate: strangers may only receive the author's public
            # posts; every message is filtered by the author's policy.
            allowed = [
                m
                for m in self._held[holder].get(author, [])
                if self.may_read(author, reader, m.audience)
            ]
            if not allowed and self.relationship(author, reader) == "stranger":
                raise AccessDeniedError(
                    f"{reader!r} is not trusted by {author!r}"
                )
            return allowed

        return handler

    def _make_replica_handler(self, holder: str):
        def handler(node, payload: dict, sender: str) -> bool:
            message: Message = payload["message"]
            if not self.are_friends(holder, message.author):
                raise AccessDeniedError(
                    f"{holder!r} does not accept replicas from strangers"
                )
            held = self._held[holder][message.author]
            if all(m.msg_id != message.msg_id for m in held):
                held.append(message)
            return True

        return handler

    # -- client operations ------------------------------------------------------------

    def post(self, author: str, body: Any, audience: str = Audience.FRIENDS) -> Generator:
        """Store a post locally and replicate to up to
        ``replicate_to_friends`` currently-online friends.

        ``audience`` sets the access level: public posts serve anyone,
        friends-posts serve graph neighbours, close-friends posts serve
        only the author's designated subset.
        """
        if audience not in Audience.ALL:
            raise GroupCommError(f"unknown audience {audience!r}")
        if not self.network.node(author).online:
            raise GroupCommError(f"{author!r} is offline and cannot post")
        message = Message(
            author=author, room=f"feed:{author}", body=body,
            sent_at=self.network.sim.now,
            seq=len(self._held[author][author]),
            audience=audience,
        )
        self._held[author][author].append(message)
        replicated = 0
        for friend in self.friends_of(author):
            if replicated >= self.replicate_to_friends:
                break
            if not self.network.node(friend).online:
                continue
            try:
                ok = yield from self.network.rpc(
                    author, friend, "p2p.replica", {"message": message},
                    timeout=5.0,
                )
                if ok:
                    replicated += 1
            except (RpcTimeoutError, RemoteError):
                continue
        return message.msg_id

    def fetch(self, reader: str, author: str) -> Generator:
        """Read an author's feed: try the author's device, then their
        friends' replicas.  Returns only messages the author's access
        policy allows this reader; raises when no trusted holder is
        reachable — the availability cost of the socially-gated design."""
        if (
            reader != author
            and not self.are_friends(author, reader)
            and not any(
                m.audience == Audience.PUBLIC
                for m in self._held[author].get(author, [])
            )
        ):
            raise AccessDeniedError(f"{reader!r} is not trusted by {author!r}")
        holders = [author] + self.friends_of(author)
        last_error: Optional[Exception] = None
        for holder in holders:
            try:
                messages = yield from self.network.rpc(
                    reader, holder, "p2p.fetch",
                    {"author": author, "reader": reader},
                    timeout=5.0,
                )
            except RpcTimeoutError as exc:
                last_error = exc
                continue
            except RemoteError as exc:
                raise exc.remote_exception
            if messages:
                return sorted(messages, key=lambda m: m.seq)
        if last_error is not None:
            raise GroupCommError(
                f"no trusted holder of {author!r}'s feed is reachable"
            )
        return []

    # -- measurement hooks ---------------------------------------------------------------

    def replica_count(self, author: str, msg_id: str) -> int:
        """How many devices currently hold a message (incl. the author)."""
        return sum(
            1
            for holder in [author] + self.friends_of(author)
            if any(
                m.msg_id == msg_id for m in self._held[holder].get(author, [])
            )
        )

    def holders(self, author: str) -> List[str]:
        """Devices holding any of the author's posts."""
        return [
            holder
            for holder in [author] + self.friends_of(author)
            if self._held[holder].get(author)
        ]
