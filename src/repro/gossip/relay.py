"""Censorship circumvention: relay forwarding and relay discovery.

The counterpart of the :class:`repro.faults.Censor` campaign.  A censor
hard-blocks cross-border traffic to blocklisted endpoints but must let
other cross-border traffic pass (total disconnection is the one move the
cost model makes visibly expensive) — relays live in that gap:

* :class:`RelayNode` — an *outside* volunteer that forwards requests to
  blocked services on behalf of inside clients (``relay.fwd``, a nested
  RPC).  All relay protocol methods share the ``relay.`` prefix, which
  is exactly the protocol fingerprint a campaign's DPI watches for
  (:class:`~repro.faults.Censor` ``fingerprints=("relay.",)``): every
  forwarded request leaks one detection opportunity, so relays are a
  wasting asset and discovery of fresh ones is what keeps reachability
  up.
* :meth:`RelayNode.announce` — gossip discovery: relays broadcast
  ``relay.announce`` to known peers and inside listeners learn their
  addresses, but the announcement itself crosses the border carrying
  the fingerprint (a realistic leak).
* :class:`CircumventionClient` — an inside client that tries the direct
  path first and then rotates deterministically through its known
  relays, so scenarios can measure reachability over time as the censor
  re-blocks detected relays.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import NetworkError, RemoteError, RpcTimeoutError
from repro.net.transport import Network

__all__ = [
    "RELAY_METHOD_PREFIX",
    "CircumventionClient",
    "RelayNode",
]

#: Prefix shared by every relay protocol method — and therefore the
#: fingerprint censor campaigns watch for.
RELAY_METHOD_PREFIX = "relay."


class RelayNode:
    """An outside volunteer forwarding requests past the border.

    Registers the ``relay.fwd`` handler: the payload names a final
    destination, method, and inner payload; the relay performs the
    nested RPC and returns the destination's answer.  From the censor's
    viewpoint only the client↔relay leg crosses the border — the
    relay↔service leg is outside traffic — so a block on the *service*
    does not stop the relayed flow.  The ``relay.`` fingerprint on the
    crossing leg is what eventually gets the relay itself blocked.
    """

    def __init__(self, network: Network, node_id: str):
        self.network = network
        self.node = network.node(node_id)
        self.forwarded = 0
        self.forward_failures = 0
        self.node.register_handler("relay.fwd", self._on_forward)

    def _on_forward(self, node: Any, payload: Dict[str, Any],
                    sender: str) -> Generator:
        dst = payload["dst"]
        try:
            value = yield from self.network.rpc(
                self.node.node_id,
                dst,
                payload["method"],
                payload.get("payload"),
                timeout=payload.get("timeout", 30.0),
            )
        except (RpcTimeoutError, RemoteError) as exc:
            self.forward_failures += 1
            raise NetworkError(
                f"relay {self.node.node_id!r} could not reach {dst!r}"
            ) from exc
        self.forwarded += 1
        return value

    def announce(self, peer_ids: Iterable[str]) -> int:
        """Broadcast this relay's address to ``peer_ids``.

        Push-based discovery: cheap and fast, but each announcement that
        crosses a censored border carries the ``relay.`` fingerprint and
        is itself a detection opportunity.  Returns the number of
        announcements sent.
        """
        return self.network.broadcast(
            self.node.node_id, peer_ids, "relay.announce", self.node.node_id
        )


class CircumventionClient:
    """An inside client that falls back to relays when directly blocked.

    :meth:`request` tries the direct RPC first; on timeout it walks the
    known-relay list in deterministic order (list order, starting from
    the relay after the last one that worked) so the same (plan, seed)
    run replays identically.  Relays that fail are skipped this attempt
    but stay in the list — a later campaign heal makes them useful
    again.

    The client also listens for ``relay.announce`` gossip and records
    every outcome in :attr:`attempts` (``(t, outcome, via)`` triples),
    which is the scenarios' reachability-over-time measurement.
    """

    def __init__(self, network: Network, node_id: str,
                 relays: Iterable[str] = ()):
        self.network = network
        self.node = network.node(node_id)
        self.relays: List[str] = []
        self.learn(relays)
        self._preferred = 0
        self.direct_ok = 0
        self.relayed_ok = 0
        self.failures = 0
        self.attempts: List[Tuple[float, str, Optional[str]]] = []
        self.node.register_handler("relay.announce", self._on_announce)

    def _on_announce(self, node: Any, payload: Any, sender: str) -> None:
        self.learn([str(payload)])

    def learn(self, relay_ids: Iterable[str]) -> None:
        """Add relays to the rotation (order-preserving, de-duplicated)."""
        for relay_id in relay_ids:
            if relay_id != self.node.node_id and relay_id not in self.relays:
                self.relays.append(relay_id)

    def request(self, dst_id: str, method: str, payload: Any = None,
                timeout: float = 5.0) -> Generator:
        """Reach ``dst_id`` directly or via a relay (yieldable process).

        Returns the handler's value.  Raises :class:`RpcTimeoutError`
        only after the direct path and every known relay have failed.
        """
        try:
            value = yield from self.network.rpc(
                self.node.node_id, dst_id, method, payload, timeout=timeout
            )
        except RpcTimeoutError:
            pass
        else:
            self.direct_ok += 1
            self.attempts.append((self.network.sim.now, "direct", None))
            return value
        for offset in range(len(self.relays)):
            index = (self._preferred + offset) % len(self.relays)
            relay_id = self.relays[index]
            try:
                value = yield from self.network.rpc(
                    self.node.node_id,
                    relay_id,
                    "relay.fwd",
                    {"dst": dst_id, "method": method, "payload": payload,
                     "timeout": timeout},
                    timeout=timeout * 2,
                )
            except (RpcTimeoutError, RemoteError):
                continue
            self._preferred = index
            self.relayed_ok += 1
            self.attempts.append((self.network.sim.now, "relay", relay_id))
            return value
        self.failures += 1
        self.attempts.append((self.network.sim.now, "blocked", None))
        raise RpcTimeoutError(
            f"{self.node.node_id!r} cannot reach {dst_id!r} directly or via"
            f" any of {len(self.relays)} relay(s)"
        )
