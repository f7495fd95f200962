"""Simulated network nodes.

A :class:`Node` is an addressable endpoint with an online/offline state and
a registry of RPC handlers.  Protocol layers (DHT, blockchain, federation
servers...) attach behaviour to nodes by registering handlers; the transport
(:mod:`repro.net.transport`) invokes them when messages arrive.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.transport import Network

__all__ = ["Node", "NodeClass"]


class NodeClass:
    """Coarse hardware classes used throughout the experiments.

    The paper's §5.2 ("quality vs quantity") contrasts datacenter-grade
    infrastructure against user-device-grade infrastructure; these labels
    select churn and bandwidth profiles.
    """

    DATACENTER = "datacenter"
    HOME_SERVER = "home_server"
    PERSONAL_COMPUTER = "personal_computer"
    SMARTPHONE = "smartphone"
    TABLET = "tablet"

    ALL = (DATACENTER, HOME_SERVER, PERSONAL_COMPUTER, SMARTPHONE, TABLET)


Handler = Callable[["Node", Any, str], Any]


class Node:
    """An addressable endpoint in the simulated network.

    Parameters
    ----------
    node_id:
        Unique string identifier.
    node_class:
        One of :class:`NodeClass`; selects default churn/bandwidth profiles.
    upstream_bps / downstream_bps:
        Access-link capacities in bits per second.  The paper assumes
        1 Mbps upstream for user devices (§4).
    """

    def __init__(
        self,
        node_id: str,
        node_class: str = NodeClass.DATACENTER,
        upstream_bps: float = 1e9,
        downstream_bps: float = 1e9,
    ):
        if node_class not in NodeClass.ALL:
            raise NetworkError(f"unknown node class {node_class!r}")
        self.node_id = node_id
        self.node_class = node_class
        self.upstream_bps = float(upstream_bps)
        self.downstream_bps = float(downstream_bps)
        self.online = True
        self.network: Optional["Network"] = None
        self._handlers: Dict[str, Handler] = {}
        # Bytes this node has sent, maintained by the transport.
        self.bytes_sent = 0
        # Lifetime accounting, maintained by churn processes.
        self.total_online_time = 0.0
        self.last_state_change = 0.0
        self.sessions = 0

    # -- handler registry -------------------------------------------------

    def register_handler(self, method: str, handler: Handler) -> None:
        """Register ``handler(node, payload, sender_id)`` for ``method``.

        Re-registering a method replaces the previous handler (protocols
        may be re-deployed onto the same node).
        """
        self._handlers[method] = handler

    def has_handler(self, method: str) -> bool:
        return method in self._handlers

    def dispatch(self, method: str, payload: Any, sender_id: str) -> Any:
        """Invoke the registered handler; used by the transport layer."""
        handler = self._handlers.get(method)
        if handler is None:
            raise NetworkError(
                f"node {self.node_id!r} has no handler for {method!r}"
            )
        return handler(self, payload, sender_id)

    # -- liveness ----------------------------------------------------------

    def set_online(self, online: bool, now: float) -> None:
        """Flip liveness, maintaining uptime accounting.

        Idempotent: setting the current state again is a no-op.
        """
        if online == self.online:
            return
        if self.online:
            self.total_online_time += now - self.last_state_change
        else:
            self.sessions += 1
        self.online = online
        self.last_state_change = now

    def uptime_fraction(self, now: float) -> float:
        """Fraction of [0, now] this node was online."""
        if now <= 0:
            return 1.0 if self.online else 0.0
        total = self.total_online_time
        if self.online:
            total += now - self.last_state_change
        return total / now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.online else "down"
        return f"Node({self.node_id!r}, {self.node_class}, {state})"
