"""Gossip substrate: anti-entropy replication, flooding pub/sub, and
censorship-circumvention relay discovery."""

from repro.gossip.antientropy import AntiEntropyNode, ReplicaStore, Stamp, Versioned
from repro.gossip.pubsub import PubSubMessage, PubSubNode, build_pubsub_overlay
from repro.gossip.relay import (
    RELAY_DIRECTORY_KEY,
    RELAY_METHOD_PREFIX,
    CircumventionClient,
    RelayNode,
    discover_relays,
    publish_relay_directory,
)

__all__ = [
    "AntiEntropyNode",
    "ReplicaStore",
    "Stamp",
    "Versioned",
    "PubSubMessage",
    "PubSubNode",
    "build_pubsub_overlay",
    "RELAY_DIRECTORY_KEY",
    "RELAY_METHOD_PREFIX",
    "CircumventionClient",
    "RelayNode",
    "discover_relays",
    "publish_relay_directory",
]
