"""Gossip substrate: anti-entropy replication, flooding pub/sub, and
censorship-circumvention relays discovered by gossip."""

from repro.gossip.antientropy import AntiEntropyNode, ReplicaStore, Stamp, Versioned
from repro.gossip.pubsub import PubSubMessage, PubSubNode, build_pubsub_overlay
from repro.gossip.relay import (
    RELAY_METHOD_PREFIX,
    CircumventionClient,
    RelayNode,
)

__all__ = [
    "AntiEntropyNode",
    "ReplicaStore",
    "Stamp",
    "Versioned",
    "PubSubMessage",
    "PubSubNode",
    "build_pubsub_overlay",
    "RELAY_METHOD_PREFIX",
    "CircumventionClient",
    "RelayNode",
]
