"""Simulated network substrate: nodes, latency, transport, churn.

The graph builders (plain adjacency dicts) are imported from
:mod:`repro.net.topology`.
"""

from repro.net.churn import (
    DATACENTER_PROFILE,
    HOME_SERVER_PROFILE,
    PERSONAL_COMPUTER_PROFILE,
    SMARTPHONE_PROFILE,
    TABLET_PROFILE,
    ChurnProcess,
    ChurnProfile,
    attach_churn,
    profile_for_class,
)
from repro.net.latency import ConstantLatency, LatencyModel, LogNormalLatency
from repro.net.node import Node, NodeClass
from repro.net.transport import (
    DEFAULT_MESSAGE_BYTES,
    CensorSurface,
    FaultSurface,
    Network,
)

__all__ = [
    "Node",
    "NodeClass",
    "Network",
    "CensorSurface",
    "FaultSurface",
    "DEFAULT_MESSAGE_BYTES",
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "ChurnProfile",
    "ChurnProcess",
    "attach_churn",
    "profile_for_class",
    "DATACENTER_PROFILE",
    "HOME_SERVER_PROFILE",
    "PERSONAL_COMPUTER_PROFILE",
    "SMARTPHONE_PROFILE",
    "TABLET_PROFILE",
]
