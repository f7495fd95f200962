"""The project taxonomy — the paper's Table 1 as a machine-readable registry.

Each surveyed project is recorded with the decentralization problem(s) it
tackles, its network model, and which simulated system family in this
library models its mechanism.  Claim E1 *derives* the table from
this registry instead of printing string constants, and tests check the
registry against the simulated families actually shipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ReproError

__all__ = ["Problem", "NetworkModel", "Project", "PROJECTS", "table1_rows", "projects_for"]


class Problem:
    """The four decentralization problem categories of §3."""

    NAMING = "Naming"
    GROUP_COMMUNICATION = "Group Communication"
    DATA_STORAGE = "Data storage"
    WEB_APPLICATIONS = "Web applications"

    ALL = (NAMING, GROUP_COMMUNICATION, DATA_STORAGE, WEB_APPLICATIONS)


class NetworkModel:
    """How a project organizes its participants (§3.2's dichotomy plus
    the blockchain and browser-based models of §3.1/§3.4)."""

    BLOCKCHAIN = "blockchain"
    FEDERATED = "federated"
    SOCIAL_P2P = "socially_aware_p2p"
    OPEN_P2P = "open_p2p"
    BROWSER_BASED = "browser_based"

    ALL = (BLOCKCHAIN, FEDERATED, SOCIAL_P2P, OPEN_P2P, BROWSER_BASED)


@dataclass(frozen=True)
class Project:
    """One surveyed system."""

    name: str
    problems: Tuple[str, ...]
    network_model: str
    simulated_by: str  # repro subpackage/family that models its mechanism
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.problems:
            raise ReproError(f"project {self.name!r} must tackle a problem")
        for problem in self.problems:
            if problem not in Problem.ALL:
                raise ReproError(f"unknown problem {problem!r} for {self.name!r}")
        if self.network_model not in NetworkModel.ALL:
            raise ReproError(
                f"unknown network model {self.network_model!r} for {self.name!r}"
            )


# Table 1 of the paper, row by row, plus per-project mechanism notes drawn
# from §3's prose.
PROJECTS: Tuple[Project, ...] = (
    # -- Naming (§3.1) -----------------------------------------------------
    Project(
        "Namecoin", (Problem.NAMING,), NetworkModel.BLOCKCHAIN,
        "repro.naming.BlockchainNameRegistry",
        "First blockchain name system; Bitcoin-derived chain stores names",
    ),
    Project(
        "Emercoin", (Problem.NAMING,), NetworkModel.BLOCKCHAIN,
        "repro.naming.BlockchainNameRegistry",
        "Blockchain DNS/identity services",
    ),
    Project(
        "Blockstack", (Problem.NAMING, Problem.DATA_STORAGE), NetworkModel.BLOCKCHAIN,
        "repro.naming.BlockchainNameRegistry",
        "Binds name + public key + zone-file hash on chain; data off-chain",
    ),
    # -- Group communication (§3.2) -----------------------------------------
    Project(
        "Matrix", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.ReplicatedFederation",
        "Replicates room data across federated servers; E2E double ratchet",
    ),
    Project(
        "Riot", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.ReplicatedFederation",
        "Chat application built on Matrix",
    ),
    Project(
        "Ring", (Problem.GROUP_COMMUNICATION,), NetworkModel.OPEN_P2P,
        "repro.groupcomm.SocialP2PNetwork",
        "Distributed communication platform",
    ),
    Project(
        "Nextcloud", (Problem.GROUP_COMMUNICATION, Problem.DATA_STORAGE),
        NetworkModel.FEDERATED,
        "repro.groupcomm.SingleHomeFederation",
        "Self-hosted file sync and sharing",
    ),
    Project(
        "GNU social", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.SingleHomeFederation",
        "OStatus federation; no intrinsic privacy mechanisms",
    ),
    Project(
        "Mastodon", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.SingleHomeFederation",
        "OStatus-based; per-instance abuse rules",
    ),
    Project(
        "Friendica", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.SingleHomeFederation",
        "pump.io-based; application-level privacy, data expiry",
    ),
    Project(
        "Identi.ca", (Problem.GROUP_COMMUNICATION,), NetworkModel.FEDERATED,
        "repro.groupcomm.SingleHomeFederation",
        "pump.io federated stream server",
    ),
    # -- Data storage (§3.3, Table 2) ------------------------------------------
    Project(
        "IPFS", (Problem.DATA_STORAGE,), NetworkModel.OPEN_P2P,
        "repro.storage.StorageSystemProfile",
        "Content-addressed DHT storage; Bitswap ledgers, no blockchain",
    ),
    Project(
        "MaidSafe", (Problem.DATA_STORAGE,), NetworkModel.OPEN_P2P,
        "repro.storage.StorageSystemProfile",
        "Proof-of-resource, distributed transactions, no blockchain",
    ),
    Project(
        "Secure-scuttlebutt", (Problem.DATA_STORAGE,), NetworkModel.SOCIAL_P2P,
        "repro.groupcomm.SocialP2PNetwork",
        "Unforgeable append-only feeds replicated between friends",
    ),
    Project(
        "Sia", (Problem.DATA_STORAGE,), NetworkModel.BLOCKCHAIN,
        "repro.storage.StorageSystemProfile",
        "Blockchain contracts + proof-of-storage",
    ),
    Project(
        "Storj", (Problem.DATA_STORAGE,), NetworkModel.BLOCKCHAIN,
        "repro.storage.StorageSystemProfile",
        "Payments in storjcoin; proof-of-retrievability",
    ),
    Project(
        "Swarm", (Problem.DATA_STORAGE,), NetworkModel.BLOCKCHAIN,
        "repro.storage.StorageSystemProfile",
        "Ethereum for naming/payments/insurance; SWEAR proof-of-storage",
    ),
    Project(
        "Filecoin", (Problem.DATA_STORAGE,), NetworkModel.BLOCKCHAIN,
        "repro.storage.StorageSystemProfile",
        "Proof-of-replication + proof-of-spacetime market",
    ),
    # -- Web applications (§3.4) --------------------------------------------------
    Project(
        "Beaker", (Problem.WEB_APPLICATIONS,), NetworkModel.BROWSER_BASED,
        "repro.webapps.HostlessSite",
        "Browser creates/hosts sites P2P; fork/merge like Git",
    ),
    Project(
        "ZeroNet", (Problem.WEB_APPLICATIONS,), NetworkModel.BROWSER_BASED,
        "repro.webapps.HostlessSite",
        "Sites seeded by visitors over BitTorrent; Bitcoin-key site ids",
    ),
    Project(
        "Freedom.js", (Problem.WEB_APPLICATIONS,), NetworkModel.BROWSER_BASED,
        "repro.webapps.HostlessSite",
        "Identity/storage/transport APIs; WebRTC + DHT backends",
    ),
)


def projects_for(problem: str) -> List[Project]:
    """Projects tackling a problem category (Table 1 row contents)."""
    if problem not in Problem.ALL:
        raise ReproError(f"unknown problem category {problem!r}")
    return [p for p in PROJECTS if problem in p.problems]


def table1_rows() -> List[Dict[str, str]]:
    """Regenerate Table 1: problem category -> comma-joined project list."""
    return [
        {
            "problem": problem,
            "projects": ", ".join(p.name for p in projects_for(problem)),
        }
        for problem in Problem.ALL
    ]
