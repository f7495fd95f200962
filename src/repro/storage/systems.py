"""Table 2 as machine-readable system profiles.

Each surveyed storage system is described by its blockchain usage and
incentive scheme (the paper's two columns) plus the concrete mechanism in
this library that models it.  The tests *run* each profile's mechanism
once (a contract, a payment, a proof round) and claim E2 checks the rows
— the table is behaviourally checked, not transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.marketplace import ProofKind

__all__ = ["BlockchainUsage", "StorageSystemProfile", "TABLE2_SYSTEMS", "table2_rows", "profile_for"]


class BlockchainUsage:
    NONE = "None"
    CONTRACTS = "Blockchain-based contract"
    PAYMENTS = "Facilitate payments"
    FULL = "Naming, payments, and availability insurance"
    NAME_BINDING = "Bind domain name, public key, and zone file hash"


@dataclass(frozen=True)
class StorageSystemProfile:
    """One Table 2 row, with the simulation hooks that exercise it."""

    name: str
    blockchain_usage: str
    incentive_scheme: str
    proof_kind: str           # which audit game models the incentive
    notes: str = ""

    def __post_init__(self) -> None:
        if self.proof_kind not in ProofKind.ALL:
            raise StorageError(
                f"{self.name}: unknown proof kind {self.proof_kind!r}"
            )


TABLE2_SYSTEMS: Tuple[StorageSystemProfile, ...] = (
    StorageSystemProfile(
        name="IPFS",
        blockchain_usage=BlockchainUsage.NONE,
        incentive_scheme="Bitswap Ledgers",
        proof_kind=ProofKind.NONE,
        notes="Pairwise barter accounting; no global audits",
    ),
    StorageSystemProfile(
        name="MaidSafe",
        blockchain_usage=BlockchainUsage.NONE,
        incentive_scheme="Proof-of-resource / Distributed transaction",
        proof_kind=ProofKind.STORAGE,
        notes="Resource proofs without a global chain",
    ),
    StorageSystemProfile(
        name="Sia",
        blockchain_usage=BlockchainUsage.CONTRACTS,
        incentive_scheme="Proof-of-storage",
        proof_kind=ProofKind.STORAGE,
        notes="File contracts recorded on its blockchain",
    ),
    StorageSystemProfile(
        name="Storj",
        blockchain_usage=BlockchainUsage.PAYMENTS + " (storjcoin)",
        incentive_scheme="Proof-of-retrievability",
        proof_kind=ProofKind.RETRIEVABILITY,
        notes="Audits sample chunks; payments in storjcoin",
    ),
    StorageSystemProfile(
        name="Swarm",
        blockchain_usage=BlockchainUsage.FULL + " (Ethereum)",
        incentive_scheme="Proof-of-storage: SWEAR",
        proof_kind=ProofKind.STORAGE,
        notes="Ethereum for name resolution, payments, insurance",
    ),
    StorageSystemProfile(
        name="Filecoin",
        blockchain_usage=BlockchainUsage.PAYMENTS + " (filecoin)",
        incentive_scheme="Proof-of-replication / Proof-of-spacetime / Proof-of-work",
        proof_kind=ProofKind.REPLICATION,
        notes="Sealed replicas audited under deadlines over time",
    ),
    StorageSystemProfile(
        name="Blockstack",
        blockchain_usage=BlockchainUsage.NAME_BINDING,
        incentive_scheme="N/A",
        proof_kind=ProofKind.NONE,
        notes="Storage delegated to user-chosen backends; chain only names",
    ),
)


def table2_rows() -> List[Dict[str, str]]:
    """Regenerate Table 2: system -> blockchain usage, incentive scheme."""
    return [
        {
            "system": profile.name,
            "blockchain_usage": profile.blockchain_usage,
            "incentive_scheme": profile.incentive_scheme,
        }
        for profile in TABLE2_SYSTEMS
    ]


def profile_for(name: str) -> StorageSystemProfile:
    for profile in TABLE2_SYSTEMS:
        if profile.name.lower() == name.lower():
            return profile
    raise StorageError(f"no Table 2 profile named {name!r}")
