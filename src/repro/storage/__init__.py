"""Decentralized storage (§3.3, Table 2): blobs, Reed-Solomon erasure
coding, sealed replicas, storage providers with attacker modes, the four
proof games, deals and their escrow ledger, the marketplace audit loop,
and replica maintenance under churn."""

from repro.storage.blob import DataBlob, make_random_blob
from repro.storage.contracts import DealState, DirectLedger, StorageDeal
from repro.storage.erasure import ErasureCode, Shard
from repro.storage.erasure_store import ErasureBlobStore, ShardHealth
from repro.storage.marketplace import ProofKind, StorageMarketplace
from repro.storage.proofs import (
    ChallengeOutcome,
    Commitment,
    ProofRoundReport,
    SpacetimeRecord,
    StorageVerifier,
)
from repro.storage.provider import StorageProvider, StoredCommitment
from repro.storage.replication import BlobHealth, ReplicatedBlobStore
from repro.storage.sealing import seal_blob, seal_chunk, unseal_chunk
from repro.storage.systems import (
    BlockchainUsage,
    StorageSystemProfile,
    TABLE2_SYSTEMS,
    profile_for,
    table2_rows,
)

__all__ = [
    "DataBlob",
    "make_random_blob",
    "ErasureCode",
    "ErasureBlobStore",
    "ShardHealth",
    "Shard",
    "seal_blob",
    "seal_chunk",
    "unseal_chunk",
    "StorageProvider",
    "StoredCommitment",
    "Commitment",
    "ChallengeOutcome",
    "ProofRoundReport",
    "SpacetimeRecord",
    "StorageVerifier",
    "StorageDeal",
    "DealState",
    "DirectLedger",
    "ProofKind",
    "StorageMarketplace",
    "ReplicatedBlobStore",
    "BlobHealth",
    "StorageSystemProfile",
    "BlockchainUsage",
    "TABLE2_SYSTEMS",
    "table2_rows",
    "profile_for",
]
