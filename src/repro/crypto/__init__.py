"""Cryptographic substrate: real hashing and Merkle trees, and simulated
signatures."""

from repro.crypto.hashing import hash_int, hash_obj, sha256, sha256_hex
from repro.crypto.keys import (
    KeyPair,
    Signature,
    generate_keypair,
    require_valid,
    verify,
)
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root

__all__ = [
    "sha256",
    "sha256_hex",
    "hash_obj",
    "hash_int",
    "KeyPair",
    "Signature",
    "generate_keypair",
    "verify",
    "require_valid",
    "MerkleTree",
    "MerkleProof",
    "merkle_root",
]
