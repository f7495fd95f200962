"""Hashing helpers.

Real SHA-256 is used wherever the design needs a real hash (content
addresses, block ids, DHT keys, Merkle trees) so collision and distribution
behaviour are authentic.  Helpers canonicalize structured data so that two
logically equal objects always hash identically.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["sha256", "sha256_hex", "hash_obj", "hash_int"]


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"sha256 expects bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest."""
    return sha256(data).hex()


def _canonical(obj: Any) -> bytes:
    """Canonical byte serialization for hashing structured values.

    Uses JSON with sorted keys; bytes values are hex-tagged so that byte
    strings and their hex text never collide.
    """

    def default(value: Any) -> Any:
        if isinstance(value, (bytes, bytearray)):
            return {"__bytes__": bytes(value).hex()}
        raise TypeError(f"unhashable object in canonical form: {type(value)!r}")

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default).encode("utf-8")


def hash_obj(obj: Any) -> str:
    """Hex SHA-256 of a JSON-canonicalizable object."""
    return sha256_hex(_canonical(obj))


def hash_int(obj: Any, bits: int = 256) -> int:
    """Hash an object to an integer in [0, 2**bits)."""
    digest = sha256(_canonical(obj))
    return int.from_bytes(digest, "big") >> (256 - bits)

