"""Unit tests for the crypto substrate."""

import pytest

from repro.crypto import (
    MerkleTree,
    generate_keypair,
    hash_int,
    hash_obj,
    merkle_root,
    require_valid,
    sha256,
    sha256_hex,
    verify,
)
from repro.errors import CryptoError, InvalidSignatureError


class TestHashing:
    def test_sha256_known_vector(self):
        # SHA-256 of empty string is the well-known constant.
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_requires_bytes(self):
        with pytest.raises(TypeError):
            sha256("text")  # type: ignore[arg-type]

    def test_hash_obj_key_order_independent(self):
        assert hash_obj({"a": 1, "b": 2}) == hash_obj({"b": 2, "a": 1})

    def test_hash_obj_distinguishes_values(self):
        assert hash_obj({"a": 1}) != hash_obj({"a": 2})

    def test_hash_obj_bytes_vs_hex_text_distinct(self):
        assert hash_obj(b"\x01\x02") != hash_obj("0102")

    def test_hash_int_range(self):
        for bits in (8, 16, 160, 256):
            value = hash_int("sample", bits=bits)
            assert 0 <= value < 2**bits


class TestKeys:
    def test_sign_verify_roundtrip(self):
        pair = generate_keypair("alice")
        sig = pair.sign({"msg": "hello"})
        assert verify(sig, {"msg": "hello"})

    def test_verify_rejects_wrong_message(self):
        pair = generate_keypair("alice2")
        sig = pair.sign("hello")
        assert not verify(sig, "goodbye")

    def test_deterministic_identity_from_seed(self):
        a1 = generate_keypair("same-seed")
        a2 = generate_keypair("same-seed")
        assert a1.public_key == a2.public_key

    def test_different_seeds_different_keys(self):
        assert (
            generate_keypair("seed-x").public_key
            != generate_keypair("seed-y").public_key
        )

    def test_forged_signature_fails(self):
        alice = generate_keypair("alice3")
        mallory = generate_keypair("mallory")
        forged_sig = mallory.sign("pay alice")
        # Mallory cannot claim alice's key: swap in alice's public key.
        from repro.crypto.keys import Signature

        forged = Signature(alice.public_key, forged_sig.message_hash, forged_sig.check)
        assert not verify(forged, "pay alice")

    def test_unknown_public_key_raises(self):
        from repro.crypto.keys import KeyPair, Signature

        rogue = KeyPair("never-registered-xyz")
        sig = rogue.sign("m")
        # Drop from registry if somehow present (other tests use generate_keypair).
        from repro.crypto import keys as keys_module

        keys_module._VERIFIERS.pop(rogue.public_key, None)
        with pytest.raises(CryptoError):
            verify(sig, "m")

    def test_require_valid_raises_on_mismatch(self):
        pair = generate_keypair("alice4")
        sig = pair.sign("a")
        with pytest.raises(InvalidSignatureError):
            require_valid(sig, "b")

    def test_empty_seed_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair("")


class TestMerkle:
    def test_single_leaf_root_is_stable(self):
        t = MerkleTree([b"only"])
        assert t.root == merkle_root([b"only"])
        assert len(t) == 1

    def test_proofs_verify_for_every_leaf(self):
        leaves = [f"leaf{i}".encode() for i in range(9)]  # odd count
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert tree.proof(i).verify(tree.root)

    def test_proof_fails_against_wrong_root(self):
        t1 = MerkleTree([b"a", b"b", b"c"])
        t2 = MerkleTree([b"a", b"b", b"d"])
        assert not t1.proof(2).verify(t2.root)

    def test_root_changes_with_any_leaf(self):
        base = merkle_root([b"a", b"b", b"c", b"d"])
        assert base != merkle_root([b"a", b"b", b"c", b"e"])
        assert base != merkle_root([b"a", b"b", b"c"])

    def test_leaf_order_matters(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_empty_tree_rejected(self):
        with pytest.raises(CryptoError):
            MerkleTree([])

    def test_out_of_range_proof_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(CryptoError):
            tree.proof(2)
