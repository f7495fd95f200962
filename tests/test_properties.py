"""Property-based tests (hypothesis) on core data structures and invariants."""

import string
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from repro.chain import LedgerRules, LedgerState, TxKind, apply_transaction, make_transaction
from repro.crypto import MerkleTree, generate_keypair, hash_obj, verify
from repro.errors import InvalidTransactionError
from repro.gossip import ReplicaStore, Versioned
import repro.obs.metrics as metrics_mod
from repro.obs.metrics import Histogram
from repro.sim import Simulator
from repro.storage import DataBlob, ErasureCode, seal_chunk, unseal_chunk
from repro.storage.erasure import gf_inv, gf_mul


# ---------------------------------------------------------------------------
# GF(256) field axioms
# ---------------------------------------------------------------------------

gf_elem = st.integers(min_value=0, max_value=255)
gf_nonzero = st.integers(min_value=1, max_value=255)


class TestGF256:
    @given(gf_elem, gf_elem)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(gf_elem, gf_elem, gf_elem)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(gf_elem)
    def test_one_is_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(gf_nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(gf_elem, gf_elem, gf_elem)
    def test_distributive_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


# ---------------------------------------------------------------------------
# Erasure coding: any k-subset decodes to the original
# ---------------------------------------------------------------------------

class TestErasureProperties:
    @given(
        data=st.binary(min_size=1, max_size=2000),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=0, max_value=4),
        subset_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_k_shards_reconstruct(self, data, k, m, subset_seed):
        import random

        code = ErasureCode(k, m)
        shards = code.encode(data)
        subset = random.Random(subset_seed).sample(shards, k)
        assert code.decode(subset) == data

    @given(data=st.binary(min_size=1, max_size=500),
           k=st.integers(min_value=1, max_value=5),
           m=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_systematic_data_shards_are_slices(self, data, k, m):
        code = ErasureCode(k, m)
        shards = code.encode(data)
        framed = len(data).to_bytes(4, "big") + data
        joined = b"".join(s.payload for s in shards[:k])
        assert joined.startswith(framed)


# ---------------------------------------------------------------------------
# Merkle trees: every proof verifies; no proof transfers across trees
# ---------------------------------------------------------------------------

class TestMerkleProperties:
    @given(leaves=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_all_proofs_verify(self, leaves):
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert tree.proof(i).verify(tree.root)

    @given(
        leaves=st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=20, unique=True),
        index=st.integers(min_value=0, max_value=19),
    )
    @settings(max_examples=40, deadline=None)
    def test_proof_does_not_verify_against_other_root(self, leaves, index):
        assume(index < len(leaves))
        tree = MerkleTree(leaves)
        other = MerkleTree(leaves[::-1] + [b"extra"])
        assume(tree.root != other.root)
        assert not tree.proof(index).verify(other.root)


# ---------------------------------------------------------------------------
# Sealing is a keyed involution and never the identity on nonempty chunks
# ---------------------------------------------------------------------------

class TestSealingProperties:
    @given(chunk=st.binary(min_size=1, max_size=512),
           replica=st.text(string.ascii_lowercase, min_size=1, max_size=10),
           index=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_unseal_inverts_seal(self, chunk, replica, index):
        assert unseal_chunk(seal_chunk(chunk, replica, index), replica, index) == chunk

    @given(chunk=st.binary(min_size=8, max_size=256),
           index=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_distinct_replicas_differ(self, chunk, index):
        assert seal_chunk(chunk, "r1", index) != seal_chunk(chunk, "r2", index)


# ---------------------------------------------------------------------------
# Ledger: value conservation and replay safety under arbitrary payments
# ---------------------------------------------------------------------------

class TestLedgerProperties:
    @given(amounts=st.lists(st.floats(), min_size=1, max_size=15))
    @example(amounts=[float("nan")])
    @settings(max_examples=40, deadline=None)
    def test_payments_conserve_total_supply(self, amounts):
        rules = LedgerRules()
        alice = generate_keypair("prop-alice")
        bob = generate_keypair("prop-bob")
        state = LedgerState()
        state._credit(alice.public_key, 1000.0)
        state._credit(bob.public_key, 1000.0)
        initial = state.total_supply() + state.burned
        nonce = 0
        for amount in amounts:
            tx = make_transaction(
                alice, TxKind.PAY, {"to": bob.public_key, "amount": amount},
                nonce, fee=0.01,
            )
            try:
                apply_transaction(state, tx, 1, rules)
                nonce += 1
            except InvalidTransactionError:
                pass
        assert abs((state.total_supply() + state.burned) - initial) < 1e-6

    @given(amount=st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_replay_always_rejected(self, amount):
        rules = LedgerRules()
        alice = generate_keypair("prop-alice2")
        state = LedgerState()
        state._credit(alice.public_key, 1000.0)
        tx = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": amount}, 0)
        apply_transaction(state, tx, 1, rules)
        try:
            apply_transaction(state, tx, 2, rules)
            replayed = True
        except InvalidTransactionError:
            replayed = False
        assert not replayed


# ---------------------------------------------------------------------------
# Signatures: verify(sign(m), m) always; verify(sign(m), m') never for m != m'
# ---------------------------------------------------------------------------

class TestSignatureProperties:
    @given(message=st.dictionaries(
        st.text(string.ascii_lowercase, min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=20), st.booleans()),
        max_size=5,
    ))
    @settings(max_examples=50, deadline=None)
    def test_sign_verify_roundtrip(self, message):
        pair = generate_keypair("prop-signer")
        assert verify(pair.sign(message), message)

    @given(a=st.text(max_size=30), b=st.text(max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_wrong_message_rejected(self, a, b):
        assume(a != b)
        pair = generate_keypair("prop-signer2")
        assert not verify(pair.sign(a), b)


# ---------------------------------------------------------------------------
# LWW replica store: merge is commutative, idempotent, and convergent
# ---------------------------------------------------------------------------

versioned = st.builds(
    Versioned,
    value=st.integers(),
    counter=st.integers(min_value=1, max_value=100),
    writer=st.text(string.ascii_lowercase, min_size=1, max_size=4),
)


class TestReplicaStoreProperties:
    @given(items=st.lists(versioned, min_size=1, max_size=20),
           order_seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_merge_order_independent(self, items, order_seed):
        import random

        a, b = ReplicaStore(), ReplicaStore()
        for item in items:
            a.merge("k", item)
        shuffled = list(items)
        random.Random(order_seed).shuffle(shuffled)
        for item in shuffled:
            b.merge("k", item)
        assert a.item("k") == b.item("k")

    @given(item=versioned)
    def test_merge_idempotent(self, item):
        store = ReplicaStore()
        store.merge("k", item)
        assert not store.merge("k", item)  # second merge changes nothing


# ---------------------------------------------------------------------------
# Simulator: events fire in nondecreasing time order, FIFO at ties
# ---------------------------------------------------------------------------

class TestEngineProperties:
    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=50,
    ))
    @settings(max_examples=50, deadline=None)
    def test_execution_order_sorted_by_time_then_fifo(self, delays):
        sim = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            sim.schedule(delay, lambda i=i, d=delay: fired.append((d, i)))
        sim.run()
        assert fired == sorted(fired)  # time asc, insertion order at ties


# ---------------------------------------------------------------------------
# Histograms: a merged summary() is ordered and its mean lies in [min, max]
# ---------------------------------------------------------------------------

class TestHistogramProperties:
    @given(values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=100,
    ), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_summary_ordering_invariants(self, values, data):
        split = data.draw(st.integers(min_value=0, max_value=len(values)))
        # A cap of 4 sends most merges through the bucket sketch.
        with mock.patch.object(metrics_mod, "RAW_SAMPLE_CAP", 4):
            merged, other = Histogram(), Histogram()
            for value in values[:split]:
                merged.observe(value)
            for value in values[split:]:
                other.observe(value)
            merged.merge(other)
            s = merged.summary()
        assert s["min"] <= s["p50"] <= s["p90"] <= s["p99"] <= s["max"]
        assert s["min"] <= s["mean"] <= s["max"]


# ---------------------------------------------------------------------------
# Blobs: chunking round-trips; content id is a pure function of content
# ---------------------------------------------------------------------------

class TestBlobProperties:
    @given(data=st.binary(min_size=1, max_size=5000),
           chunk_size=st.integers(min_value=1, max_value=700))
    @settings(max_examples=60, deadline=None)
    def test_chunking_roundtrip(self, data, chunk_size):
        blob = DataBlob.from_bytes(data, chunk_size)
        assert blob.to_bytes() == data
        assert blob.size_bytes == len(data)

    @given(data=st.binary(min_size=1, max_size=1000))
    @settings(max_examples=30, deadline=None)
    def test_content_id_independent_of_chunking(self, data):
        # Same bytes, different chunk sizes -> same logical content but
        # different chunk boundaries; content_id is chunk-structure-aware,
        # so ids match only for identical chunking.
        a = DataBlob.from_bytes(data, 256)
        b = DataBlob.from_bytes(data, 256)
        assert a.content_id == b.content_id


# ---------------------------------------------------------------------------
# hash_obj canonicalization
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.integers(min_value=-1e9, max_value=1e9), st.text(max_size=20), st.booleans(), st.none()
)


class TestHashObjProperties:
    @given(mapping=st.dictionaries(st.text(max_size=10), json_scalars, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_key_order_never_matters(self, mapping):
        items = list(mapping.items())
        reversed_map = dict(reversed(items))
        assert hash_obj(mapping) == hash_obj(reversed_map)


# ---------------------------------------------------------------------------
# DHT ids
# ---------------------------------------------------------------------------

class TestDhtIdProperties:
    @given(a=st.text(min_size=1, max_size=12), b=st.text(min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_bucket_index_symmetric(self, a, b):
        from repro.dht import bucket_index, node_id_for

        id_a, id_b = node_id_for(a), node_id_for(b)
        assume(id_a != id_b)
        assert bucket_index(id_a, id_b) == bucket_index(id_b, id_a)

    @given(name=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_ids_in_range(self, name):
        from repro.dht import ID_BITS, key_for, node_id_for

        assert 0 <= node_id_for(name) < 2**ID_BITS
        assert 0 <= key_for(name) < 2**ID_BITS
