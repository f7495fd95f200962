"""Unit tests for transactions and the ledger state machine."""

import pytest

from repro.chain import (
    LedgerRules,
    LedgerState,
    TxKind,
    apply_transaction,
    make_transaction,
)
from repro.chain.transaction import make_coinbase
from repro.crypto import generate_keypair
from repro.errors import InvalidTransactionError

RULES = LedgerRules()


@pytest.fixture
def alice():
    return generate_keypair("ledger-alice")


@pytest.fixture
def bob():
    return generate_keypair("ledger-bob")


@pytest.fixture
def funded(alice):
    state = LedgerState()
    state._credit(alice.public_key, 100.0)
    return state


def tx(keypair, kind, payload, nonce, fee=0.0):
    return make_transaction(keypair, kind, payload, nonce, fee)


class TestTransactionShape:
    def test_signed_tx_validates(self, alice):
        t = tx(alice, TxKind.PAY, {"to": "x", "amount": 1.0}, 0)
        t.validate_shape()

    def test_txid_stable_and_unique(self, alice):
        t1 = tx(alice, TxKind.PAY, {"to": "x", "amount": 1.0}, 0)
        t2 = tx(alice, TxKind.PAY, {"to": "x", "amount": 1.0}, 1)
        assert t1.txid != t2.txid
        assert t1.txid == tx(alice, TxKind.PAY, {"to": "x", "amount": 1.0}, 0).txid

    def test_unsigned_tx_rejected(self, alice):
        from repro.chain.transaction import Transaction

        t = Transaction(alice.public_key, TxKind.PAY, {"to": "x", "amount": 1}, 0.0, 0)
        with pytest.raises(InvalidTransactionError):
            t.validate_shape()

    def test_unknown_kind_rejected(self, alice):
        with pytest.raises(InvalidTransactionError):
            tx(alice, "teleport", {}, 0).validate_shape()

    def test_negative_fee_rejected(self, alice):
        for fee in (-1, float("nan")):
            with pytest.raises(InvalidTransactionError):
                tx(alice, TxKind.PAY, {"to": "x", "amount": 1}, 0, fee=fee).validate_shape()

    def test_tampered_payload_fails_signature(self, alice):
        from repro.chain.transaction import Transaction

        original = tx(alice, TxKind.PAY, {"to": "x", "amount": 1.0}, 0)
        tampered = Transaction(
            original.sender, original.kind, {"to": "x", "amount": 99.0},
            original.fee, original.nonce, original.signature,
        )
        with pytest.raises(InvalidTransactionError):
            tampered.validate_shape()


class TestPayments:
    def test_pay_moves_balance(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 30.0}, 0)
        apply_transaction(funded, t, 1, RULES)
        assert funded.balance(alice.public_key) == pytest.approx(70.0)
        assert funded.balance(bob.public_key) == pytest.approx(30.0)

    def test_overspend_rejected(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 1000.0}, 0)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(funded, t, 1, RULES)

    def test_nonce_replay_rejected(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 1.0}, 0)
        apply_transaction(funded, t, 1, RULES)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(funded, t, 2, RULES)

    def test_out_of_order_nonce_rejected(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 1.0}, 5)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(funded, t, 1, RULES)

    def test_fee_goes_to_miner(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 1.0}, 0, fee=2.0)
        apply_transaction(funded, t, 1, RULES, fees_to="miner")
        assert funded.balance("miner") == pytest.approx(2.0)
        assert funded.balance(alice.public_key) == pytest.approx(97.0)

    def test_fee_burned_without_miner(self, alice, bob, funded):
        t = tx(alice, TxKind.PAY, {"to": bob.public_key, "amount": 1.0}, 0, fee=2.0)
        apply_transaction(funded, t, 1, RULES)
        assert funded.burned == pytest.approx(2.0)

    def test_coinbase_credits_reward(self):
        state = LedgerState()
        cb = make_coinbase("miner-key", 50.0, 1)
        apply_transaction(state, cb, 1, RULES)
        assert state.balance("miner-key") == pytest.approx(50.0)

    def test_coinbase_over_reward_rejected(self):
        state = LedgerState()
        for reward in (RULES.block_reward + 1, float("nan")):
            cb = make_coinbase("miner-key", reward, 1)
            with pytest.raises(InvalidTransactionError):
                apply_transaction(state, cb, 1, RULES)
        assert state.total_supply() == 0.0


class TestNames:
    def test_register_and_resolve(self, alice, funded):
        t = tx(alice, TxKind.NAME_REGISTER, {"name": "alice.id", "value": "v1"}, 0)
        apply_transaction(funded, t, 1, RULES)
        entry = funded.live_name("alice.id", 1)
        assert entry is not None
        assert entry.owner == alice.public_key
        assert entry.value == "v1"

    def test_register_charges_cost(self, alice, funded):
        t = tx(alice, TxKind.NAME_REGISTER, {"name": "alice.id", "value": "v"}, 0)
        apply_transaction(funded, t, 1, RULES)
        assert funded.balance(alice.public_key) == pytest.approx(
            100.0 - RULES.name_register_cost
        )

    def test_double_register_rejected(self, alice, bob, funded):
        funded._credit(bob.public_key, 10.0)
        t1 = tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0)
        apply_transaction(funded, t1, 1, RULES)
        t2 = tx(bob, TxKind.NAME_REGISTER, {"name": "n", "value": "b"}, 0)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(funded, t2, 2, RULES)

    def test_update_by_owner(self, alice, funded):
        apply_transaction(
            funded, tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0),
            1, RULES,
        )
        apply_transaction(
            funded, tx(alice, TxKind.NAME_UPDATE, {"name": "n", "value": "b"}, 1),
            2, RULES,
        )
        assert funded.live_name("n", 2).value == "b"

    def test_update_by_non_owner_rejected(self, alice, bob, funded):
        funded._credit(bob.public_key, 10.0)
        apply_transaction(
            funded, tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0),
            1, RULES,
        )
        with pytest.raises(InvalidTransactionError):
            apply_transaction(
                funded, tx(bob, TxKind.NAME_UPDATE, {"name": "n", "value": "x"}, 0),
                2, RULES,
            )

    def test_transfer_changes_owner(self, alice, bob, funded):
        apply_transaction(
            funded, tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0),
            1, RULES,
        )
        apply_transaction(
            funded,
            tx(alice, TxKind.NAME_TRANSFER, {"name": "n", "to": bob.public_key}, 1),
            2, RULES,
        )
        assert funded.live_name("n", 2).owner == bob.public_key

    def test_expired_name_reregisterable(self, alice, bob, funded):
        funded._credit(bob.public_key, 10.0)
        apply_transaction(
            funded, tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0),
            1, RULES,
        )
        expiry = 1 + RULES.name_lifetime_blocks
        assert funded.live_name("n", expiry) is None
        apply_transaction(
            funded, tx(bob, TxKind.NAME_REGISTER, {"name": "n", "value": "b"}, 0),
            expiry, RULES,
        )
        assert funded.live_name("n", expiry).owner == bob.public_key

    def test_renew_extends_expiry(self, alice, funded):
        apply_transaction(
            funded, tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": "a"}, 0),
            1, RULES,
        )
        mid = RULES.name_lifetime_blocks // 2
        apply_transaction(
            funded, tx(alice, TxKind.NAME_RENEW, {"name": "n"}, 1), mid, RULES
        )
        assert funded.live_name("n", mid).expires_height == (
            mid + RULES.name_lifetime_blocks
        )

    def test_oversized_value_rejected(self, alice, funded):
        big = "x" * (RULES.max_value_bytes + 1)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(
                funded,
                tx(alice, TxKind.NAME_REGISTER, {"name": "n", "value": big}, 0),
                1, RULES,
            )

    def test_overlong_name_rejected(self, alice, funded):
        name = "n" * (RULES.max_name_length + 1)
        with pytest.raises(InvalidTransactionError):
            apply_transaction(
                funded,
                tx(alice, TxKind.NAME_REGISTER, {"name": name, "value": "v"}, 0),
                1, RULES,
            )
