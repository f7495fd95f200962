"""Transactions for the simulated blockchain.

A transaction is a signed, replay-protected operation against the ledger
state machine.  The ``kind`` field selects the state-transition rule (see
:mod:`repro.chain.ledger`); ``payload`` carries rule-specific fields.  This
one transaction type serves payments and name operations
(Namecoin/Blockstack-style, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto.hashing import hash_obj
from repro.crypto.keys import KeyPair, Signature, verify
from repro.errors import InvalidTransactionError

__all__ = ["Transaction", "make_transaction", "make_coinbase", "COINBASE_SENDER", "TxKind"]

COINBASE_SENDER = "COINBASE"


class TxKind:
    """Transaction kinds understood by the ledger state machine."""

    COINBASE = "coinbase"
    PAY = "pay"
    NAME_REGISTER = "name_register"
    NAME_UPDATE = "name_update"
    NAME_TRANSFER = "name_transfer"
    NAME_RENEW = "name_renew"

    ALL = (
        COINBASE,
        PAY,
        NAME_REGISTER,
        NAME_UPDATE,
        NAME_TRANSFER,
        NAME_RENEW,
    )


@dataclass(frozen=True)
class Transaction:
    """An immutable, signed ledger operation.

    ``nonce`` is a per-sender sequence number; the ledger rejects reuse,
    which is what makes replaying an old transaction impossible.
    """

    sender: str
    kind: str
    payload: Dict[str, Any]
    fee: float
    nonce: int
    signature: Optional[Signature] = field(default=None, compare=False)

    def body(self) -> Dict[str, Any]:
        """The signed portion (everything except the signature)."""
        return {
            "sender": self.sender,
            "kind": self.kind,
            "payload": self.payload,
            "fee": self.fee,
            "nonce": self.nonce,
        }

    @property
    def txid(self) -> str:
        return hash_obj(self.body())

    @property
    def is_coinbase(self) -> bool:
        return self.kind == TxKind.COINBASE

    def validate_shape(self) -> None:
        """Structural validation: kind known, fee sane, signature present
        and covering the body (coinbase excepted)."""
        if self.kind not in TxKind.ALL:
            raise InvalidTransactionError(f"unknown tx kind {self.kind!r}")
        if not self.fee >= 0:
            raise InvalidTransactionError(f"negative fee {self.fee}")
        if self.is_coinbase:
            if self.sender != COINBASE_SENDER:
                raise InvalidTransactionError(
                    "coinbase transactions must use the COINBASE sender"
                )
            return
        if self.signature is None:
            raise InvalidTransactionError(f"tx {self.txid[:12]} is unsigned")
        if self.signature.public_key != self.sender:
            raise InvalidTransactionError(
                "signature key does not match tx sender"
            )
        if not verify(self.signature, self.body()):
            raise InvalidTransactionError(
                f"bad signature on tx {self.txid[:12]}"
            )


def make_transaction(
    keypair: KeyPair,
    kind: str,
    payload: Dict[str, Any],
    nonce: int,
    fee: float = 0.0,
) -> Transaction:
    """Build and sign a transaction in one step."""
    unsigned = Transaction(
        sender=keypair.public_key,
        kind=kind,
        payload=dict(payload),
        fee=fee,
        nonce=nonce,
    )
    signature = keypair.sign(unsigned.body())
    return Transaction(
        sender=unsigned.sender,
        kind=unsigned.kind,
        payload=unsigned.payload,
        fee=unsigned.fee,
        nonce=unsigned.nonce,
        signature=signature,
    )


def make_coinbase(miner_pubkey: str, reward: float, height: int) -> Transaction:
    """The block-subsidy transaction crediting the miner.

    ``height`` rides in the payload so each block's coinbase is unique.
    """
    return Transaction(
        sender=COINBASE_SENDER,
        kind=TxKind.COINBASE,
        payload={"to": miner_pubkey, "reward": reward, "height": height},
        fee=0.0,
        nonce=height,
    )
