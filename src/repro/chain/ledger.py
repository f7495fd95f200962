"""The ledger state machine: balances and names.

State is immutable-by-convention: :meth:`LedgerState.copy` makes a
shallow-copied snapshot whose entry objects are never mutated in place, so
chain reorganizations just re-apply blocks onto an older snapshot.

Name semantics follow Namecoin/Blockstack (§3.1 of the paper): first-come
first-served registration, owner-only updates/transfers, and expiry after
``name_lifetime_blocks`` so squatted names eventually return to the pool
(the "endless ledger" mitigation the paper mentions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.chain.transaction import COINBASE_SENDER, Transaction, TxKind
from repro.errors import InvalidTransactionError

__all__ = ["LedgerState", "LedgerRules", "NameEntry", "apply_transaction"]


@dataclass(frozen=True)
class NameEntry:
    """One registered name: who owns it, what it points to, when it dies."""

    name: str
    owner: str
    value: Any
    registered_height: int
    updated_height: int
    expires_height: int


@dataclass(frozen=True)
class LedgerRules:
    """Economic constants of the simulated chain."""

    block_reward: float = 50.0
    name_register_cost: float = 1.0
    name_lifetime_blocks: int = 10_000
    max_name_length: int = 64
    max_value_bytes: int = 512  # the paper: blockchains limit stored data


class LedgerState:
    """Account balances, the name map, and replay nonces."""

    def __init__(
        self,
        balances: Optional[Dict[str, float]] = None,
        names: Optional[Dict[str, NameEntry]] = None,
        nonces: Optional[Dict[str, int]] = None,
        burned: float = 0.0,
    ):
        self.balances: Dict[str, float] = balances if balances is not None else {}
        self.names: Dict[str, NameEntry] = names if names is not None else {}
        self.nonces: Dict[str, int] = nonces if nonces is not None else {}
        self.burned = burned  # name fees are burned, not paid to anyone

    def copy(self) -> "LedgerState":
        return LedgerState(
            balances=dict(self.balances),
            names=dict(self.names),
            nonces=dict(self.nonces),
            burned=self.burned,
        )

    # -- queries -----------------------------------------------------------

    def balance(self, account: str) -> float:
        return self.balances.get(account, 0.0)

    def next_nonce(self, account: str) -> int:
        """The nonce the account's next transaction must carry."""
        return self.nonces.get(account, 0)

    def live_name(self, name: str, height: int) -> Optional[NameEntry]:
        """The entry for ``name`` if registered and unexpired at ``height``."""
        entry = self.names.get(name)
        if entry is None or entry.expires_height <= height:
            return None
        return entry

    def total_supply(self) -> float:
        """Sum of all balances (conservation check)."""
        return sum(self.balances.values())

    # -- mutation helpers (used only by apply) -------------------------------

    def _credit(self, account: str, amount: float) -> None:
        self.balances[account] = self.balances.get(account, 0.0) + amount

    def _debit(self, account: str, amount: float) -> None:
        balance = self.balances.get(account, 0.0)
        if not balance >= amount - 1e-9:
            raise InvalidTransactionError(
                f"account {account[:12]} has {balance}, needs {amount}"
            )
        self.balances[account] = balance - amount


def apply_transaction(
    state: LedgerState,
    tx: Transaction,
    height: int,
    rules: LedgerRules,
    fees_to: Optional[str] = None,
) -> None:
    """Apply one validated transaction to ``state`` in place.

    Raises :class:`InvalidTransactionError` on any rule violation; callers
    apply to a scratch copy so failures leave no partial effects.
    ``fees_to`` is the miner account collecting the fee (None burns it).
    """
    tx.validate_shape()

    if tx.is_coinbase:
        _apply_coinbase(state, tx, rules)
        return

    expected = state.next_nonce(tx.sender)
    if tx.nonce != expected:
        raise InvalidTransactionError(
            f"tx nonce {tx.nonce} != expected {expected} for {tx.sender[:12]}"
        )

    state._debit(tx.sender, tx.fee)
    if fees_to is not None:
        state._credit(fees_to, tx.fee)
    else:
        state.burned += tx.fee

    handler = _HANDLERS.get(tx.kind)
    if handler is None:
        raise InvalidTransactionError(f"no handler for kind {tx.kind!r}")
    handler(state, tx, height, rules)
    state.nonces[tx.sender] = expected + 1


def _apply_coinbase(state: LedgerState, tx: Transaction, rules: LedgerRules) -> None:
    reward = tx.payload.get("reward")
    recipient = tx.payload.get("to")
    if not isinstance(reward, (int, float)) or not reward >= 0:
        raise InvalidTransactionError(f"bad coinbase reward {reward!r}")
    if reward > rules.block_reward + 1e-9:
        raise InvalidTransactionError(
            f"coinbase reward {reward} exceeds subsidy {rules.block_reward}"
        )
    if not recipient:
        raise InvalidTransactionError("coinbase missing recipient")
    state._credit(recipient, float(reward))


def _apply_pay(state, tx, height, rules) -> None:
    to = tx.payload.get("to")
    amount = tx.payload.get("amount")
    if not to or not isinstance(amount, (int, float)) or not amount > 0:
        raise InvalidTransactionError(f"bad pay payload {tx.payload!r}")
    state._debit(tx.sender, float(amount))
    state._credit(to, float(amount))


def _name_from_payload(tx: Transaction, rules: LedgerRules) -> str:
    name = tx.payload.get("name")
    if not name or not isinstance(name, str):
        raise InvalidTransactionError(f"bad name in payload {tx.payload!r}")
    if len(name) > rules.max_name_length:
        raise InvalidTransactionError(
            f"name too long ({len(name)} > {rules.max_name_length})"
        )
    return name


def _check_value_size(value: Any, rules: LedgerRules) -> None:
    from repro.crypto.hashing import _canonical  # canonical size, not repr size

    size = len(_canonical(value))
    if size > rules.max_value_bytes:
        raise InvalidTransactionError(
            f"name value too large ({size} > {rules.max_value_bytes} bytes);"
            " blockchains limit on-chain data (store a hash instead)"
        )


def _apply_name_register(state, tx, height, rules) -> None:
    name = _name_from_payload(tx, rules)
    if state.live_name(name, height) is not None:
        raise InvalidTransactionError(f"name {name!r} is already registered")
    value = tx.payload.get("value")
    _check_value_size(value, rules)
    state._debit(tx.sender, rules.name_register_cost)
    state.burned += rules.name_register_cost
    state.names[name] = NameEntry(
        name=name,
        owner=tx.sender,
        value=value,
        registered_height=height,
        updated_height=height,
        expires_height=height + rules.name_lifetime_blocks,
    )


def _require_owned(state, tx, height, rules) -> NameEntry:
    name = _name_from_payload(tx, rules)
    entry = state.live_name(name, height)
    if entry is None:
        raise InvalidTransactionError(f"name {name!r} not registered/expired")
    if entry.owner != tx.sender:
        raise InvalidTransactionError(
            f"{tx.sender[:12]} does not own name {name!r}"
        )
    return entry


def _apply_name_update(state, tx, height, rules) -> None:
    entry = _require_owned(state, tx, height, rules)
    value = tx.payload.get("value")
    _check_value_size(value, rules)
    state.names[entry.name] = replace(entry, value=value, updated_height=height)


def _apply_name_transfer(state, tx, height, rules) -> None:
    entry = _require_owned(state, tx, height, rules)
    to = tx.payload.get("to")
    if not to:
        raise InvalidTransactionError("name transfer missing recipient")
    state.names[entry.name] = replace(entry, owner=to, updated_height=height)


def _apply_name_renew(state, tx, height, rules) -> None:
    entry = _require_owned(state, tx, height, rules)
    state._debit(tx.sender, rules.name_register_cost)
    state.burned += rules.name_register_cost
    state.names[entry.name] = replace(
        entry,
        expires_height=height + rules.name_lifetime_blocks,
        updated_height=height,
    )


_HANDLERS = {
    TxKind.PAY: _apply_pay,
    TxKind.NAME_REGISTER: _apply_name_register,
    TxKind.NAME_UPDATE: _apply_name_update,
    TxKind.NAME_TRANSFER: _apply_name_transfer,
    TxKind.NAME_RENEW: _apply_name_renew,
}
