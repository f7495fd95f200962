"""Storage deals and the ledger that escrows their payments.

The paper's Table 2 observation: most decentralized storage systems use a
blockchain to record contracts and move payments, while IPFS/MaidSafe use
direct pairwise accounting.  The marketplace pays through
:class:`DirectLedger`, instant pairwise balances with one escrow per deal;
which payment rail each surveyed system uses is a Table 2 column
(:mod:`repro.storage.systems`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ContractError
from repro.storage.proofs import Commitment

__all__ = ["DealState", "StorageDeal", "DirectLedger"]


class DealState:
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class StorageDeal:
    """One storage agreement between a consumer and a provider."""

    deal_id: str
    consumer: str
    provider_id: str
    commitment: Commitment
    size_bytes: int
    price_per_epoch: float
    epochs_total: int
    proof_kind: str
    state: str = DealState.ACTIVE
    epochs_paid: int = 0
    epochs_failed: int = 0

    @property
    def total_price(self) -> float:
        return self.price_per_epoch * self.epochs_total

    @property
    def remaining_escrow(self) -> float:
        return self.total_price - self.epochs_paid * self.price_per_epoch


class DirectLedger:
    """Instant pairwise balances: the no-blockchain rail."""

    def __init__(self) -> None:
        self._balances: Dict[str, float] = {}
        self._escrow: Dict[str, float] = {}

    def credit(self, account: str, amount: float) -> None:
        if not 0 <= amount < math.inf:
            raise ContractError(f"cannot credit amount {amount}")
        self._balances[account] = self._balances.get(account, 0.0) + amount

    def balance(self, account: str) -> float:
        return self._balances.get(account, 0.0)

    def escrowed(self, deal_id: str) -> float:
        return self._escrow.get(deal_id, 0.0)

    def open_escrow(self, deal_id: str, consumer: str, amount: float) -> None:
        """Lock consumer funds for a deal."""
        if not amount >= 0:
            raise ContractError(f"cannot escrow amount {amount}")
        if self._balances.get(consumer, 0.0) < amount:
            raise ContractError(
                f"{consumer!r} cannot escrow {amount}: balance"
                f" {self._balances.get(consumer, 0.0)}"
            )
        if deal_id in self._escrow:
            raise ContractError(f"escrow for {deal_id!r} already open")
        self._balances[consumer] -= amount
        self._escrow[deal_id] = amount

    def pay_from_escrow(self, deal_id: str, provider: str, amount: float) -> None:
        held = self._escrow.get(deal_id, 0.0)
        if held + 1e-9 < amount:
            raise ContractError(
                f"escrow {deal_id!r} holds {held}, cannot pay {amount}"
            )
        self.credit(provider, amount)  # raises on a bad amount, escrow untouched
        self._escrow[deal_id] = held - amount

    def refund_escrow(self, deal_id: str, consumer: str) -> float:
        held = self._escrow.pop(deal_id, 0.0)
        self.credit(consumer, held)
        return held

    def total_supply(self) -> float:
        return sum(self._balances.values()) + sum(self._escrow.values())
