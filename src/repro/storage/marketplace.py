"""The storage marketplace: matching, deals, audits, and payments.

The incentive loop of §3.3: consumers pay providers for storing and
serving data; each epoch, the marketplace audits every active deal with
the deal's proof system and releases payment only on a pass.  Failures
slash the deal (remaining escrow refunds to the consumer), so the
economics of cheating — the E7 experiment — fall out of the audit
soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.crypto.hashing import hash_obj
from repro.errors import ContractError, StorageError
from repro.net.transport import Network
from repro.sim.monitor import Counter
from repro.sim.rng import RngStreams
from repro.storage.blob import DataBlob
from repro.storage.contracts import DealState, DirectLedger, StorageDeal
from repro.storage.proofs import Commitment, StorageVerifier
from repro.storage.provider import StorageProvider

__all__ = ["ProofKind", "StorageMarketplace"]


class ProofKind:
    """Audit mechanisms, one per Table 2 incentive family."""

    STORAGE = "proof_of_storage"
    RETRIEVABILITY = "proof_of_retrievability"
    REPLICATION = "proof_of_replication"
    SPACETIME = "proof_of_spacetime"
    NONE = "none"  # altruistic/tit-for-tat systems (IPFS Bitswap)

    ALL = (STORAGE, RETRIEVABILITY, REPLICATION, SPACETIME, NONE)


class StorageMarketplace:
    """Provider registry + deal lifecycle driver."""

    def __init__(
        self,
        network: Network,
        streams: RngStreams,
        ledger: Optional[DirectLedger] = None,
        client_id: str = "market-client",
        response_deadline: float = 0.5,
    ):
        self.network = network
        self.ledger = ledger if ledger is not None else DirectLedger()
        self.verifier = StorageVerifier(
            network, client_id, streams, response_deadline=response_deadline
        )
        self.counters = Counter()
        self._providers: Dict[str, StorageProvider] = {}
        self._deals: Dict[str, StorageDeal] = {}
        self._rng = streams.stream("storage.marketplace")

    # -- registry ------------------------------------------------------------

    def register_provider(self, provider: StorageProvider) -> None:
        if provider.node_id in self._providers:
            raise StorageError(f"provider {provider.node_id!r} already registered")
        self._providers[provider.node_id] = provider

    def providers(self) -> List[StorageProvider]:
        return list(self._providers.values())

    def provider(self, provider_id: str) -> StorageProvider:
        provider = self._providers.get(provider_id)
        if provider is None:
            raise StorageError(f"unknown provider {provider_id!r}")
        return provider

    def deals(self) -> List[StorageDeal]:
        return list(self._deals.values())

    def deal(self, deal_id: str) -> StorageDeal:
        deal = self._deals.get(deal_id)
        if deal is None:
            raise ContractError(f"unknown deal {deal_id!r}")
        return deal

    # -- matching and placement -------------------------------------------------

    def cheapest_providers(self, size_bytes: float, count: int) -> List[StorageProvider]:
        """Price-ascending providers with capacity (ties by id: stable)."""
        candidates = sorted(
            (
                p for p in self._providers.values()
                if p.has_capacity_for(size_bytes) and p.node.online
            ),
            key=lambda p: (p.price_per_gb_epoch, p.node_id),
        )
        if len(candidates) < count:
            raise StorageError(
                f"only {len(candidates)} providers can take {size_bytes}B,"
                f" need {count}"
            )
        return candidates[:count]

    def upload_blob(self, consumer: str, provider_id: str, blob: DataBlob) -> Generator:
        """Ship all chunks to a provider over the network (bytes paid)."""
        entries = [
            (index, chunk, blob.proof_for(index))
            for index, chunk in enumerate(blob.chunks)
        ]
        ok = yield from self.network.rpc(
            consumer,
            provider_id,
            "store.put",
            {
                "commitment_id": blob.merkle_root,
                "chunk_count": len(blob.chunks),
                "entries": entries,
            },
            size_bytes=blob.size_bytes,
            timeout=300.0,
        )
        if not ok:
            raise StorageError(f"upload to {provider_id!r} rejected")
        return blob.merkle_root

    def make_deal(
        self,
        consumer: str,
        blob: DataBlob,
        epochs: int,
        proof_kind: str = ProofKind.STORAGE,
        provider_id: Optional[str] = None,
        price_per_epoch: Optional[float] = None,
    ) -> Generator:
        """Match, upload, escrow: returns the active :class:`StorageDeal`.

        ``price_per_epoch`` overrides the provider's per-GB pricing (used
        by experiments on tiny blobs where metered pricing rounds away).
        """
        if proof_kind not in ProofKind.ALL:
            raise ContractError(f"unknown proof kind {proof_kind!r}")
        if epochs < 1:
            raise ContractError(f"epochs must be >= 1: {epochs}")
        provider = (
            self.provider(provider_id)
            if provider_id is not None
            else self.cheapest_providers(blob.size_bytes, 1)[0]
        )
        if price_per_epoch is None:
            price_per_epoch = (
                provider.price_per_gb_epoch * blob.size_bytes / 1e9
            )
        # Check payment before the upload: an unfunded consumer ships no bytes.
        total_price = price_per_epoch * epochs
        balance = self.ledger.balance(consumer)
        if not 0 <= total_price <= balance:
            raise ContractError(
                f"{consumer!r} cannot pay {total_price} for {epochs}"
                f" epochs: balance {balance}"
            )
        yield from self.upload_blob(consumer, provider.node_id, blob)
        deal = StorageDeal(
            deal_id=hash_obj(
                {"c": consumer, "p": provider.node_id, "r": blob.merkle_root,
                 "n": len(self._deals)}
            )[:16],
            consumer=consumer,
            provider_id=provider.node_id,
            commitment=Commitment(blob.merkle_root, len(blob.chunks)),
            size_bytes=blob.size_bytes,
            price_per_epoch=price_per_epoch,
            epochs_total=epochs,
            proof_kind=proof_kind,
        )
        self.ledger.open_escrow(deal.deal_id, consumer, deal.total_price)
        self._deals[deal.deal_id] = deal
        self.counters.increment("deals_opened")
        return deal

    def register_external_deal(self, deal: StorageDeal) -> StorageDeal:
        """Admit a deal whose data placement happened out of band (e.g. a
        sealed-replica deal where the provider claims storage it does not
        honestly hold — attack experiments build these)."""
        if deal.deal_id in self._deals:
            raise ContractError(f"deal {deal.deal_id!r} already registered")
        self.ledger.open_escrow(deal.deal_id, deal.consumer, deal.total_price)
        self._deals[deal.deal_id] = deal
        self.counters.increment("deals_opened")
        return deal

    # -- the audit/payment epoch loop ----------------------------------------------

    def audit_deal(self, deal: StorageDeal) -> Generator:
        """One epoch's audit for one deal; returns True on pass."""
        if deal.proof_kind == ProofKind.NONE:
            return True
        if deal.proof_kind == ProofKind.STORAGE:
            report = yield from self.verifier.proof_of_storage(
                deal.provider_id, deal.commitment, rounds=1
            )
            return report.passed
        if deal.proof_kind == ProofKind.RETRIEVABILITY:
            report = yield from self.verifier.proof_of_retrievability(
                deal.provider_id, deal.commitment, sample_size=4
            )
            return report.passed
        if deal.proof_kind in (ProofKind.REPLICATION, ProofKind.SPACETIME):
            reports = yield from self.verifier.proof_of_replication(
                deal.provider_id, [deal.commitment]
            )
            return all(r.passed for r in reports.values())
        raise ContractError(f"unhandled proof kind {deal.proof_kind!r}")

    def run_epoch(self) -> Generator:
        """Audit every active deal once, paying or slashing.

        Returns ``{deal_id: passed}`` for the epoch.
        """
        results: Dict[str, bool] = {}
        for deal in list(self._deals.values()):
            if deal.state != DealState.ACTIVE:
                continue
            passed = yield from self.audit_deal(deal)
            results[deal.deal_id] = passed
            if passed:
                self.ledger.pay_from_escrow(
                    deal.deal_id, deal.provider_id, deal.price_per_epoch
                )
                deal.epochs_paid += 1
                self.counters.increment("epochs_paid")
                if deal.epochs_paid >= deal.epochs_total:
                    deal.state = DealState.COMPLETED
                    self.counters.increment("deals_completed")
            else:
                deal.epochs_failed += 1
                deal.state = DealState.FAILED
                self.ledger.refund_escrow(deal.deal_id, deal.consumer)
                self.counters.increment("deals_slashed")
        return results

    # -- measurement ------------------------------------------------------------------

    def provider_earnings(self, provider_id: str) -> float:
        return self.ledger.balance(provider_id)
