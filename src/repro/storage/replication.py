"""Replica maintenance under churn: durability, availability, repair.

The §3.3 (and §5.2 "quality vs quantity") machinery: a
:class:`ReplicatedBlobStore` keeps ``replication_factor`` copies of each
blob across a provider pool whose nodes churn.  A periodic repair loop
re-replicates from surviving copies; the experiment measures durability
(was the blob ever unrecoverable?), time-averaged availability, and repair
traffic — the classic trade studied by TotalRecall/Glacier/Carbonite,
which the paper cites as the P2P-era literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.errors import NetworkError, StorageError
from repro.net.transport import Network
from repro.sim.monitor import Counter
from repro.sim.rng import RngStreams
from repro.storage.blob import DataBlob
from repro.storage.proofs import Commitment
from repro.storage.provider import StorageProvider

__all__ = ["ReplicatedBlobStore", "BlobHealth"]


@dataclass
class BlobHealth:
    """Tracked state for one replicated blob."""

    commitment: Commitment
    holders: Set[str] = field(default_factory=set)
    lost: bool = False
    lost_at: Optional[float] = None
    repairs: int = 0


class ReplicatedBlobStore:
    """Maintains N-way replication across a churning provider pool."""

    def __init__(
        self,
        network: Network,
        providers: List[StorageProvider],
        streams: RngStreams,
        replication_factor: int = 3,
        check_interval: float = 60.0,
        client_id: str = "replication-manager",
    ):
        if replication_factor < 1:
            raise StorageError(
                f"replication factor must be >= 1: {replication_factor}"
            )
        if len(providers) < replication_factor:
            raise StorageError(
                f"pool of {len(providers)} cannot hold {replication_factor} replicas"
            )
        self.network = network
        self.providers = {p.node_id: p for p in providers}
        self.replication_factor = replication_factor
        self.check_interval = check_interval
        self.client_id = client_id
        if not network.has_node(client_id):
            network.create_node(client_id)
        self.counters = Counter()
        self._blobs: Dict[str, DataBlob] = {}  # only for initial upload
        self._health: Dict[str, BlobHealth] = {}
        self._running = False
        self._rng = streams.stream("storage.replication")

    # -- placement ------------------------------------------------------------

    def _online_pool(self) -> List[StorageProvider]:
        return [p for p in self.providers.values() if p.node.online]

    def store(self, blob: DataBlob) -> Generator:
        """Place the blob on ``replication_factor`` online providers."""
        online = self._online_pool()
        if len(online) < self.replication_factor:
            raise StorageError(
                f"only {len(online)} providers online, need"
                f" {self.replication_factor}"
            )
        chosen = self._rng.sample(
            sorted(online, key=lambda p: p.node_id), self.replication_factor
        )
        health = BlobHealth(
            commitment=Commitment(blob.merkle_root, len(blob.chunks))
        )
        for provider in chosen:
            yield from self._upload(self.client_id, provider.node_id, blob)
            health.holders.add(provider.node_id)
        self._health[blob.merkle_root] = health
        self._blobs[blob.merkle_root] = blob
        return health

    def _upload(self, src: str, provider_id: str, blob: DataBlob) -> Generator:
        entries = [
            (index, chunk, blob.proof_for(index))
            for index, chunk in enumerate(blob.chunks)
        ]
        yield from self.network.rpc(
            src,
            provider_id,
            "store.put",
            {
                "commitment_id": blob.merkle_root,
                "chunk_count": len(blob.chunks),
                "entries": entries,
            },
            size_bytes=blob.size_bytes,
            timeout=600.0,
        )
        self.counters.increment("bytes_uploaded", blob.size_bytes)

    # -- repair loop --------------------------------------------------------------

    def start_repair(self) -> None:
        if self._running:
            return
        self._running = True
        self.network.sim.spawn(self._repair_loop(), name="blob-repair")

    def stop_repair(self) -> None:
        self._running = False

    def _repair_loop(self) -> Generator:
        while self._running:
            yield self.check_interval
            if not self._running:
                return
            for root, health in self._health.items():
                if health.lost:
                    continue
                yield from self._repair_one(root, health)

    def _repair_one(self, root: str, health: BlobHealth) -> Generator:
        # Sorted: the first online holder is the upload source, and a set's
        # order would make it depend on PYTHONHASHSEED.
        online_holders = [
            h for h in sorted(health.holders) if self.providers[h].node.online
        ]
        # Permanent-loss check: a holder whose churn process departed for
        # good no longer counts at all.
        if not online_holders:
            # Can any offline holder come back?  We can't know here; loss
            # is declared only when data is needed and nobody ever returns.
            return
        deficit = self.replication_factor - len(online_holders)
        if deficit <= 0:
            return
        source_id = online_holders[0]
        blob = self._blobs[root]
        candidates = [
            p for p in self._online_pool() if p.node_id not in health.holders
        ]
        for provider in self._rng.sample(
            sorted(candidates, key=lambda p: p.node_id),
            min(deficit, len(candidates)),
        ):
            try:
                yield from self._upload(source_id, provider.node_id, blob)
            except (NetworkError, StorageError):
                continue  # source or target churned mid-transfer
            health.holders.add(provider.node_id)
            health.repairs += 1
            self.counters.increment("repairs")
            self.counters.increment("repair_bytes", blob.size_bytes)

    # -- access -------------------------------------------------------------------

    def retrieve(self, root: str, reader: Optional[str] = None) -> Generator:
        """Fetch the blob from any online holder; marks loss if none can
        serve and no holder remains online."""
        health = self._health.get(root)
        if health is None:
            raise StorageError(f"unknown blob {root[:12]}")
        reader_id = reader or self.client_id
        online_holders = [
            h for h in sorted(health.holders) if self.providers[h].node.online
        ]
        for holder in online_holders:
            try:
                chunks = []
                provider = self.providers[holder]
                stored = provider.commitments.get(root)
                if stored is None or len(stored.payloads) < health.commitment.chunk_count:
                    continue
                for index in range(health.commitment.chunk_count):
                    chunk, proof = yield from self.network.rpc(
                        reader_id, holder, "store.get",
                        {"commitment_id": root, "index": index},
                        timeout=60.0,
                    )
                    if not health.commitment.verify_answer(index, chunk, proof):
                        raise StorageError("verification failed")
                    chunks.append(chunk)
                self.counters.increment("retrievals_ok")
                return b"".join(chunks)
            except (NetworkError, StorageError):
                continue  # holder churned or served a bad proof: try next
        self.counters.increment("retrievals_failed")
        raise StorageError(f"no online holder could serve blob {root[:12]}")

    # -- measurement ------------------------------------------------------------------

    def health(self, root: str) -> BlobHealth:
        health = self._health.get(root)
        if health is None:
            raise StorageError(f"unknown blob {root[:12]}")
        return health

    def online_replicas(self, root: str) -> int:
        health = self.health(root)
        return sum(
            1 for h in health.holders if self.providers[h].node.online
        )

    def repair_bytes(self) -> int:
        return self.counters.get("repair_bytes")
