"""Erasure-coded blob storage across a churning provider pool.

The counterpart to :class:`~repro.storage.replication.ReplicatedBlobStore`:
instead of R full copies, the blob is Reed-Solomon-encoded into ``k + m``
shards placed on distinct providers; any ``k`` reachable shards
reconstruct.  Repair decodes from surviving shards and re-encodes the
missing ones — cheaper in storage (overhead (k+m)/k vs R) but costlier in
repair work, the exact trade the §3.3 literature (TotalRecall, Glacier)
studies and our erasure-vs-replication test measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.errors import NetworkError, StorageError
from repro.net.transport import Network
from repro.sim.monitor import Counter
from repro.sim.rng import RngStreams
from repro.storage.blob import DataBlob
from repro.storage.erasure import ErasureCode, Shard
from repro.storage.provider import StorageProvider

__all__ = ["ErasureBlobStore", "ShardHealth"]


@dataclass
class ShardHealth:
    """Tracked state for one erasure-coded blob."""

    content_id: str
    shard_len: int
    # shard index -> provider currently assigned to hold it
    placement: Dict[int, str] = field(default_factory=dict)
    repairs: int = 0


class ErasureBlobStore:
    """Maintains (k, m) erasure-coded blobs across a provider pool."""

    def __init__(
        self,
        network: Network,
        providers: List[StorageProvider],
        streams: RngStreams,
        k: int = 4,
        m: int = 2,
        check_interval: float = 60.0,
        client_id: str = "erasure-manager",
    ):
        self.code = ErasureCode(k, m)
        if len(providers) < self.code.n:
            raise StorageError(
                f"pool of {len(providers)} cannot hold {self.code.n} shards"
            )
        self.network = network
        self.providers = {p.node_id: p for p in providers}
        self.check_interval = check_interval
        self.client_id = client_id
        if not network.has_node(client_id):
            network.create_node(client_id)
        self.counters = Counter()
        self._health: Dict[str, ShardHealth] = {}
        self._originals: Dict[str, bytes] = {}  # content id -> original bytes
        self._running = False
        self._rng = streams.stream("storage.erasure_store")

    # -- shard transport --------------------------------------------------------

    @staticmethod
    def _shard_key(content_id: str, index: int) -> str:
        return f"shard:{content_id}:{index}"

    def _push_shard(self, src: str, provider_id: str, content_id: str,
                    shard: Shard) -> Generator:
        """Store one shard as a single-chunk blob on a provider."""
        shard_blob = DataBlob.from_bytes(shard.payload, chunk_size=len(shard.payload))
        yield from self.network.rpc(
            src,
            provider_id,
            "store.put",
            {
                "commitment_id": self._shard_key(content_id, shard.index),
                "chunk_count": 1,
                "entries": [(0, shard.payload, shard_blob.proof_for(0))],
            },
            size_bytes=len(shard.payload),
            timeout=300.0,
        )
        self.counters.increment("bytes_uploaded", len(shard.payload))

    def _pull_shard(self, provider_id: str, content_id: str, index: int) -> Generator:
        chunk, _proof = yield from self.network.rpc(
            self.client_id,
            provider_id,
            "store.get",
            {"commitment_id": self._shard_key(content_id, index), "index": 0},
            timeout=60.0,
        )
        return Shard(index, chunk)

    # -- public API ------------------------------------------------------------------

    def store(self, data: bytes, content_id: str) -> Generator:
        """Encode and place all n shards on distinct online providers."""
        if content_id in self._health:
            raise StorageError(f"content {content_id!r} already stored")
        shards = self.code.encode(data)
        online = sorted(
            (p for p in self.providers.values() if p.node.online),
            key=lambda p: p.node_id,
        )
        if len(online) < self.code.n:
            raise StorageError(
                f"only {len(online)} providers online, need {self.code.n}"
            )
        chosen = self._rng.sample(online, self.code.n)
        health = ShardHealth(content_id=content_id, shard_len=len(shards[0].payload))
        for shard, provider in zip(shards, chosen):
            yield from self._push_shard(
                self.client_id, provider.node_id, content_id, shard
            )
            health.placement[shard.index] = provider.node_id
        self._health[content_id] = health
        self._originals[content_id] = data
        return health

    def retrieve(self, content_id: str) -> Generator:
        """Reconstruct from any k reachable shards."""
        health = self._require(content_id)
        gathered: List[Shard] = []
        for index, provider_id in sorted(health.placement.items()):
            if len(gathered) >= self.code.k:
                break
            if not self.providers[provider_id].node.online:
                continue
            try:
                shard = yield from self._pull_shard(provider_id, content_id, index)
            except (NetworkError, StorageError):
                continue  # provider churned or shard failed verification
            gathered.append(shard)
        if len(gathered) < self.code.k:
            self.counters.increment("retrievals_failed")
            raise StorageError(
                f"only {len(gathered)} of {self.code.k} required shards"
                f" reachable for {content_id!r}"
            )
        self.counters.increment("retrievals_ok")
        return self.code.decode(gathered)

    # -- repair ------------------------------------------------------------------------

    def start_repair(self) -> None:
        if self._running:
            return
        self._running = True
        self.network.sim.spawn(self._repair_loop(), name="erasure-repair")

    def stop_repair(self) -> None:
        self._running = False

    def _repair_loop(self) -> Generator:
        while self._running:
            yield self.check_interval
            if not self._running:
                return
            for content_id in list(self._health):
                yield from self._repair_one(content_id)

    def _repair_one(self, content_id: str) -> Generator:
        """Re-create shards whose providers are offline, onto fresh ones.

        Repair requires k live shards (decode), so it is *more* fragile
        than replication's copy-from-any-survivor — part of the trade.
        """
        health = self._health[content_id]
        offline = [
            index for index, provider_id in health.placement.items()
            if not self.providers[provider_id].node.online
        ]
        if not offline:
            return
        # Gather k live shards to decode.
        try:
            data = yield from self.retrieve(content_id)
        except StorageError:
            return  # below k live shards: cannot repair this round
        shards = {s.index: s for s in self.code.encode(data)}
        used = set(health.placement.values())
        candidates = [
            p for p in self.providers.values()
            if p.node.online and p.node_id not in used
        ]
        self._rng.shuffle(candidates)
        for index in offline:
            if not candidates:
                break
            target = candidates.pop()
            try:
                yield from self._push_shard(
                    self.client_id, target.node_id, content_id, shards[index]
                )
            except (NetworkError, StorageError):
                continue  # target churned mid-repair: try the next one
            health.placement[index] = target.node_id
            health.repairs += 1
            self.counters.increment("repairs")
            self.counters.increment(
                "repair_bytes", health.shard_len
            )

    # -- measurement ------------------------------------------------------------------------

    def _require(self, content_id: str) -> ShardHealth:
        health = self._health.get(content_id)
        if health is None:
            raise StorageError(f"unknown content {content_id!r}")
        return health

    def live_shards(self, content_id: str) -> int:
        health = self._require(content_id)
        return sum(
            1 for provider_id in health.placement.values()
            if self.providers[provider_id].node.online
        )

    def stored_bytes(self, content_id: str) -> int:
        """Physical bytes across the pool for this blob (n x shard)."""
        health = self._require(content_id)
        return health.shard_len * len(health.placement)

    def repair_bytes(self) -> int:
        return self.counters.get("repair_bytes")
