"""Per-component tallies.

A protocol component that counts its own outcomes (blocks mined, repair
bytes, swarm visits) holds one :class:`Counter`.  Transport and engine
counters live in :mod:`repro.obs` instead.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

__all__ = ["Counter"]


class Counter:
    """A monotonically increasing named counter."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)
