"""Declarative fault plans: timed fault events compiled by the injector.

A :class:`FaultPlan` is an ordered list of fault events, each a frozen
dataclass naming *what* goes wrong and *when*:

* :class:`Partition` — split the network into groups at ``at``; heal at
  ``heal_at`` (``None`` = never heals).
* :class:`Crash` — force one node offline at ``at``; restart at
  ``restart_at`` (``None`` = never restarts).
* :class:`DropBurst` — extra message-loss probability over a window.
* :class:`LatencySpike` — multiply all link delays over a window.
* :class:`Corrupt` — receiver-side corruption (checksum-reject drop)
  probability over a window.
* :class:`Censor` — a country-scale censorship campaign: an asymmetric
  border block over an ``inside`` node set with an endpoint blocklist,
  protocol-fingerprint detection of relays, and delayed re-blocking.

Plans are pure data: JSON-serializable (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`, plus file helpers), validated on
construction, and hashable into a stable fingerprint so two runs of the
same (plan, seed) pair are comparable byte-for-byte.  All probabilistic
behaviour lives in the injector/transport, driven by named RNG streams
— a plan itself contains no randomness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FaultError

__all__ = [
    "Censor",
    "Corrupt",
    "Crash",
    "DropBurst",
    "FaultPlan",
    "LatencySpike",
    "Partition",
]

#: A (start, end) window in simulated seconds.
Window = Tuple[float, float]


def _check_time(label: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FaultError(f"{label} must be a number, got {value!r}")
    if not value >= 0:  # also rejects NaN
        raise FaultError(f"{label} must be >= 0, got {value}")
    return float(value)


def _check_window(label: str, window: Sequence[float]) -> Window:
    try:
        start, end = window
    except (TypeError, ValueError):
        raise FaultError(
            f"{label} must be a (start, end) pair, got {window!r}"
        ) from None
    start = _check_time(f"{label} start", start)
    end = _check_time(f"{label} end", end)
    if end <= start:
        raise FaultError(
            f"{label} must end after it starts, got ({start}, {end})"
        )
    return (start, end)


def _check_prob(label: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FaultError(f"{label} must be a number, got {value!r}")
    if not 0 < value < 1:
        raise FaultError(f"{label} must be in (0, 1), got {value}")
    return float(value)


@dataclass(frozen=True)
class Partition:
    """Split the network into ``groups`` at ``at``; heal at ``heal_at``.

    ``groups`` is a tuple of tuples of node ids; nodes named in no group
    form one implicit extra group (the semantics of
    :meth:`~repro.net.transport.Network.partition`).  ``heal_at=None``
    means the partition is never healed by this plan.
    """

    groups: Tuple[Tuple[str, ...], ...]
    at: float
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        groups = tuple(tuple(str(n) for n in group) for group in self.groups)
        if not groups or not any(groups):
            raise FaultError("Partition needs at least one non-empty group")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "at", _check_time("Partition.at", self.at))
        if self.heal_at is not None:
            heal_at = _check_time("Partition.heal_at", self.heal_at)
            if heal_at <= self.at:
                raise FaultError(
                    f"Partition.heal_at must be after at:"
                    f" {heal_at} <= {self.at}"
                )
            object.__setattr__(self, "heal_at", heal_at)

    @property
    def kind(self) -> str:
        return "partition"

    def node_ids(self) -> Iterator[str]:
        for group in self.groups:
            yield from group

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": "partition",
            "groups": [list(group) for group in self.groups],
            "at": self.at,
        }
        if self.heal_at is not None:
            out["heal_at"] = self.heal_at
        return out


@dataclass(frozen=True)
class Crash:
    """Force ``node`` offline at ``at``; restart at ``restart_at``.

    On a node with an attached :class:`~repro.net.churn.ChurnProcess`
    the crash suspends the renewal clock (churn cannot revive a crashed
    node); on a plain node it is a direct liveness flip.
    ``restart_at=None`` means the node never comes back.
    """

    node: str
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.node or not isinstance(self.node, str):
            raise FaultError(f"Crash.node must be a node id, got {self.node!r}")
        object.__setattr__(self, "at", _check_time("Crash.at", self.at))
        if self.restart_at is not None:
            restart_at = _check_time("Crash.restart_at", self.restart_at)
            if restart_at <= self.at:
                raise FaultError(
                    f"Crash.restart_at must be after at:"
                    f" {restart_at} <= {self.at}"
                )
            object.__setattr__(self, "restart_at", restart_at)

    @property
    def kind(self) -> str:
        return "crash"

    def node_ids(self) -> Iterator[str]:
        yield self.node

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": "crash", "node": self.node, "at": self.at}
        if self.restart_at is not None:
            out["restart_at"] = self.restart_at
        return out


@dataclass(frozen=True)
class _WindowFault:
    """Shared shape of the three windowed transport faults."""

    window: Window

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "window",
            _check_window(f"{type(self).__name__}.window", self.window),
        )

    @property
    def at(self) -> float:
        return self.window[0]

    @property
    def until(self) -> float:
        return self.window[1]

    def node_ids(self) -> Iterator[str]:
        return iter(())


@dataclass(frozen=True)
class DropBurst(_WindowFault):
    """Extra independent per-message drop probability over ``window``."""

    prob: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "prob", _check_prob("DropBurst.prob", self.prob)
        )

    @property
    def kind(self) -> str:
        return "drop_burst"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "drop_burst", "prob": self.prob,
                "window": list(self.window)}


@dataclass(frozen=True)
class LatencySpike(_WindowFault):
    """Multiply every link delay by ``factor`` over ``window``."""

    factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.factor, (int, float)) or isinstance(
            self.factor, bool
        ):
            raise FaultError(
                f"LatencySpike.factor must be a number, got {self.factor!r}"
            )
        if not self.factor > 1.0:
            raise FaultError(
                f"LatencySpike.factor must be > 1, got {self.factor}"
            )
        object.__setattr__(self, "factor", float(self.factor))

    @property
    def kind(self) -> str:
        return "latency_spike"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "latency_spike", "factor": self.factor,
                "window": list(self.window)}


@dataclass(frozen=True)
class Corrupt(_WindowFault):
    """Per-message corruption probability over ``window``.

    A corrupted message is rejected at the receiver (checksum failure)
    and dropped with reason ``"corrupt"``; RPC callers see a timeout.
    """

    prob: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "prob", _check_prob("Corrupt.prob", self.prob)
        )

    @property
    def kind(self) -> str:
        return "corrupt"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "corrupt", "prob": self.prob,
                "window": list(self.window)}


#: Directions a :class:`Censor` campaign may hard-block.
CENSOR_DIRECTIONS = ("outbound", "both")


@dataclass(frozen=True)
class Censor:
    """A national-firewall campaign over a bordered node set.

    ``inside`` names the nodes behind the border; ``blocked`` names
    outside endpoints on the censor's initial blocklist (the banned
    services).  While the campaign is active:

    * a message crossing the border to/from a blocklisted endpoint is
      hard-dropped when it travels in the blocked ``direction``
      (``"outbound"``: inside→outside blocked, outside→inside degraded
      with probability ``degrade_prob``; ``"both"``: hard-blocked in
      both directions);
    * cross-border traffic to endpoints *not* on the blocklist passes —
      that is the gap circumvention relays live in;
    * every crossing message whose method matches one of the
      ``fingerprints`` prefixes is observed by the censor's DPI; each
      observation is detected with probability ``detect_prob`` (drawn
      from the dedicated ``faults.censor`` stream), and a detected
      relay joins the blocklist ``reblock_delay`` seconds later.

    The campaign heals at ``heal_at`` (``None`` = never).  Like
    :class:`Partition`, overlapping ``Censor`` events do not compose:
    the most recent campaign wins and a replaced campaign's heal is a
    no-op.
    """

    inside: Tuple[str, ...]
    at: float
    heal_at: Optional[float] = None
    blocked: Tuple[str, ...] = ()
    direction: str = "outbound"
    degrade_prob: float = 0.0
    fingerprints: Tuple[str, ...] = ()
    detect_prob: float = 0.0
    reblock_delay: float = 0.0

    def __post_init__(self) -> None:
        inside = tuple(str(n) for n in self.inside)
        if not inside:
            raise FaultError("Censor needs a non-empty inside set")
        object.__setattr__(self, "inside", inside)
        blocked = tuple(str(n) for n in self.blocked)
        overlap = set(inside) & set(blocked)
        if overlap:
            raise FaultError(
                f"Censor.blocked endpoints must be outside the border:"
                f" {sorted(overlap)}"
            )
        object.__setattr__(self, "blocked", blocked)
        object.__setattr__(self, "at", _check_time("Censor.at", self.at))
        if self.heal_at is not None:
            heal_at = _check_time("Censor.heal_at", self.heal_at)
            if heal_at <= self.at:
                raise FaultError(
                    f"Censor.heal_at must be after at: {heal_at} <= {self.at}"
                )
            object.__setattr__(self, "heal_at", heal_at)
        if self.direction not in CENSOR_DIRECTIONS:
            raise FaultError(
                f"Censor.direction must be one of {CENSOR_DIRECTIONS},"
                f" got {self.direction!r}"
            )
        for label, prob in (("degrade_prob", self.degrade_prob),
                            ("detect_prob", self.detect_prob)):
            if not isinstance(prob, (int, float)) or isinstance(prob, bool):
                raise FaultError(
                    f"Censor.{label} must be a number, got {prob!r}"
                )
            if not 0 <= prob <= 1:
                raise FaultError(
                    f"Censor.{label} must be in [0, 1], got {prob}"
                )
            object.__setattr__(self, label, float(prob))
        fingerprints = tuple(str(f) for f in self.fingerprints)
        if any(not f for f in fingerprints):
            raise FaultError("Censor.fingerprints must be non-empty prefixes")
        object.__setattr__(self, "fingerprints", fingerprints)
        object.__setattr__(
            self, "reblock_delay",
            _check_time("Censor.reblock_delay", self.reblock_delay),
        )

    @property
    def kind(self) -> str:
        return "censor"

    def node_ids(self) -> Iterator[str]:
        yield from self.inside
        yield from self.blocked

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": "censor",
            "inside": list(self.inside),
            "at": self.at,
            "blocked": list(self.blocked),
            "direction": self.direction,
            "degrade_prob": self.degrade_prob,
            "fingerprints": list(self.fingerprints),
            "detect_prob": self.detect_prob,
            "reblock_delay": self.reblock_delay,
        }
        if self.heal_at is not None:
            out["heal_at"] = self.heal_at
        return out


#: Every concrete fault-event type, keyed by its serialized ``kind``.
_EVENT_TYPES = {
    "partition": Partition,
    "crash": Crash,
    "drop_burst": DropBurst,
    "latency_spike": LatencySpike,
    "corrupt": Corrupt,
    "censor": Censor,
}

FaultEvent = Any  # union of the six dataclasses above


class FaultPlan:
    """An ordered, validated list of fault events.

    Parameters
    ----------
    events:
        Any mix of :class:`Partition` / :class:`Crash` /
        :class:`DropBurst` / :class:`LatencySpike` / :class:`Corrupt`.
    name:
        A label carried into traces and reports (presets name
        themselves; file-loaded plans default to the file's ``name``).
    """

    def __init__(self, events: Sequence[FaultEvent], name: str = "custom"):
        events = list(events)
        for event in events:
            if type(event) not in _EVENT_TYPES.values():
                raise FaultError(
                    f"not a fault event: {event!r} (expected one of"
                    f" {', '.join(sorted(_EVENT_TYPES))})"
                )
        if not name or not isinstance(name, str):
            raise FaultError(f"plan name must be a non-empty string: {name!r}")
        # Stable order: by start time, then declaration order.
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: e.at
        )
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def node_ids(self) -> List[str]:
        """Every node id the plan references, sorted and de-duplicated."""
        out = set()
        for event in self.events:
            out.update(event.node_ids())
        return sorted(out)

    @property
    def end_time(self) -> float:
        """Simulated time of the last scheduled plan action."""
        latest = 0.0
        for event in self.events:
            latest = max(latest, event.at)
            heal = getattr(event, "heal_at", None)
            restart = getattr(event, "restart_at", None)
            until = getattr(event, "until", None)
            for t in (heal, restart, until):
                if t is not None:
                    latest = max(latest, t)
        return latest

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def fingerprint(self) -> str:
        """A canonical string identifying the plan's exact content."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultError(f"plan must be an object, got {type(data).__name__}")
        raw_events = data.get("events")
        if not isinstance(raw_events, list):
            raise FaultError("plan needs an 'events' list")
        events = []
        for index, raw in enumerate(raw_events):
            if not isinstance(raw, dict):
                raise FaultError(f"event {index} must be an object")
            kind = raw.get("kind")
            event_type = _EVENT_TYPES.get(kind)
            if event_type is None:
                raise FaultError(
                    f"event {index} has unknown kind {kind!r}; known:"
                    f" {', '.join(sorted(_EVENT_TYPES))}"
                )
            fields = {k: v for k, v in raw.items() if k != "kind"}
            try:
                events.append(event_type(**fields))
            except TypeError as exc:
                raise FaultError(f"event {index} ({kind}): {exc}") from exc
        return cls(events, name=str(data.get("name", "custom")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FaultError(f"cannot read plan file {path!r}: {exc}") from exc
        return cls.from_json(text)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({self.name!r}, events={len(self.events)})"
