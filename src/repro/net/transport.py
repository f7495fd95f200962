"""Message transport over the simulated network.

:class:`Network` owns the node registry and delivers messages with delays
from a :class:`~repro.net.latency.LatencyModel`, optional random loss, and
liveness checks at *arrival* time (a node that goes offline while a message
is in flight loses it — exactly the intermittency §5.2 of the paper says
device-grade infrastructure must be designed around).

Two primitives:

* :meth:`Network.send` — fire-and-forget one-way message.
* :meth:`Network.rpc` — request/response as a yieldable generator for use
  inside simulation processes.  Handlers may return either a plain value or
  a generator (which is spawned as a process, letting servers model work
  that itself takes simulated time or performs nested RPCs).  Pass
  ``retries=N`` to re-issue a timed-out request up to N more times.
  Each attempt is one slotted call object that is at once the caller's
  wait, the payload of its legs and the timeout callback; the response
  arrival or the timer resumes the caller directly, so an answered
  attempt costs three engine events (request leg, a timer that gets
  cancelled, response leg) and a timed-out one two.

There is one leg path: an RPC's request and response are :meth:`send`
legs whose payload is the call, and every leg arrives through
:meth:`Network._deliver`, which differs by leg kind only at its end.

Observability: the network shares its :class:`Simulator`'s tracer and
metrics (see :mod:`repro.obs`).  When active, every message leg emits
``msg_send`` before its loss draw and then ``msg_deliver`` or
``msg_drop`` (RPC legs name their ``leg``), and every RPC attempt emits
an ``rpc`` span (start, end, outcome, attempt) plus ``net.*`` counters
and a latency histogram; when inactive each hook is a single ``is not
None`` check.  Those counters are the transport's only tallies, and
``net.messages_*`` equal the flow ledger below: with observation off it
keeps just that ledger and each node's ``bytes_sent``.

Fault injection: a :class:`FaultSurface` installed by
:class:`repro.faults.FaultInjector` adds burst loss, a latency
multiplier, and receiver-side corruption (a corrupted message is
rejected at arrival, like a checksum failure, and dropped with reason
``"corrupt"``).  With no plan active the surface is ``None`` and every
hook is one pointer check.  Direct mutation of the fault surface or the
partition map outside :mod:`repro.faults` is flagged by lint rule
FLT001 — benches and tests go through a
:class:`~repro.faults.FaultPlan`.

Censorship: a :class:`CensorSurface` (installed by the same injector
while a :class:`~repro.faults.plan.Censor` campaign is open) adds an
asymmetric national border on top of partitions.  Crossing traffic to a
blocklisted endpoint is hard-dropped in the blocked direction (drop
reason ``"censor"``, and :meth:`Network.can_reach` becomes
order-sensitive) and probabilistically degraded in the other; every
fingerprinted crossing message is reported to the campaign's DPI
observation hook, which is how relays get detected and re-blocked.

The transport also keeps exact flow accounting — every message leg is
``sent`` and then exactly one of ``delivered`` or ``dropped`` (send-time
loss, or arrival-time offline/censor/partition/corrupt), with the
remainder ``in_flight`` — which the chaos invariant harness checks
continuously (``sent == delivered + dropped + in_flight``).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generator, Iterable, List, Optional, TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - type-only; draws stay stream-derived
    import random  # repro: noqa[DET001]

    from repro.obs.metrics import Metrics
    from repro.sim.engine import Process, _ScheduledEvent

from repro.errors import (
    NetworkError,
    ReproError,
    RemoteError,
    RpcTimeoutError,
)
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.node import Node, NodeClass
from repro.sim.engine import Simulator, _Waitable
from repro.sim.rng import RngStreams

__all__ = ["CensorSurface", "FaultSurface", "Network",
           "DEFAULT_MESSAGE_BYTES"]

DEFAULT_MESSAGE_BYTES = 512


class FaultSurface:
    """Active transport-level fault parameters.

    One immutable-by-convention bundle installed on a :class:`Network`
    by :class:`repro.faults.FaultInjector` while at least one
    ``DropBurst`` / ``LatencySpike`` / ``Corrupt`` window is open, and
    cleared back to ``None`` when the last window closes.  Draws come
    from dedicated named RNG streams (``faults.drop`` /
    ``faults.corrupt``) so enabling a fault window never perturbs the
    base ``net.loss`` stream.
    """

    __slots__ = ("drop_prob", "latency_factor", "corrupt_prob",
                 "drop_rng", "corrupt_rng")

    def __init__(
        self,
        drop_prob: float,
        latency_factor: float,
        corrupt_prob: float,
        drop_rng: "random.Random",
        corrupt_rng: "random.Random",
    ):
        if not 0 <= drop_prob < 1:
            raise NetworkError(f"drop_prob must be in [0, 1): {drop_prob}")
        if not 0 <= corrupt_prob < 1:
            raise NetworkError(
                f"corrupt_prob must be in [0, 1): {corrupt_prob}"
            )
        if latency_factor <= 0:
            raise NetworkError(
                f"latency_factor must be positive: {latency_factor}"
            )
        self.drop_prob = drop_prob
        self.latency_factor = latency_factor
        self.corrupt_prob = corrupt_prob
        self.drop_rng = drop_rng
        self.corrupt_rng = corrupt_rng

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultSurface(drop={self.drop_prob},"
            f" latency_x={self.latency_factor}, corrupt={self.corrupt_prob})"
        )


class CensorSurface:
    """Active censorship-campaign state over the transport.

    Installed on a :class:`Network` by :class:`repro.faults.FaultInjector`
    while a :class:`~repro.faults.plan.Censor` campaign is open, and
    cleared back to ``None`` at heal.  It owns the border membership
    (``inside``), the growing endpoint ``blocklist`` (initial banned
    services plus relays the campaign re-blocks), and the directional
    verdict logic; the per-blocked-flow cost counters make the censor's
    collateral-damage curve measurable.

    The injector remains the campaign's brain: degrade drops draw from
    the dedicated ``faults.censor.degrade`` stream it supplies, and
    every fingerprinted crossing message is reported through
    ``on_fingerprint`` so detection draws and delayed re-blocking stay
    plan machinery (and in the trace), not transport state.  Direct
    mutation of the surface or its blocklist outside :mod:`repro.faults`
    is flagged by lint rule FLT001.
    """

    __slots__ = ("inside", "blocklist", "direction", "degrade_prob",
                 "fingerprints", "degrade_rng", "on_fingerprint",
                 "blocked_flows", "collateral_flows", "degraded_drops")

    def __init__(
        self,
        inside: Iterable[str],
        blocked: Iterable[str],
        direction: str,
        degrade_prob: float,
        fingerprints: Iterable[str],
        degrade_rng: Optional["random.Random"] = None,
        on_fingerprint: Optional[Any] = None,
    ):
        if direction not in ("outbound", "both"):
            raise NetworkError(
                f"censor direction must be 'outbound' or 'both':"
                f" {direction!r}"
            )
        if not 0 <= degrade_prob <= 1:
            raise NetworkError(
                f"degrade_prob must be in [0, 1]: {degrade_prob}"
            )
        if degrade_prob > 0 and degrade_rng is None:
            raise NetworkError("degrade_prob > 0 needs a degrade_rng")
        self.inside = frozenset(inside)
        self.blocklist = set(blocked)
        self.direction = direction
        self.degrade_prob = degrade_prob
        self.fingerprints = tuple(fingerprints)
        self.degrade_rng = degrade_rng
        self.on_fingerprint = on_fingerprint
        # Cost model: every flow the campaign kills, split into
        # fingerprinted (intended) and collateral (innocent) damage.
        self.blocked_flows = 0
        self.collateral_flows = 0
        self.degraded_drops = 0

    def crossing(self, src_id: str, dst_id: str) -> bool:
        """Does a src→dst message cross the national border?"""
        return (src_id in self.inside) != (dst_id in self.inside)

    def fingerprinted(self, method: str) -> bool:
        """Does the method carry a protocol fingerprint the DPI watches?"""
        for prefix in self.fingerprints:
            if method.startswith(prefix):
                return True
        return False

    def hard_blocks(self, src_id: str, dst_id: str) -> bool:
        """Deterministic directional block (the censor leg of
        :meth:`Network.can_reach` — order-sensitive)."""
        if not self.crossing(src_id, dst_id):
            return False
        remote = dst_id if src_id in self.inside else src_id
        if remote not in self.blocklist:
            return False
        return self.direction == "both" or src_id in self.inside

    def verdict(self, src_id: str, dst_id: str, method: str) -> Optional[str]:
        """Delivery-time decision for one crossing message.

        Returns ``None`` (pass), ``"blocked"`` (hard directional drop)
        or ``"degraded"`` (probabilistic drop in the degraded
        direction), maintaining the cost counters and feeding every
        fingerprinted crossing message to the DPI observation hook —
        even messages that ultimately pass, which is exactly how relay
        traffic leaks to the censor.
        """
        if not self.crossing(src_id, dst_id):
            return None
        is_relay_traffic = self.fingerprinted(method)
        if is_relay_traffic and self.on_fingerprint is not None:
            self.on_fingerprint(src_id, dst_id, method)
        remote = dst_id if src_id in self.inside else src_id
        if remote not in self.blocklist:
            return None
        if self.direction == "both" or src_id in self.inside:
            self.blocked_flows += 1
            if not is_relay_traffic:
                self.collateral_flows += 1
            return "blocked"
        rng = self.degrade_rng
        if (self.degrade_prob > 0 and rng is not None
                and rng.random() < self.degrade_prob):
            self.degraded_drops += 1
            if not is_relay_traffic:
                self.collateral_flows += 1
            return "degraded"
        return None

    def cost_snapshot(self) -> Dict[str, int]:
        """The campaign's running cost counters."""
        return {
            "blocked_flows": self.blocked_flows,
            "collateral_flows": self.collateral_flows,
            "degraded_drops": self.degraded_drops,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CensorSurface(inside={len(self.inside)},"
            f" blocklist={len(self.blocklist)},"
            f" direction={self.direction!r})"
        )


class _RpcFault:
    """Wrapper distinguishing a remote error payload from a normal value."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


#: What a timed-out call resumes its caller with; never a handler value.
_TIMED_OUT = object()


class _RpcCall(_Waitable):
    """One RPC attempt in flight: the caller's wait, the payload of both
    of its legs and the timeout callback in one slotted object.

    The call rides its legs as their payload.  It holds the request
    payload, then the response value, and ``leg`` says which leg it is
    on (``"rpc_request"``, then ``"rpc_response"``).  At request arrival
    :meth:`Network._deliver` tells it its server node and client id,
    and :meth:`reply` sends the response back along them.

    ``yield call`` subscribes the caller: the call keeps the caller's
    bound ``_resume`` and schedules its timer right after the request
    leg, so the timer precedes any response due at the same instant and
    wins the tie.  The engine event that comes first settles the call
    and resumes the caller: the response arrival (:meth:`resolve`,
    which tombstones the timer first) or the timer (:meth:`expire`,
    resuming with ``_TIMED_OUT``).  A response that reaches a settled
    call is a no-op.

    In flight (request sent, no response yet) the call and its caller
    process hold at most 12 GC-tracked objects (the budget in
    ``tests/net/test_transport_legs.py``).
    """

    __slots__ = ("network", "payload", "leg", "client_id", "server",
                 "response_bytes", "timeout", "resume", "timer")

    # Unset until the request arrives.
    client_id: str
    server: Node

    def __init__(
        self,
        network: "Network",
        payload: Any,
        response_bytes: int,
        timeout: float,
    ):
        self.network = network
        self.payload = payload
        self.leg = "rpc_request"
        self.response_bytes = response_bytes
        self.timeout = timeout
        self.resume: Optional[Callable[[Any], None]] = None
        self.timer: Optional["_ScheduledEvent"] = None

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        self.resume = process._resume
        self.timer = sim.schedule(self.timeout, self.expire)

    def resolve(self) -> None:
        """The response arrived: unless the timer settled the call
        first, tombstone the timer and resume the caller."""
        resume, timer = self.resume, self.timer
        if resume is not None and timer is not None:
            self.resume = self.timer = None
            timer.cancel()
            resume(self.payload)

    def expire(self) -> None:
        """The timer fired first: resume the caller with ``_TIMED_OUT``."""
        resume = self.resume
        if resume is not None:
            self.resume = self.timer = None
            resume(_TIMED_OUT)

    def reply(self, value: Any) -> None:
        """Send the handler's value back as the response leg; a handler
        process waits on this too.  A server that went offline before
        responding sends nothing."""
        server = self.server
        if server.online:
            self.payload = value
            self.leg = "rpc_response"
            self.network.send(server.node_id, self.client_id, "response",
                              self, self.response_bytes)


class Network:
    """The simulated network fabric.

    Parameters
    ----------
    sim:
        The discrete-event simulator driving everything.
    streams:
        Named RNG streams (loss decisions draw from ``"net.loss"``).
    latency:
        A :class:`LatencyModel`; defaults to 50 ms constant.
    loss_rate:
        Independent per-message drop probability in [0, 1).
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RngStreams,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ):
        if not 0 <= loss_rate < 1:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.streams = streams
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss_rate = loss_rate
        # Share the simulator's observation hooks (both None unless an
        # observe() block or explicit Simulator args enabled them).
        self._tracer = sim.tracer
        self._metrics = sim.metrics
        self._nodes: Dict[str, Node] = {}
        self._loss_rng = streams.stream("net.loss")
        self._partition: Optional[Dict[str, int]] = None
        # Fault surface: None unless a FaultPlan window is active
        # (installed only by repro.faults.FaultInjector; FLT001).
        self._faults: Optional[FaultSurface] = None
        # Censor surface: None unless a Censor campaign is active
        # (same installer, same lint rule).
        self._censor: Optional[CensorSurface] = None
        # Flow accounting: sent == delivered + dropped + in_flight at
        # every instant (the chaos conservation invariant).
        self._flow_sent = 0
        self._flow_delivered = 0
        self._flow_dropped = 0
        self._flow_in_flight = 0
        # The arrival callback, bound once, not once per scheduled leg.
        self._deliver_cb = self._deliver

    # -- registry ----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self._nodes[node.node_id] = node
        return node

    def create_node(
        self,
        node_id: str,
        node_class: str = NodeClass.DATACENTER,
        upstream_bps: float = 1e9,
        downstream_bps: float = 1e9,
    ) -> Node:
        return self.add_node(
            Node(node_id, node_class, upstream_bps, downstream_bps)
        )

    def node(self, node_id: str) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise NetworkError(f"unknown node {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def online_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.online]

    # -- message legs --------------------------------------------------------

    def send(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any = None,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
    ) -> None:
        """Fire-and-forget message; delivery is best-effort.

        The handler's return value is discarded.  Lost silently if the
        message is dropped or the destination is offline at arrival.
        :meth:`rpc` sends its request and response legs through here
        too, each with the call object as its payload.
        """
        if not size_bytes >= 0:  # also rejects NaN
            raise NetworkError(f"negative message size: {size_bytes}")
        nodes = self._nodes
        src, dst = nodes.get(src_id), nodes.get(dst_id)
        if src is None or dst is None:
            src, dst = self.node(src_id), self.node(dst_id)  # raises
        src.bytes_sent += size_bytes
        self._flow_sent += 1
        if self._tracer is not None or self._metrics is not None:
            self._msg_event("msg_send", src_id, dst_id, method, payload,
                            size_bytes)
        # Loss/latency fault checks inlined: this is the hottest path in
        # the library and the quiet-plan cost budget is one pointer check
        # per hook, not a method call.
        faults = self._faults
        if (self.loss_rate > 0
                and self._loss_rng.random() < self.loss_rate) or (
                faults is not None and faults.drop_prob > 0
                and faults.drop_rng.random() < faults.drop_prob):
            self._drop(src_id, dst_id, method, payload, size_bytes, "loss")
            return
        delay = self.latency.delay(src, dst, size_bytes)
        if faults is not None and faults.latency_factor != 1.0:
            delay *= faults.latency_factor
        self._flow_in_flight += 1
        self.sim.schedule(delay, self._deliver_cb, src_id, dst, method,
                          payload, size_bytes)

    def _deliver(
        self,
        src_id: str,
        dst: Node,
        method: str,
        payload: Any,
        size_bytes: int,
    ) -> None:
        """Arrival of one leg, scheduled by :meth:`send`.

        A method bound once per network rather than a per-message
        closure, so an in-flight leg is one GC-tracked object: its event
        (a heap entry or a chain link), which holds these arguments
        inline.  Checks run offline → censor → partition → corrupt, each
        reading transport state at arrival, so faults landing mid-flight
        still kill it.  A delivered leg then differs by kind: a one-way
        leg is dispatched, an RPC request is dispatched and answered,
        and an RPC response resolves its call.  A dropped request is
        accounted like any dropped leg, and its caller times out.
        """
        self._flow_in_flight -= 1
        dst_id = dst.node_id
        if not dst.online:
            self._drop(src_id, dst_id, method, payload, size_bytes,
                       "offline")
            return
        if (self._censor is not None
                and self._censored(src_id, dst_id, method)):
            self._drop(src_id, dst_id, method, payload, size_bytes, "censor")
            return
        if ((self._partition is not None or self._censor is not None)
                and not self.can_reach(src_id, dst_id)):
            self._drop(src_id, dst_id, method, payload, size_bytes,
                       "partition")
            return
        faults = self._faults
        if (faults is not None and faults.corrupt_prob > 0
                and faults.corrupt_rng.random() < faults.corrupt_prob):
            self._drop(src_id, dst_id, method, payload, size_bytes,
                       "corrupt")
            return
        self._flow_delivered += 1
        if self._tracer is not None or self._metrics is not None:
            self._msg_event("msg_deliver", src_id, dst_id, method, payload,
                            size_bytes)
        if payload.__class__ is _RpcCall:
            call = payload
            if call.leg == "rpc_response":
                call.resolve()
                return
            call.client_id, call.server = src_id, dst
            try:
                result = dst.dispatch(method, call.payload, src_id)
            except ReproError as exc:
                call.reply(_RpcFault(exc))
                return
            if result is not None and _is_generator(result):
                process = self.sim.spawn(
                    _faults_to_value(result), name=f"{dst_id}.{method}"
                )
                process.completion._add_waiter(self.sim, call.reply)
            else:
                call.reply(result)
            return
        try:
            result = dst.dispatch(method, payload, src_id)
        except ReproError:
            if self._metrics is not None:
                self._metrics.inc("net.handler_errors")
            return  # fire-and-forget: failures are silent
        if result is not None and _is_generator(result):
            self.sim.spawn(
                _swallow_repro_errors(result, self._metrics),
                name=f"{dst_id}.{method}",
            )

    def broadcast(
        self,
        src_id: str,
        dst_ids: Iterable[str],
        method: str,
        payload: Any = None,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
    ) -> int:
        """Send the same message to many destinations; returns count sent."""
        count = 0
        for dst_id in dst_ids:
            if dst_id == src_id:
                continue
            self.send(src_id, dst_id, method, payload, size_bytes)
            count += 1
        return count

    # -- request/response ------------------------------------------------------

    def rpc(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any = None,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
        response_bytes: int = DEFAULT_MESSAGE_BYTES,
        timeout: float = 30.0,
        retries: int = 0,
    ) -> Generator:
        """Request/response; ``yield from`` this inside a process.

        Returns the handler's return value.  A timed-out attempt is
        re-issued up to ``retries`` more times (each attempt is a fresh
        request with its own timeout window).  Raises:

        * :class:`RpcTimeoutError` — every attempt's request or response
          was lost, or the peer was offline at arrival time.
        * :class:`RemoteError` — the remote handler raised a
          :class:`~repro.errors.ReproError`; the original is attached as
          ``remote_exception``.  Remote errors are not retried.
        """
        if retries < 0:
            raise NetworkError(f"retries must be >= 0, got {retries}")
        if not timeout >= 0:  # also rejects NaN
            raise NetworkError(f"negative rpc timeout: {timeout}")
        if not (size_bytes >= 0 and response_bytes >= 0):  # also NaN
            raise NetworkError(
                f"negative message size: size_bytes={size_bytes},"
                f" response_bytes={response_bytes}"
            )
        attempts = int(retries) + 1
        for attempt in range(attempts):
            try:
                value = yield from self._rpc_attempt(
                    src_id, dst_id, method, payload, size_bytes,
                    response_bytes, timeout, attempt,
                )
            except RpcTimeoutError:
                if attempt + 1 < attempts:
                    if self._metrics is not None:
                        self._metrics.inc("net.rpc_retries")
                    continue
                raise
            return value
        raise AssertionError("unreachable")  # pragma: no cover

    def _rpc_attempt(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any,
        size_bytes: int,
        response_bytes: int,
        timeout: float,
        attempt: int,
    ) -> Generator:
        """One request/response attempt (the pre-retry ``rpc`` body)."""
        call = _RpcCall(self, payload, response_bytes, timeout)
        self.send(src_id, dst_id, method, call, size_bytes)
        if self._metrics is not None:
            self._metrics.inc("net.rpcs_sent")
        start = self.sim.now

        # Yielding the call schedules its timer.  A response cancels the
        # timer, so the queue does not stay hot for ``timeout`` seconds;
        # after a timeout the call is settled and a late response to it
        # is a no-op.
        value = yield call
        if value is _TIMED_OUT:
            self._rpc_span(start, src_id, dst_id, method, "timeout", attempt)
            raise RpcTimeoutError(
                f"rpc {method!r} from {src_id!r} to {dst_id!r} timed out"
            )
        if isinstance(value, _RpcFault):
            self._rpc_span(start, src_id, dst_id, method, "remote_error",
                           attempt)
            raise RemoteError(value.error)
        self._rpc_span(start, src_id, dst_id, method, "ok", attempt)
        return value

    def _rpc_span(
        self,
        start: float,
        src_id: str,
        dst_id: str,
        method: str,
        outcome: str,
        attempt: int,
    ) -> None:
        """Record one finished RPC attempt into the tracer and metrics."""
        if self._tracer is not None:
            self._tracer.emit(
                "rpc", t=start, end=self.sim.now, src=src_id, dst=dst_id,
                method=method, outcome=outcome, attempt=attempt,
            )
        if self._metrics is not None:
            self._metrics.inc(f"net.rpcs_{outcome}")
            if outcome == "ok":
                self._metrics.observe("net.rpc_latency_s",
                                      self.sim.now - start)

    # -- partitions -------------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network: messages between different groups are lost.

        Nodes not named in any group form one implicit extra group.
        Models the §3.2 'loss of communication channels' threat; call
        :meth:`heal` to reconnect.
        """
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                self.node(node_id)  # validate
                if node_id in mapping:
                    raise NetworkError(
                        f"node {node_id!r} appears in two partition groups"
                    )
                mapping[node_id] = index
        self._partition = mapping

    def heal(self) -> None:
        """Reconnect all partitions."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def can_reach(self, src_id: str, dst_id: str) -> bool:
        """Can a message travel from ``src_id`` to ``dst_id`` right now?

        Partitions are symmetric (same-side check), but a censor
        campaign makes the answer **order-sensitive**: under an
        ``outbound`` campaign an inside node cannot reach a blocklisted
        outside endpoint while the reverse direction merely degrades
        (``can_reach(out, in)`` stays ``True``; the probabilistic
        degrade drop happens at delivery time).  Both legs are consulted
        at *delivery* time by the transport, so faults landing while a
        message is in flight still kill it.
        """
        partition = self._partition
        if partition is not None:
            implicit = -1
            if partition.get(src_id, implicit) != partition.get(
                dst_id, implicit
            ):
                return False
        censor = self._censor
        if censor is not None and censor.hard_blocks(src_id, dst_id):
            return False
        return True

    # -- internals ------------------------------------------------------------

    def _drop(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any,
        size_bytes: int,
        reason: str,
    ) -> None:
        """Account one dropped leg: the flow ledger and a ``msg_drop``
        event."""
        self._flow_dropped += 1
        if self._tracer is not None or self._metrics is not None:
            self._msg_event("msg_drop", src_id, dst_id, method, payload,
                            size_bytes, reason)

    def _msg_event(
        self,
        kind: str,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any,
        size_bytes: int,
        reason: Optional[str] = None,
    ) -> None:
        """Record one message leg into the tracer and metrics (no-op
        with observation disabled); an RPC leg's record names its
        ``leg``."""
        if self._tracer is not None:
            fields: Dict[str, Any] = {
                "t": self.sim.now, "src": src_id, "dst": dst_id,
                "method": method, "bytes": size_bytes,
            }
            if reason is not None:
                fields["reason"] = reason
            if payload.__class__ is _RpcCall:
                fields["leg"] = payload.leg
            self._tracer.emit(kind, **fields)
        if self._metrics is not None:
            if kind == "msg_send":
                self._metrics.inc("net.messages_sent")
                self._metrics.inc("net.bytes_sent", size_bytes)
            elif kind == "msg_deliver":
                self._metrics.inc("net.messages_delivered")
                self._metrics.inc("net.bytes_delivered", size_bytes)
            else:
                self._metrics.inc("net.messages_dropped")
                self._metrics.inc(f"net.messages_dropped.{reason}")

    def _censored(self, src_id: str, dst_id: str, method: str) -> bool:
        """Delivery-time censor verdict for one message leg.

        Checked *before* the partition test so a censor kill is
        attributed (counter, drop reason, cost model) to the campaign
        rather than to whatever partition may also be open.  Callers
        guard on ``self._censor is not None`` inline, keeping the quiet
        path (no campaign) to one attribute load per leg.
        """
        censor = self._censor
        if censor is None:
            return False
        verdict = censor.verdict(src_id, dst_id, method)
        if verdict is None:
            return False
        if self._metrics is not None:
            self._metrics.inc(f"faults.censor.{verdict}")
        return True

    def _set_fault_surface(self, surface: Optional[FaultSurface]) -> None:
        """Install (or clear, with ``None``) transport fault injection.

        Internal API for :class:`repro.faults.FaultInjector`; every
        other caller must express faults as a
        :class:`~repro.faults.FaultPlan` (lint rule FLT001).
        """
        self._faults = surface

    @property
    def fault_surface(self) -> Optional[FaultSurface]:
        """The active fault surface (``None`` when no plan window is open)."""
        return self._faults

    def _set_censor_surface(self, surface: Optional["CensorSurface"]) -> None:
        """Install (or clear, with ``None``) a censorship campaign.

        Internal API for :class:`repro.faults.FaultInjector`; every
        other caller must express censorship as a
        :class:`~repro.faults.plan.Censor` plan event (lint rule
        FLT001).
        """
        self._censor = surface

    @property
    def censor_surface(self) -> Optional["CensorSurface"]:
        """The active censor surface (``None`` when no campaign is open)."""
        return self._censor

    def flow_snapshot(self) -> Dict[str, int]:
        """Exact per-leg message accounting (conservation invariant).

        Counts every transport leg — one-way sends, RPC requests, RPC
        responses.  At every instant
        ``sent == delivered + dropped + in_flight``; a run that drains
        its queue ends with ``in_flight == 0``.
        """
        return {
            "sent": self._flow_sent,
            "delivered": self._flow_delivered,
            "dropped": self._flow_dropped,
            "in_flight": self._flow_in_flight,
        }

    def bytes_sent(self, node_id: str) -> int:
        """Bytes ``node_id`` has put on the wire (raises for an unknown id)."""
        return self.node(node_id).bytes_sent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network(nodes={len(self._nodes)}, loss={self.loss_rate})"


def _is_generator(obj: Any) -> bool:
    return hasattr(obj, "send") and hasattr(obj, "throw")


def _faults_to_value(handler_generator: Generator) -> Generator:
    """Run a handler process, converting :class:`ReproError` raised inside
    it into an RPC fault value (delivered to the caller as RemoteError)."""
    try:
        value = yield from handler_generator
    except ReproError as exc:
        return _RpcFault(exc)
    return value


def _swallow_repro_errors(
    handler_generator: Generator, metrics: Optional[Metrics]
) -> Generator:
    """Run a fire-and-forget handler process; library errors are counted
    (``net.handler_errors``) and dropped (one-way messages have nowhere
    to report failure)."""
    try:
        yield from handler_generator
    except ReproError:
        if metrics is not None:
            metrics.inc("net.handler_errors")
