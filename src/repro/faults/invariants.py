"""Continuously-checked runtime invariants for chaos runs.

An :class:`Invariant` is a named predicate over an
:class:`InvariantContext` (simulator + network + injector + scenario
extras).  The :class:`InvariantHarness` sweeps every registered
invariant at a fixed simulated interval and once more at
:meth:`~InvariantHarness.finish`; failures become structured
:class:`~repro.errors.InvariantViolation` objects, are emitted into the
trace (``invariant_violated``), and — in strict mode — raised.

Built-in invariant factories (the registry the docs catalog lists):

* :func:`message_conservation` — the transport's exact flow accounting
  must balance: ``sent == delivered + dropped + in_flight`` with
  ``in_flight >= 0``.
* :func:`no_double_resume` — no wake-up is ever delivered to a finished
  process (``Simulator.stale_resumes == 0``): each wait resumes its
  process exactly once, under faults too.
* :func:`monotonic` — a scenario-supplied gauge (chain height, repair
  bytes, names registered) never decreases.
* :func:`eventually` — a liveness deadline: the predicate must hold by
  simulated time ``deadline`` (checked from the deadline onward, and at
  the final sweep).
* :func:`read_your_writes` — a scenario probe that must pass whenever
  the network is fault-free and a grace period has elapsed since the
  last heal.

A tripped invariant is checked no further (one structured violation per
invariant, not one per sweep), so reports stay readable even when a
broken conservation counter would otherwise fail every tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import FaultError, InvariantViolation
from repro.faults.injector import FaultInjector
from repro.net.transport import Network
from repro.sim.engine import Simulator

__all__ = [
    "Invariant",
    "InvariantContext",
    "InvariantHarness",
    "REGISTRY",
    "eventually",
    "message_conservation",
    "monotonic",
    "no_double_resume",
    "read_your_writes",
]

#: What a predicate may return: ``None`` (holds), a message (violated),
#: or a (message, details) pair for structured context.
CheckResult = Optional[Union[str, Tuple[str, Dict[str, Any]]]]


@dataclass
class InvariantContext:
    """Everything a predicate may inspect during a sweep."""

    sim: Simulator
    network: Network
    injector: Optional[FaultInjector] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def faults_quiet(self) -> bool:
        """No partition, censor campaign, or crashed node currently
        injected."""
        if self.injector is None:
            return True
        return not (
            self.injector.partition_active
            or self.injector.censor_active
            or self.injector.crashed_nodes
        )


@dataclass(frozen=True)
class Invariant:
    """A named predicate checked by the harness."""

    name: str
    check: Callable[[InvariantContext], CheckResult]


class InvariantHarness:
    """Periodically sweeps invariants over a running simulation.

    Parameters
    ----------
    sim / network:
        The fabric under test.
    injector:
        The active :class:`FaultInjector`, if any — lets gated
        invariants (``read_your_writes``) know about open faults.
    interval:
        Simulated seconds between sweeps.
    strict:
        When true, the first violation raises immediately (useful in
        tests); otherwise violations are collected and reported.
    extras:
        Scenario state handed to predicates via the context.

    Call :meth:`start` before ``sim.run()`` and :meth:`finish` after —
    the final sweep catches violations that appear only once the queue
    drains (e.g. ``in_flight`` not returning to zero).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        injector: Optional[FaultInjector] = None,
        interval: float = 5.0,
        strict: bool = False,
        extras: Optional[Dict[str, Any]] = None,
    ):
        if not interval > 0:
            raise FaultError(f"sweep interval must be positive: {interval}")
        self.context = InvariantContext(
            sim=sim, network=network, injector=injector,
            extras=dict(extras or {}),
        )
        self.interval = interval
        self.strict = strict
        self.invariants: List[Invariant] = []
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self._tripped: set = set()
        self._pending = None
        self._started = False
        self._finished = False

    def add(self, invariant: Invariant) -> "InvariantHarness":
        if any(existing.name == invariant.name for existing in self.invariants):
            raise FaultError(f"duplicate invariant name {invariant.name!r}")
        self.invariants.append(invariant)
        return self

    def start(self) -> None:
        """Begin periodic sweeps (first sweep after one interval)."""
        if self._started:
            raise FaultError("harness already started")
        self._started = True
        self._pending = self.context.sim.schedule(self.interval, self._sweep)

    def finish(self) -> List[InvariantViolation]:
        """Run one final sweep and stop; returns all violations."""
        if not self._finished:
            self._finished = True
            if self._pending is not None:
                self._pending.cancel()
                self._pending = None
            self._run_checks()
        return self.violations

    def _sweep(self) -> None:
        self._run_checks()
        self._pending = self.context.sim.schedule(self.interval, self._sweep)

    def _run_checks(self) -> None:
        sim = self.context.sim
        checked = 0
        new_violations = 0
        for invariant in self.invariants:
            if invariant.name in self._tripped:
                continue
            checked += 1
            self.checks_run += 1
            result = invariant.check(self.context)
            if result is None:
                continue
            if isinstance(result, tuple):
                message, details = result
            else:
                message, details = result, {}
            violation = InvariantViolation(
                invariant.name, message, sim.now, details
            )
            self._tripped.add(invariant.name)
            self.violations.append(violation)
            new_violations += 1
            if sim.tracer is not None:
                sim.tracer.emit(
                    "invariant_violated", t=sim.now, name=invariant.name,
                    message=message, **{f"d_{k}": v for k, v in details.items()},
                )
            if sim.metrics is not None:
                sim.metrics.inc("faults.invariant_violations")
            if self.strict:
                raise violation
        if sim.tracer is not None:
            sim.tracer.emit(
                "invariant_checked", t=sim.now, checked=checked,
                violated=new_violations,
            )
        if sim.metrics is not None:
            sim.metrics.inc("faults.invariant_sweeps")


# -- built-in invariant factories ----------------------------------------


def message_conservation() -> Invariant:
    """Transport flow accounting balances on every sweep."""

    def check(ctx: InvariantContext) -> CheckResult:
        flow = ctx.network.flow_snapshot()
        balance = flow["delivered"] + flow["dropped"] + flow["in_flight"]
        if flow["in_flight"] < 0:
            return (f"negative in-flight count: {flow['in_flight']}", flow)
        if flow["sent"] != balance:
            return (
                f"sent={flow['sent']} != delivered+dropped+in_flight"
                f"={balance}",
                flow,
            )
        return None

    return Invariant(name="message_conservation", check=check)


def no_double_resume() -> Invariant:
    """No wake-up is ever delivered to an already-finished process."""

    def check(ctx: InvariantContext) -> CheckResult:
        stale = ctx.sim.stale_resumes
        if stale:
            return (
                f"{stale} resume(s) delivered to dead processes",
                {"stale_resumes": stale},
            )
        return None

    return Invariant(name="no_double_resume", check=check)


def monotonic(name: str, getter: Callable[[InvariantContext], float]) -> Invariant:
    """A scenario gauge must never decrease between sweeps."""
    last: List[Optional[float]] = [None]

    def check(ctx: InvariantContext) -> CheckResult:
        value = getter(ctx)
        previous = last[0]
        last[0] = value
        if previous is not None and value < previous:
            return (
                f"value decreased: {previous} -> {value}",
                {"previous": previous, "current": value},
            )
        return None

    return Invariant(name=name, check=check)


def eventually(
    name: str,
    deadline: float,
    predicate: Callable[[InvariantContext], bool],
) -> Invariant:
    """``predicate`` must hold at every sweep from ``deadline`` onward.

    Sweeps before the deadline pass vacuously; make sure the run's final
    sweep (:meth:`InvariantHarness.finish`) happens at or after the
    deadline, or the liveness condition is never actually enforced.
    """

    def check(ctx: InvariantContext) -> CheckResult:
        if ctx.now < deadline:
            return None
        if not predicate(ctx):
            return (
                f"still false at t={ctx.now:g} (deadline {deadline:g})",
                {"deadline": deadline},
            )
        return None

    return Invariant(name=name, check=check)


def read_your_writes(
    probe: Callable[[InvariantContext], CheckResult],
    grace: float = 0.0,
) -> Invariant:
    """A consistency probe that must pass whenever the network is calm.

    The probe is skipped while a partition is open or a crashed node is
    down, and for ``grace`` simulated seconds after the most recent heal
    (anti-entropy needs time to converge).  Once the network is quiet
    and the grace period has elapsed, any probe failure is a violation.
    """

    def check(ctx: InvariantContext) -> CheckResult:
        if not ctx.faults_quiet:
            return None
        injector = ctx.injector
        if injector is not None and injector.last_heal_at is not None:
            if ctx.now < injector.last_heal_at + grace:
                return None
        return probe(ctx)

    return Invariant(name="read_your_writes", check=check)


#: Catalog of built-in invariant factories, for docs and the CLI.
REGISTRY: Dict[str, Callable[..., Invariant]] = {
    "message_conservation": message_conservation,
    "no_double_resume": no_double_resume,
    "monotonic": monotonic,
    "eventually": eventually,
    "read_your_writes": read_your_writes,
}
