"""Deterministic discrete-event simulation engine.

This is the substrate every protocol simulation in the library runs on.  It
is intentionally small: an event queue ordered by ``(time, sequence)``, plus
a generator-based process abstraction similar in spirit to SimPy.

Determinism guarantees
----------------------
* Events scheduled for the same instant fire in scheduling order (FIFO via a
  monotonic sequence number), never in hash or id order.
* All randomness used by simulations must come from
  :class:`repro.sim.rng.RngStreams`, which derives independent seeded
  streams by name.  The engine itself is randomness-free.

The event queue
---------------
``Simulator._queue`` is a heap of chain heads ordered by ``(time, seq)``:
``schedule`` links an event behind the last scheduled one when both
fall on one instant, so a flood wave is one heap entry, not one per
leg.  A chain holds consecutive seqs and every other head at its
instant was pushed before it began or after it ended, so the fired
head's successor is the smallest entry and takes ``queue[0]`` with no
sift.  ``run`` advances the queue *before* each callback: a callback
that schedules at that instant or raises finds the queue consistent.

A chain link reuses its head's time float, and in a simulator with no
tracer it also stores its head's seq instead of a number of its own.
That orders it exactly.  A link reaches ``queue[0]`` only after its
predecessor fired.  By then every entry at its instant that was pushed
before the chain began has fired, since it sorted before the head, so
every other entry left there was pushed after the chain ended and holds
a larger seq: the head's seq still puts the link first, and no two heap
entries ever share a seq.  Only the tracer reads a link's own seq
(``event_fired``, ``event_cancelled``), and a simulator's tracer is
fixed at construction, so a traced simulator gives every link its own.

One wait, one wake-up
---------------------
A process waits on one thing at a time: a delay, a :class:`Signal`, an
:class:`AllOf`, another :class:`Process` (join) or an RPC call.  Only
that wait resumes the process, and it does so exactly once: a delay is
one event, a signal schedules each waiter once when it fires, an
``AllOf`` schedules the resume when its last child completes, and an
RPC call is settled by whichever of its response or its timer comes
first.  Nothing else can move a process out of a wait, so a wait
registers no cancel handle and a resume tears nothing down.
:attr:`Simulator.stale_resumes` counts wake-ups that reach a finished
process; it reads zero by construction, and the chaos invariant
``no_double_resume`` checks that it stays there.

Observability
-------------
``Simulator(tracer=..., metrics=...)`` — or an ambient
:func:`repro.obs.observe` block — turns on per-event tracing and queue
metrics (see ``docs/OBSERVABILITY.md``).  Disabled (the default), every
hook site is a single ``is not None`` check.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield 5.0
        print("woke at", sim.now)

    sim.spawn(worker(sim))
    sim.run()
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.obs.runtime import active as _active_observation
from repro.obs.tracer import Tracer

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "AllOf",
]


def _callback_name(callback: Callable) -> str:
    """Deterministic display name for a scheduled callback."""
    while isinstance(callback, partial):
        callback = callback.func
    name = getattr(callback, "__qualname__", None)
    if name:
        return name
    return type(callback).__name__


class _Waitable:
    """Base for things a process may ``yield`` on."""

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for exactly one ``process._resume(value)``."""
        raise NotImplementedError


class Timeout(_Waitable):
    """Wait for a fixed amount of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        sim.schedule(self.delay, process._resume, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Signal(_Waitable):
    """A one-shot waitable event that processes can block on.

    A signal starts *pending*; calling :meth:`fire` schedules every
    waiter, in subscription order, with the supplied value.  Waiting on
    an already-fired signal resumes the waiter immediately (at the
    current instant) with the stored value.
    """

    __slots__ = ("name", "_fired", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: List[Tuple["Simulator", Callable[[Any], None]]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._value

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for sim, callback in waiters:
            sim.schedule(0.0, callback, value)

    def _add_waiter(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> None:
        """Arrange for ``callback(value)`` once the signal has fired."""
        if self._fired:
            sim.schedule(0.0, callback, self._value)
        else:
            self._waiters.append((sim, callback))

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        self._add_waiter(sim, process._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


class _AllOfWait:
    """In-flight state of one :class:`AllOf` wait.

    A slotted object with a bound-method callback: cheaper per wait than
    the equivalent closure pile, which matters because every round of a
    DHT lookup waits on an ``AllOf`` of its parallel query processes.
    """

    __slots__ = ("sim", "resume", "results", "remaining")

    def __init__(self, sim: "Simulator", resume: Callable[[Any], None],
                 n: int):
        self.sim = sim
        self.resume = resume
        self.results: List[Any] = [None] * n
        self.remaining = n

    def child_done(self, index: int, value: Any) -> None:
        self.results[index] = value
        self.remaining -= 1
        if self.remaining == 0:
            self.sim.schedule(0.0, self.resume, self.results)


class AllOf(_Waitable):
    """Wait until every child has completed.

    Resumes the waiter with a list of child results in child order.
    Children are :class:`Process` (join), :class:`Signal` or
    :class:`Timeout`; combinators do not nest.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("AllOf requires at least one child")
        for child in self.children:
            if not isinstance(child, (Process, Signal, Timeout)):
                raise SimulationError(f"cannot combine waitable {child!r}")

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        child_done = _AllOfWait(sim, process._resume,
                                len(self.children)).child_done
        for i, child in enumerate(self.children):
            done = partial(child_done, i)
            if isinstance(child, Timeout):
                sim.schedule(child.delay, done, None)
            elif isinstance(child, Process):
                child.completion._add_waiter(sim, done)
            else:
                child._add_waiter(sim, done)


class Process:
    """A generator-based simulated process.

    The generator may yield:

    * a ``float``/``int`` — sleep for that many simulated seconds;
    * a :class:`Timeout`, :class:`Signal` or :class:`AllOf`;
    * another :class:`Process` — wait for it to finish (join).

    The value sent back into the generator is the result of the wait (the
    signal's value, the joined process's return value, ``None`` for
    timeouts).  The process's own return value (via ``return x``) becomes
    the value of its completion signal.  Each wait resumes the process
    exactly once (see the module doc), so a resume has nothing to tear
    down.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__};"
                " did you forget to call the generator function?"
            )
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.completion = Signal(f"done:{self.name}")
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the finished process (raises if still running)."""
        return self.completion.value

    def _resume(self, value: Any) -> None:
        if not self._alive:
            # A wake-up reached a finished process, which the one-wait
            # rule forbids.  Counted so the chaos invariant harness
            # (repro.faults.invariants.no_double_resume) can assert it
            # stays zero.
            self.sim._stale_resumes += 1
            return
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(target)

    def _finish(self, value: Any) -> None:
        self._alive = False
        sim = self.sim
        if sim._tracer is not None:
            sim._tracer.emit("process_finished", t=sim.now, name=self.name)
        if sim._metrics is not None:
            sim._metrics.inc("sim.processes_finished")
        self.completion.fire(value)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = Timeout(target)
        if isinstance(target, Process):
            target = target.completion
        if not isinstance(target, _Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded unwaitable {target!r}"
            )
        target._subscribe(self.sim, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"


class _ScheduledEvent(List[Any]):
    """Handle for one scheduled callback, and its own queue entry.

    The entry is ``[time, seq, callback, sim, next, *args]``: ``seq`` is
    unique among heap entries, so list comparison resolves at C speed
    on the first two items and never calls back into Python, and an
    event with its arguments inline is one exact-size GC-tracked object.
    ``callback is None`` marks an event that was fired or cancelled;
    ``next`` links the chain of its instant (only a chain's head is in
    the heap; see the module doc).
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Idempotent; cancelling an already-executed event is a no-op.

        A cancelled event stays queued as a tombstone (removal from the
        middle of a binary heap or a chain is O(n)) holding neither its
        callback nor its arguments; the owning simulator counts
        tombstones so queue-depth accounting stays exact and O(1).  The
        ``event_cancelled`` trace and ``sim.events_cancelled`` counter
        are recorded here, at cancellation time, so events cancelled but
        never drained before ``run()`` returns are still counted.
        """
        if self[2] is None:
            return
        self[2] = None
        del self[5:]
        sim: Simulator = self[3]
        sim._tombstones += 1
        if sim._tracer is not None:
            sim._tracer.emit("event_cancelled", t=sim.now, event_seq=self[1])
        if sim._metrics is not None:
            sim._metrics.inc("sim.events_cancelled")


#: The tail of a simulator whose last scheduled event has left the queue.
_NO_TAIL = _ScheduledEvent((math.nan, -1, None, None, None))


class Simulator:
    """The discrete-event simulation kernel.

    Attributes
    ----------
    now:
        Current simulated time in seconds.  Starts at 0.0.

    Parameters
    ----------
    tracer / metrics:
        Optional :class:`repro.obs.Tracer` / :class:`repro.obs.Metrics`
        hooks.  Each hook that is omitted independently adopts the
        corresponding ambient one from an enclosing
        :func:`repro.obs.observe` block (passing only a tracer still
        picks up the ambient metrics, and vice versa); with no
        observation active both stay ``None`` and instrumentation costs
        one pointer check per hook site.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if tracer is None or metrics is None:
            observation = _active_observation()
            if observation is not None:
                if tracer is None:
                    tracer = observation.tracer
                if metrics is None:
                    metrics = observation.metrics
        self._tracer = tracer
        self._metrics = metrics
        self.now: float = 0.0
        self._queue: List[_ScheduledEvent] = []
        self._tail = _NO_TAIL
        self._tail_at = math.nan
        self._seq = 0
        self._running = False
        self._processed = 0
        self._tombstones = 0  # cancelled events still queued
        self._drained = 0  # cancelled events the run loop has dropped
        self._stale_resumes = 0  # wake-ups delivered to dead processes

    @property
    def tracer(self) -> Optional[Tracer]:
        return self._tracer

    @property
    def metrics(self) -> Optional[Metrics]:
        return self._metrics

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live events still queued (cancelled tombstones excluded)."""
        return self._seq - self._processed - self._drained - self._tombstones

    @property
    def stale_resumes(self) -> int:
        """Resumes delivered to already-finished processes.

        Zero by construction: each wait resumes its process exactly
        once, and a process finishes inside the resume that ends its
        last wait.  A non-zero count means a wait woke its process
        twice — the condition the chaos harness checks continuously.
        """
        return self._stale_resumes

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose :meth:`cancel` prevents execution.
        """
        if not delay >= 0:  # also rejects NaN, which would break the order
            raise SimulationError(f"cannot schedule into the past: {delay}")
        seq = self._seq
        self._seq = seq + 1
        at = self.now + delay
        if at == self._tail_at:
            # A link shares its head's time float and, untraced, its
            # head's seq: see "The event queue" in the module doc.
            tail = self._tail
            event = _ScheduledEvent(
                (tail[0], tail[1] if self._tracer is None else seq,
                 callback, self, None) + args)
            tail[4] = event
        else:
            event = _ScheduledEvent((at, seq, callback, self, None) + args)
            heappush(self._queue, event)
            self._tail_at = at
        self._tail = event
        if self._tracer is not None:
            self._tracer.emit(
                "event_scheduled", t=self.now, at=at,
                event_seq=seq, cb=_callback_name(callback),
            )
        if self._metrics is not None:
            self._metrics.inc("sim.events_scheduled")
        return event

    def schedule_at(
        self, when: float, callback: Callable, *args: Any
    ) -> _ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self.now, callback, *args)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it runs at the current
        instant (before time advances)."""
        process = Process(self, generator, name)
        if self._tracer is not None:
            self._tracer.emit("process_spawned", t=self.now, name=process.name)
        if self._metrics is not None:
            self._metrics.inc("sim.processes_spawned")
        self.schedule(0.0, process._resume, None)
        return process

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> float:
        """Run until the queue empties or simulated time passes ``until``.

        Returns the final simulated time.  ``max_events`` guards against
        runaway simulations: :class:`SimulationError` is raised when a
        live event beyond that many would fire.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if until is not None and until != until:
            raise SimulationError(f"cannot run until {until}")
        self._running = True
        tracer = self._tracer
        metrics = self._metrics
        try:
            limit = self._processed + max_events
            queue = self._queue
            while queue:
                event = queue[0]
                callback = event[2]
                if callback is not None:
                    if until is not None and event[0] > until:
                        break
                    if self._processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events};"
                            " runaway simulation?")
                successor = event[4]
                if successor is None:
                    heappop(queue)
                    if event is self._tail:
                        self._tail = _NO_TAIL
                        self._tail_at = math.nan
                else:
                    queue[0] = successor
                    event[4] = None
                if callback is None:
                    # Tombstone: already traced/counted at cancel time.
                    self._tombstones -= 1
                    self._drained += 1
                    if metrics is not None:
                        metrics.inc("sim.tombstones_drained")
                    continue
                event[2] = None  # fired: cancel() is now a no-op
                self.now = event[0]
                self._processed += 1
                if tracer is not None or metrics is not None:
                    # One depth computation shared by both hooks.
                    depth = (self._seq - self._processed - self._drained
                             - self._tombstones)
                    if tracer is not None:
                        tracer.emit(
                            "event_fired", t=self.now, event_seq=event[1],
                            cb=_callback_name(callback),
                            depth=depth,
                        )
                    if metrics is not None:
                        metrics.inc("sim.events_fired")
                        metrics.observe("sim.queue_depth", depth)
                callback(*event[5:])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            if metrics is not None:
                metrics.set_gauge("sim.pending_at_run_end",
                                  float(self.pending_events))
        return self.now

    def run_process(
        self, generator: Generator, name: str = "", until: Optional[float] = None
    ) -> Any:
        """Spawn a process, run the simulation, and return the process's
        return value.

        With ``until=None`` runs until the event queue drains — only safe
        when no perpetual background processes (miners, gossip loops) are
        scheduled.  Pass a horizon when they are; raises if the process has
        not finished by then, or as soon as the queue empties before it
        has (nothing could finish it, even with ``until=inf``).
        """
        if until is not None and until != until:
            raise SimulationError(f"cannot run until {until}")
        process = self.spawn(generator, name)
        if until is None:
            self.run()
        else:
            while process.alive and self.now < until:
                # Advance in slices so we stop soon after completion; an
                # empty queue means nothing can ever finish the process.
                self.run(until=min(until, self.now + 1000.0))
                if self.pending_events == 0:
                    break
        if process.alive:
            raise SimulationError(
                f"process {process.name!r} did not finish"
                + (" (deadlock?)" if until is None else f" by t={until}")
            )
        return process.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
