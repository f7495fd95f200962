"""The chained event queue against a plain ``(time, seq)`` binary heap.

``Simulator`` keeps only the first event of each run of same-instant
schedules in its heap and links the rest behind it.  ``_HeapSimulator``
below is the queue that design replaced, kept minimal: one heap entry
per event, popped in ``(time, seq)`` order.  Random programs drive
both through same-instant bursts, zero-delay reschedules from
callbacks, cancels of chain heads, middles and tails, ``run(until=)``
at and between instants, schedules at ``now`` after ``run`` returns,
and callbacks that raise.  After every step the fire order, ``now``,
``pending_events`` and the metrics snapshot must agree.

An untraced chain link stores its head's seq, so the heap reference
checks the order those shared seqs give.  A traced simulator gives each
link its own seq, which ``TestTracedSeqs`` checks against the trace.
"""

import heapq
import weakref

from hypothesis import given, settings, strategies as st

from repro.net import ConstantLatency, Network
from repro.obs import Metrics, Tracer
from repro.sim import RngStreams, Simulator
from tests.net import test_transport_legs as legs


class _HeapEvent(list):
    """``[time, seq, callback, args, sim]``, as the heap engine kept it."""

    def cancel(self):
        if self[2] is None:
            return
        self[2] = None
        self[3] = ()
        sim = self[4]
        sim._tombstones += 1
        sim._metrics.inc("sim.events_cancelled")


class _HeapSimulator:
    """The reference: one heap entry per event, no chains."""

    def __init__(self, metrics):
        self._metrics = metrics
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self._tombstones = 0

    @property
    def pending_events(self):
        return len(self._queue) - self._tombstones

    def schedule(self, delay, callback, *args):
        assert delay >= 0
        event = _HeapEvent((self.now + delay, self._seq, callback, args, self))
        self._seq += 1
        heapq.heappush(self._queue, event)
        self._metrics.inc("sim.events_scheduled")
        return event

    def run(self, until=None):
        metrics, queue = self._metrics, self._queue
        try:
            while queue:
                event = queue[0]
                callback = event[2]
                if callback is None:
                    heapq.heappop(queue)
                    self._tombstones -= 1
                    metrics.inc("sim.tombstones_drained")
                    continue
                if until is not None and event[0] > until:
                    break
                heapq.heappop(queue)
                event[2] = None
                self.now = event[0]
                depth = len(queue) - self._tombstones
                metrics.inc("sim.events_fired")
                metrics.observe("sim.queue_depth", depth)
                callback(*event[3])
            if until is not None and self.now < until:
                self.now = until
        finally:
            metrics.set_gauge("sim.pending_at_run_end",
                              float(self.pending_events))
        return self.now


class _Boom(Exception):
    pass


#: Delays on a binary grid, so sums of them meet on exact instants.
_DELAYS = (0.0, 0.0, 0.0, 0.25, 0.5, 1.0)
#: Where ``run(until=now + offset)`` stops: on instants of the grid,
#: between them, in the past, or nowhere.
_OFFSETS = (0.0, 0.25, 0.5, 1.0, 0.125, 0.375, 1.125, -0.25, float("inf"))
#: Events a program may schedule in all, so every ``run()`` ends.
_MAX_EVENTS = 60

_ACTION = st.one_of(
    st.sampled_from([("noop",), ("raise",), ("schedule", 0.0, 1)]),
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS),
              st.integers(1, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
)
#: ``("run", "last")`` stops exactly at the instant of the last schedule.
_STEP = st.one_of(
    st.tuples(st.just("burst"), st.sampled_from(_DELAYS),
              st.integers(1, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("cancel_in_burst"), st.sampled_from([0, 1, -1])),
    st.tuples(st.just("run"), st.sampled_from((None, "last") + _OFFSETS)),
)
PROGRAMS = st.tuples(
    st.lists(_ACTION, min_size=1, max_size=6),
    st.lists(_STEP, min_size=1, max_size=25),
)


class _Interpreter:
    """Runs one program on one engine and records what it observes."""

    def __init__(self, sim, actions):
        self.sim = sim
        self.actions = actions
        self.handles = []
        self.last_burst = []
        self.last_at = 0.0
        self.observed = []

    def schedule(self, delay):
        """The new event's ident, or ``None`` past ``_MAX_EVENTS``."""
        if len(self.handles) < _MAX_EVENTS:
            ident = len(self.handles)
            self.last_at = self.sim.now + delay
            self.handles.append(self.sim.schedule(delay, self.fire, ident))
            return ident
        return None

    def cancel(self, ident):
        self.handles[ident].cancel()

    def fire(self, ident):
        sim = self.sim
        self.observed.append(("fire", ident, sim.now, sim.pending_events))
        action = self.actions[ident % len(self.actions)]
        if action[0] == "schedule":
            for _ in range(action[2]):
                self.schedule(action[1])
        elif action[0] == "cancel":
            self.cancel(action[1] % len(self.handles))
        elif action[0] == "raise":
            raise _Boom(ident)

    def step(self, step):
        sim = self.sim
        kind = step[0]
        if kind == "burst":
            burst = [self.schedule(step[1]) for _ in range(step[2])]
            self.last_burst = [ident for ident in burst if ident is not None]
        elif kind == "cancel" and self.handles:
            self.cancel(step[1] % len(self.handles))
        elif kind == "cancel_in_burst" and self.last_burst:
            position = {0: 0, 1: len(self.last_burst) // 2, -1: -1}[step[1]]
            self.cancel(self.last_burst[position])
        elif kind == "run":
            until = (self.last_at if step[1] == "last" else
                     None if step[1] is None else sim.now + step[1])
            try:
                self.observed.append(("ran", sim.run(until=until)))
            except _Boom as exc:
                self.observed.append(("raised", exc.args[0]))
        self.observed.append(("state", sim.now, sim.pending_events,
                              sim._metrics.snapshot()))

    def drain(self):
        """Run to the end, stepping over raising callbacks."""
        for _ in range(_MAX_EVENTS + 1):
            self.step(("run", None))
            if self.observed[-2][0] == "ran":
                return
        raise AssertionError("run() kept raising")


class _TracedInterpreter(_Interpreter):
    """Also logs, in emission order, which event each ``event_*`` trace
    record must name."""

    def __init__(self, sim, actions):
        super().__init__(sim, actions)
        self.expected = []  # (record kind, ident)

    def schedule(self, delay):
        ident = super().schedule(delay)
        if ident is not None:
            self.expected.append(("event_scheduled", ident))
        return ident

    def cancel(self, ident):
        before = len(self.sim.tracer)
        super().cancel(ident)
        if len(self.sim.tracer) > before:  # not already fired or cancelled
            self.expected.append(("event_cancelled", ident))

    def fire(self, ident):
        self.expected.append(("event_fired", ident))
        super().fire(ident)


def interpret(sim, program, interpreter=_Interpreter):
    actions, steps = program
    program_run = interpreter(sim, actions)
    for step in steps:
        program_run.step(step)
    program_run.drain()
    return program_run


def observe(make_sim, program):
    return interpret(make_sim(Metrics()), program).observed


def check_program(program):
    """Both engines observe the same thing at every step."""
    chained = observe(lambda metrics: Simulator(metrics=metrics), program)
    reference = observe(_HeapSimulator, program)
    for index, (got, want) in enumerate(zip(chained, reference)):
        assert got == want, f"step {index}: {got!r} != {want!r}"
    assert len(chained) == len(reference)


def check_traced_program(program):
    """A traced simulator observes what an untraced one does, and each
    ``event_fired``/``event_cancelled`` record names the seq that its
    event's own ``event_scheduled`` record announced."""
    tracer = Tracer()
    traced = interpret(Simulator(tracer=tracer, metrics=Metrics()),
                       program, _TracedInterpreter)
    assert traced.observed == observe(
        lambda metrics: Simulator(metrics=metrics), program)
    records = [record for record in tracer.events
               if record["kind"].startswith("event_")]
    assert [record["kind"] for record in records] == [
        kind for kind, _ in traced.expected]
    announced = {}
    for record, (kind, ident) in zip(records, traced.expected):
        if kind == "event_scheduled":
            announced[ident] = record["event_seq"]
        else:
            assert record["event_seq"] == announced[ident], (kind, ident)
    # Every event announced its own seq.
    assert sorted(announced.values()) == list(range(len(announced)))


class TestAgainstHeapReference:
    @given(PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_same_observations_as_the_heap_engine(self, program):
        check_program(program)

    def test_schedule_at_now_after_a_stop_on_an_instant(self):
        # run(until=1.0) fires the 1.0 chain and returns; a zero-delay
        # schedule at 1.0 must start a new chain, not join the fired one.
        check_program(([("noop",)], [
            ("burst", 1.0, 3), ("run", 1.0), ("burst", 0.0, 2),
            ("burst", 0.0, 1), ("run", None),
        ]))

    def test_raising_callback_leaves_the_queue_consistent(self):
        check_program(([("noop",), ("raise",), ("schedule", 0.0, 2)], [
            ("burst", 0.5, 5), ("run", None), ("burst", 0.0, 3),
            ("cancel_in_burst", -1), ("run", 0.0),
        ]))


class TestTracedSeqs:
    @given(PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_records_name_each_events_own_seq(self, program):
        check_traced_program(program)


class TestQueueShape:
    def test_same_instant_legs_share_one_heap_entry(self):
        # Every leg of a 2,000-message burst lands at 0.05: one heap
        # entry (2,000 with a heap of events), and the chain link is a
        # slot of the event, so chaining adds no GC-tracked object.
        sim = Simulator()
        network = Network(sim, RngStreams(1), latency=ConstantLatency(0.05))
        network.create_node("a")
        network.create_node("b").register_handler("ping", lambda *a: None)
        per_leg = legs.tracked_per_leg(
            lambda: network.send("a", "b", "ping", 1))
        assert per_leg <= legs.TRACKED_PER_LEG
        assert len(sim._queue) == 1
        assert sim.pending_events == 2 * legs.LEGS
        sim.run()
        assert sim._queue == [] and sim.pending_events == 0

    def test_leg_and_rpc_budgets_are_unchanged(self):
        assert (legs.TRACKED_PER_LEG, legs.TRACKED_PER_RPC) == (1, 12)

    def test_fired_event_argument_is_freed_when_run_returns(self):
        # A queue that kept its last fired event as the chain tail would
        # pin that event's arguments until the next schedule.
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        sim.schedule(1.0, lambda value: None, payload)
        del payload
        sim.run()
        assert ref() is None
