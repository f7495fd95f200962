"""Property-based tests: the event queue drains for random process graphs.

After ``run()`` returns (no ``until``), ``pending_events`` is exactly 0
and no wake-up reached a finished process, whatever mix of waits the
processes performed: each wait resumes its process exactly once.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import Metrics
from repro.sim import AllOf, Signal, Simulator, Timeout

# One step of a random process: (op, small-int parameter).
_STEP = st.tuples(
    st.sampled_from(["sleep", "wait_signal", "join_all", "spawn_child"]),
    st.integers(min_value=0, max_value=3),
)
_PROGRAM = st.lists(_STEP, min_size=0, max_size=5)


def _run_program(sim, program, signals, depth=0):
    """Interpret one random program as a simulation process."""
    for op, arg in program:
        if op == "sleep":
            yield float(arg)
        elif op == "wait_signal":
            # A shared signal that may fire before, during or never.
            yield signals[arg]
        elif op == "join_all":
            yield AllOf([Timeout(float(arg)), Timeout(float(arg) / 2 + 0.1)])
        elif op == "spawn_child" and depth < 2:
            child = sim.spawn(
                _run_program(sim, program[:arg], signals, depth + 1)
            )
            yield AllOf([child, Timeout(1.0)])
    return depth


class TestQueueDrainsProperty:
    @given(
        programs=st.lists(_PROGRAM, min_size=1, max_size=4),
        fire_times=st.lists(
            st.floats(min_value=0.0, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            min_size=0, max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_queue_empty_after_run(self, programs, fire_times):
        metrics = Metrics()
        sim = Simulator(metrics=metrics)
        signals = [Signal(f"s{i}") for i in range(4)]
        for program in programs:
            sim.spawn(_run_program(sim, program, signals))
        # Fire some signals at arbitrary times; the rest never fire.
        for i, t in enumerate(fire_times):
            sim.schedule(t, signals[i % len(signals)].fire, i)
        sim.run()
        assert sim.pending_events == 0
        assert sim.stale_resumes == 0
        assert metrics.gauge("sim.pending_at_run_end") == 0.0
        # Internal bookkeeping agrees: no live or tombstoned entries.
        assert sim._queue == []
        assert sim._tombstones == 0
