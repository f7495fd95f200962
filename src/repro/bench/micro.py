"""Micro benchmarks: tight loops over one library primitive each.

Each body does a fixed, seed-derived amount of work against the
primitive it names — the event loop, a transport leg, an RPC
round-trip, a named RNG stream, the metrics histogram — and records
work counters into the harness-supplied registry.  Sizes are chosen so
a body lands in the low tens of milliseconds: long enough to time
meaningfully, short enough that CI can afford repetitions.

Per the BEN001 contract, nothing here reads the host clock; the harness
(:mod:`repro.bench.harness`) does all timing.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.bench.registry import register_benchmark
from repro.net.node import Node
from repro.net.transport import Network
from repro.obs.metrics import Histogram, Metrics
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams, seeded_rng

__all__ = [
    "bench_cohort_step",
    "bench_engine_schedule_fire_cancel",
    "bench_histogram_observe_merge",
    "bench_lint_index",
    "bench_rng_stream_draw",
    "bench_rpc_roundtrip",
    "bench_transport_send_deliver",
]

#: Loop sizes, fixed so work counters are identical everywhere.
_ENGINE_EVENTS = 6000
_COHORT_DEVICES = 50_000
_COHORT_HORIZON = 2000.0
_COHORT_TICK = 50.0
_SEND_MESSAGES = 1500
_RPC_ROUNDS = 400
_RNG_DRAWS_PER_STREAM = 20000
_HIST_SHARDS = 6
_HIST_OBSERVATIONS_PER_SHARD = 1500
_LINT_HELPERS = 12
_LINT_SIM_MODULES = 84


def _noop() -> None:
    return None


@register_benchmark(
    "micro.engine.schedule_fire_cancel", "micro",
    "schedule/cancel/fire a dense event queue through Simulator.run",
)
def bench_engine_schedule_fire_cancel(metrics: Metrics) -> None:
    sim = Simulator(metrics=metrics)
    events = [
        sim.schedule(float(i % 50), _noop) for i in range(_ENGINE_EVENTS)
    ]
    # Cancel every third event: exercises tombstoning and drain.
    for event in events[::3]:
        event.cancel()
    sim.run()


@register_benchmark(
    "micro.transport.send_deliver", "micro",
    "one-way message legs (send -> deliver) across a two-node fabric",
)
def bench_transport_send_deliver(metrics: Metrics) -> None:
    sim = Simulator(metrics=metrics)
    network = Network(sim, RngStreams(1009))
    network.create_node("src")
    sink = network.create_node("dst")
    sink.register_handler("ping", _return_payload)
    for i in range(_SEND_MESSAGES):
        network.send("src", "dst", "ping", payload=i)
    sim.run()


def _return_payload(node: Node, payload: Any, sender_id: str) -> Any:
    return payload


@register_benchmark(
    "micro.transport.rpc_roundtrip", "micro",
    "request/response RPC round-trips (request leg, timer, response leg)",
)
def bench_rpc_roundtrip(metrics: Metrics) -> None:
    sim = Simulator(metrics=metrics)
    network = Network(sim, RngStreams(2003))
    network.create_node("client")
    server = network.create_node("server")
    server.register_handler("echo", _return_payload)

    def client(sim: Simulator, network: Network) -> Generator:
        for i in range(_RPC_ROUNDS):
            yield from network.rpc("client", "server", "echo", payload=i)

    sim.run_process(client(sim, network), name="bench.rpc_client")


@register_benchmark(
    "micro.rng.stream_draw", "micro",
    "named-RNG stream creation and uniform draws (RngStreams)",
)
def bench_rng_stream_draw(metrics: Metrics) -> None:
    streams = RngStreams(3001)
    total = 0.0
    for name in ("alpha", "beta", "gamma", "delta"):
        stream = streams.stream(f"bench.{name}")
        draw = stream.random
        for _ in range(_RNG_DRAWS_PER_STREAM):
            total += draw()
    metrics.inc("bench.rng_streams", 4)
    metrics.inc("bench.rng_draws", 4 * _RNG_DRAWS_PER_STREAM)
    # The sum is a pure function of the seeds; folding it into a counter
    # (scaled to an int) lets compare() catch any drift in draw order.
    metrics.inc("bench.rng_draw_checksum", int(total * 1e6))


@register_benchmark(
    "micro.cohort.step", "micro",
    "vectorized cohort renewal steps (50k devices, 40 coarse ticks)",
)
def bench_cohort_step(metrics: Metrics) -> None:
    from repro.sim.cohort import CohortEngine, DeviceCohort
    from repro.sim.rng import seeded_generator

    engine = CohortEngine(tick=_COHORT_TICK, metrics=metrics)
    cohort = engine.add(DeviceCohort(
        "bench", _COHORT_DEVICES, mean_uptime=600.0, mean_downtime=300.0,
        attrition=0.01, generator=seeded_generator(7001, "bench.cohort"),
    ))
    engine.run(_COHORT_HORIZON)
    # Integer work counters double as a draw-order checksum: any change
    # to the batch-flip loop or the dwell sampler moves them.
    metrics.inc("bench.cohort_flips", cohort.flips)
    metrics.inc("bench.cohort_sessions", cohort.sessions())
    metrics.inc("bench.cohort_departed", cohort.departed_count())
    metrics.inc("bench.cohort_draws", cohort.draws)
    metrics.inc("bench.cohort_final_online", cohort.online_count())


@register_benchmark(
    "micro.obs.histogram_observe_merge", "micro",
    "Histogram.observe across shards plus order-independent merge",
)
def bench_histogram_observe_merge(metrics: Metrics) -> None:
    shards = []
    observations = 0
    for index in range(_HIST_SHARDS):
        shard = Histogram()
        rng = seeded_rng(4001, f"bench.hist.{index}")
        for _ in range(_HIST_OBSERVATIONS_PER_SHARD):
            shard.observe(rng.random() * 1000.0)
        observations += _HIST_OBSERVATIONS_PER_SHARD
        shards.append(shard)
    merged = Histogram()
    for shard in shards:
        merged.merge(shard)
    summary = merged.summary()
    metrics.inc("bench.hist_observations", observations)
    metrics.inc("bench.hist_merged_count", summary["count"])
    metrics.inc("bench.hist_p99_checksum", int(summary["p99"] * 1e6))
    if summary.get("merged_truncated"):
        metrics.inc("bench.hist_merged_truncated")


def _synthetic_lint_tree() -> "dict[str, str]":
    """A deterministic in-memory project for the lint-index benchmark.

    Mixes hazard helpers (wall clock, global RNG), simulated modules
    whose call chains reach them, stream-name collisions, an f-string
    stream family, and one import cycle — so every project rule does
    real work.  Pure function of the constants: identical sources (and
    therefore identical finding counts) on every run.
    """
    sources = {}
    for i in range(_LINT_HELPERS):
        if i % 4 == 0:
            body = "    return time.perf_counter()"
        elif i % 4 == 1:
            body = "    return random.random()"
        else:
            body = f"    return {i} * 3 + 1"
        sources[f"src/repro/analysis/helper_{i}.py"] = "\n".join([
            "import random",
            "import time",
            "",
            "",
            f"def util_{i}():",
            body,
            "",
            "",
            f"def lookup_{i}(x):",
            f"    return util_{i}() if x else {i}",
            "",
        ])
    for i in range(_LINT_SIM_MODULES):
        helper = i % _LINT_HELPERS
        if i % 6 == 5:
            draw = (f"    rng = seeded_rng(seed,"
                    f" f\"sim.mod{i}.{{x}}\")")
        else:
            draw = f"    rng = seeded_rng(seed, \"sim.mod{i}.draw\")"
        lines = [
            f"from repro.analysis.helper_{helper} import lookup_{helper}",
            "from repro.sim.rng import seeded_rng",
            "",
            "",
            f"def step_{i}(x):",
            f"    return lookup_{helper}(x)",
            "",
            "",
            f"def draw_{i}(seed, x=0):",
            draw,
            "    return rng.random()",
            "",
        ]
        if i % 6 == 0:
            lines += [
                "",
                f"def shared_{i}(streams):",
                "    return streams.stream(\"collide\")",
                "",
            ]
        sources[f"src/repro/sim/mod_{i}.py"] = "\n".join(lines)
    sources["src/repro/analysis/cyc_a.py"] = (
        "from repro.analysis import cyc_b\n\n\n"
        "def spin_a():\n    return cyc_b.spin_b()\n"
    )
    sources["src/repro/analysis/cyc_b.py"] = (
        "import repro.analysis.cyc_a\n\n\n"
        "def spin_b():\n    return 1\n"
    )
    return sources


@register_benchmark(
    "micro.lint.index", "micro",
    "whole-program lint: fragments, call graph, and project rules over"
    " a synthetic 98-module tree",
)
def bench_lint_index(metrics: Metrics) -> None:
    import ast

    from repro.lint.engine import ProjectRule, all_rules
    from repro.lint.index import ProjectIndex, build_fragment

    sources = _synthetic_lint_tree()
    fragments = [
        build_fragment(path, source, ast.parse(source))
        for path, source in sorted(sources.items())
    ]
    index = ProjectIndex(fragments)
    edge_total = sum(
        len(index.call_edges(qname)) for qname in sorted(index.functions)
    )
    finding_total = 0
    for rule in all_rules():
        if isinstance(rule, ProjectRule):
            finding_total += sum(1 for _ in rule.check_project(index))
    # All four counters are pure functions of the synthetic tree: any
    # drift in fragment extraction, call-graph resolution, or the rule
    # pack shows up as a work-counter regression in compare().
    metrics.inc("bench.lint_files", len(fragments))
    metrics.inc("bench.lint_functions", len(index.functions))
    metrics.inc("bench.lint_call_edges", edge_total)
    metrics.inc("bench.lint_findings", finding_total)
