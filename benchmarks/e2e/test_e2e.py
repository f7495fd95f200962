"""Self-tests of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

They run small real child processes (a 3-server, 12-user E4), so they
finish in seconds; the full-size workloads run only from the CLI.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from benchmarks.e2e import harness, layers
from benchmarks.e2e.compare import compare
from benchmarks.e2e.harness import Rep, run_rep, summarise
from benchmarks.e2e.workloads import Workload

BENCH = json.loads(harness.BENCHMARK_JSON.read_text(encoding="utf-8"))

TINY = Workload(
    name="tiny",
    module="repro.analysis.experiments",
    function="run_federation_availability",
    calls=lambda seed: [{"seed": seed, "n_servers": 3, "n_users": 12}],
    check=lambda output: [],
)


def _repro_modules():
    root = harness.REPRO_ROOT
    return [".".join(("repro",) + p.relative_to(root).with_suffix("").parts)
            for p in sorted(root.rglob("*.py"))]


def test_every_repro_module_maps_to_one_named_layer():
    owners = {module: layers.layer_of_module(module)
              for module in _repro_modules()}
    assert owners and set(owners.values()) <= set(layers.LAYERS)
    # Every named repro layer owns code, so none of them reads 0 by typo.
    assert set(layers.REPRO_LAYERS) <= set(owners.values())


def test_benchmark_json_names_every_layer():
    named = {m["name"] for m in BENCH["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.share", f"{layer}.calls"} <= named


@pytest.fixture(scope="module")
def tiny_reps(tmp_path_factory):
    """Two timed reps and two profiled reps of the tiny workload."""
    work = tmp_path_factory.mktemp("tiny")
    timed = [run_rep(TINY, 7, expected_dir=None) for _ in range(2)]
    profiled = [run_rep(TINY, 7, work / f"tiny.{i}.pstats", expected_dir=None)
                for i in range(2)]
    return timed, profiled


def test_report_contains_every_named_metric(tiny_reps):
    timed, profiled = tiny_reps
    traces = harness.judge_reps(TINY, timed + profiled)
    assert all(rep.ok for rep in timed + profiled) and len(traces) == 2
    entry = summarise(timed + profiled, BENCH["end_to_end"])
    assert entry["failed"] == 0 and entry["metrics"]["wall_s"]["n"] == 2
    for metric in BENCH["end_to_end"]:
        assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in BENCH["per_layer"]:
        assert metric["name"] in traces[0]["metrics"]
        assert layers.unit_of(metric["name"]) == metric["unit"]
    coverage = traces[0]["metrics"]["trace.self_coverage"]
    assert coverage == pytest.approx(1, abs=0.05)


def test_exact_counts_repeat_across_fresh_processes(tiny_reps):
    _timed, profiled = tiny_reps
    first, second = (harness.trace_rep(TINY, rep, 1.0)["metrics"]
                     for rep in profiled)
    exact = [k for k in first if layers.is_exact(k)]
    assert first["sim.engine.events_fired"] > 0
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_profiled_rep_with_different_counts_fails(tiny_reps):
    _timed, profiled = tiny_reps
    snapshot = copy.deepcopy(profiled[1].snapshot)
    snapshot["counters"]["sim.events_fired"] += 1
    doctored = dataclasses.replace(profiled[1], problems=[], snapshot=snapshot)
    traces = harness.judge_reps(TINY, [profiled[0], doctored])
    assert len(traces) == 1 and not doctored.ok
    assert "sim.engine.events_fired" in doctored.problems[0]


def _report(wall_values, seed=7):
    wall = harness.summary(list(wall_values))
    wall["unit"] = "s"
    steady = {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 7, "values": [1.0]}
    return {
        "provenance": {"seed": seed},
        "workloads": {"federation_gossip": {"metrics": {
            "wall_s": wall, "setup_s": steady, "peak_rss_mb": steady,
            "failed_frac": {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 7},
        }}},
    }


def test_compare_flags_a_slowdown_beyond_the_bound_only():
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}["wall_s"]
    base = [4.00, 4.01, 4.02, 4.03, 4.04, 4.05, 4.06]
    slower = _report(v * (1 + bound + 0.01) for v in base)
    slightly = _report(v * (1 + bound / 2) for v in base)
    lines, passed = compare(_report(base), slower, BENCH)
    assert not passed and any("wall_s" in l and "worse" in l for l in lines)
    _lines, passed = compare(_report(base), slightly, BENCH)
    assert passed


def test_compare_fails_on_a_count_mismatch():
    a, b = _report([4.0, 4.0, 4.0]), _report([4.0, 4.0, 4.0])
    a["workloads"]["federation_gossip"]["trace"] = {
        "metrics": {"sim.engine.events_fired": 10}}
    b["workloads"]["federation_gossip"]["trace"] = {
        "metrics": {"sim.engine.events_fired": 11}}
    lines, passed = compare(a, b, BENCH)
    assert not passed and any("mismatch" in l for l in lines)


def _doctored_expected(tmp_path: Path) -> Rep:
    TINY.expected_path(7, tmp_path).write_text('[["not the output"]]\n')
    return run_rep(TINY, 7, expected_dir=tmp_path)


def _inconsistent(_tmp_path: Path) -> Rep:
    reps = [Rep("tiny", 7, digest="a"), Rep("tiny", 7, digest="b")]
    harness.mark_inconsistent(reps)
    return reps[1]


@pytest.mark.parametrize("make_failure", [
    lambda _tmp: run_rep(Workload("raises", TINY.module, TINY.function,
                                  lambda seed: [{"no_such_kwarg": 1}],
                                  TINY.check), 7),
    _doctored_expected,
    lambda _tmp: run_rep(TINY, 7, timeout=0.01, expected_dir=None),
    _inconsistent,
], ids=["exception", "doctored-expected", "timeout", "inconsistent"])
def test_each_failure_raises_failed_frac(tmp_path, tiny_reps, make_failure):
    good = tiny_reps[0][0]
    e2e = BENCH["end_to_end"]
    assert summarise([good], e2e)["metrics"]["failed_frac"]["median"] == 0.0
    failure = make_failure(tmp_path)
    assert not failure.ok
    assert summarise([good, failure], e2e)["metrics"]["failed_frac"][
        "median"] == 0.5
