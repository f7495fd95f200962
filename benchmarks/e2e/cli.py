"""Command line of the end-to-end benchmark.

    python3 -m benchmarks.e2e run     [--seed 7] [--out R.json]
    python3 -m benchmarks.e2e trace   [--seed 7] [--out R.json]
    python3 -m benchmarks.e2e check
    python3 -m benchmarks.e2e pin
    python3 -m benchmarks.e2e compare A.json B.json
    python3 -m benchmarks.e2e measure --workload W --seed N --seconds S --trace 0|1

``run`` goes round-robin over the four workloads, ``REPS`` fresh child
processes each, and writes a report; ``trace`` adds one profiled rep
per workload and its layer breakdown.  ``measure`` runs one workload
for a time budget and prints, as its last line, one JSON object with
the metrics ``BENCHMARK.json`` names (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from benchmarks.e2e import harness
from benchmarks.e2e.compare import compare
from benchmarks.e2e.harness import Rep, run_rep
from benchmarks.e2e.layers import LAYERS, unit_of
from benchmarks.e2e.workloads import PINNED_SEEDS, WORKLOADS

#: Timed reps per workload in ``run`` and ``trace``.
REPS = 7
#: Fewest timed reps in one ``measure`` run, whatever the budget.
MIN_REPS = 3


def _print_e2e(name: str, entry: Dict[str, Any]) -> None:
    for metric, m in entry["metrics"].items():
        print(f"  {name:18} {metric:12} {m['median']:10.4f} {m['unit']:5}"
              f" (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n={m['n']})")
    for problem in entry["problems"]:
        print(f"  {name}: FAILED {problem}", file=sys.stderr)


def _print_trace(name: str, trace: Dict[str, Any]) -> None:
    metrics = trace["metrics"]
    print(f"  {name}: profiled {metrics['trace.profiled_s']:.3f} s,"
          f" layer self time covers {metrics['trace.self_coverage']:.1%},"
          f" repro.other {metrics['repro.other.share']:.2%}")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.share"]):
        if metrics[f"{layer}.calls"] or metrics[f"{layer}.self_s"]:
            print(f"    {layer:14} {metrics[f'{layer}.self_s']:8.3f} s"
                  f" {metrics[f'{layer}.share']:7.1%}"
                  f" {metrics[f'{layer}.calls']:10d} calls")
    for metric, value in metrics.items():
        if metric.split(".")[-1] not in ("self_s", "share", "calls"):
            print(f"    {metric:36} {value:.6g} {unit_of(metric)}")


def _repeat(make_rep: Callable[[], Rep], started: float, seconds: float,
            min_reps: int) -> List[Rep]:
    """Reps until the next one would overrun the budget (at least
    ``min_reps``), predicting its length by the longest so far."""
    reps: List[Rep] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        reps.append(make_rep())
        longest = max(longest, time.monotonic() - began)
        if (len(reps) >= min_reps
                and time.monotonic() - started + longest > seconds):
            return reps


def cmd_measure(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    if not args.trace:
        reps = _repeat(lambda: run_rep(workload, args.seed), started,
                       args.seconds, MIN_REPS)
    else:
        numbers = itertools.count()

        def profiled() -> Rep:
            return run_rep(workload, args.seed, harness.WORK_DIR / (
                f"{workload.name}.seed{args.seed}.{next(numbers)}.pstats"))

        # One untraced rep is the base of trace.overhead_ratio.
        reps = [run_rep(workload, args.seed)] + _repeat(
            profiled, started, args.seconds, 1)
    traces = harness.judge_reps(workload, reps)
    entry = harness.summarise(reps, bench["end_to_end"])
    if not args.trace:
        _print_e2e(workload.name, entry)
        listed = bench["end_to_end"]
        values = {m["name"]: entry["metrics"][m["name"]]["median"]
                  for m in listed if m["name"] in entry["metrics"]}
    else:
        for trace in traces[:1]:
            _print_trace(workload.name, trace)
        listed = bench["per_layer"]
        values = ({m["name"]: statistics.median(t["metrics"][m["name"]]
                                                for t in traces)
                   for m in listed} if traces else {})
    correct = entry["failed"] == 0 and len(values) == len(listed)
    print(json.dumps({
        "correct": correct,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in values},
    }))
    return 0 if correct else 1


def _run_all(seed: int, out: Path, traced: bool,
             bench: Dict[str, Any]) -> Dict[str, Any]:
    """Round-robin reps over every workload, then (``traced``) one
    profiled rep each; writes and returns the report."""
    by_workload: Dict[str, List[Rep]] = {name: [] for name in WORKLOADS}
    for index in range(REPS):
        for workload in WORKLOADS.values():
            rep = run_rep(workload, seed)
            by_workload[workload.name].append(rep)
            print(f"rep {index + 1}/{REPS} {workload.name:18}"
                  f" {'ok' if rep.ok else 'FAILED'}"
                  + (f" wall {rep.wall_s:.3f} s" if rep.ok else ""),
                  flush=True)
    report: Dict[str, Any] = {"provenance": harness.provenance(seed, REPS),
                              "workloads": {}}
    traces: Dict[str, Dict[str, Any]] = {}
    for workload in WORKLOADS.values():
        reps = by_workload[workload.name]
        if traced:
            reps.append(run_rep(workload, seed, out.with_name(
                f"{out.stem}.{workload.name}.pstats")))
        found = harness.judge_reps(workload, reps)
        entry = harness.summarise(reps, bench["end_to_end"])
        if found:
            entry["trace"] = traces[workload.name] = found[0]
        report["workloads"][workload.name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nseed {seed}, {REPS} reps per workload -> {out}")
    for name, entry in report["workloads"].items():
        _print_e2e(name, entry)
    for name, trace in traces.items():
        _print_trace(name, trace)
    return report


def cmd_check(_args: argparse.Namespace) -> int:
    failures = 0
    for seed in PINNED_SEEDS:
        for workload in WORKLOADS.values():
            rep = run_rep(workload, seed)
            if not workload.expected_path(seed).is_file():
                rep.problems.append(f"no pinned output"
                                    f" {workload.expected_path(seed).name}")
            print(f"{workload.name:18} seed {seed:3}"
                  f" {'PASS' if rep.ok else 'FAIL'}", flush=True)
            for problem in rep.problems:
                print(f"  {problem}")
            failures += not rep.ok
    return 1 if failures else 0


def cmd_pin(_args: argparse.Namespace) -> int:
    failures = 0
    for seed in PINNED_SEEDS:
        for workload in WORKLOADS.values():
            rep = run_rep(workload, seed, expected_dir=None)
            if not rep.ok:
                print(f"{workload.name} seed {seed}: not pinned:"
                      f" {'; '.join(rep.problems)}")
                failures += 1
                continue
            path = workload.expected_path(seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(rep.output, indent=1) + "\n",
                            encoding="utf-8")
            print(f"{workload.name} seed {seed}: pinned {path.name}")
    return 1 if failures else 0


def cmd_compare(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (args.a, args.b))
    lines, passed = compare(a, b, bench)
    print("\n".join(lines))
    return 0 if passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = harness.WORK_DIR / "report.json"
    for name, text in (("run", "time every workload"),
                       ("trace", "time every workload, then profile each")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", type=Path, default=default_out)
    sub.add_parser("check", help="run each workload at the pinned seeds")
    sub.add_parser("pin", help="rewrite the pinned outputs")
    p = sub.add_parser("compare", help="verdict per (workload, metric)")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("measure", help="one workload for a time budget")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        bench = harness.prepare()
    except (harness.MissingProgram, OSError, ValueError) as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2
    if args.command == "measure":
        return cmd_measure(args, bench)
    if args.command in ("run", "trace"):
        report = _run_all(args.seed, args.out, args.command == "trace", bench)
        return 0 if all(entry["failed"] == 0
                        for entry in report["workloads"].values()) else 1
    if args.command == "check":
        return cmd_check(args)
    if args.command == "pin":
        return cmd_pin(args)
    return cmd_compare(args, bench)
