"""``python -m repro bench``: run, record, and compare benchmarks.

Usage::

    python -m repro bench                          # both suites, human
    python -m repro bench --suite micro --format json
    python -m repro bench --suite micro --out BENCH_6.json
    python -m repro bench --suite micro --compare BENCH_4.json
    python -m repro bench --compare OLD.json NEW.json   # no run, just diff
    python -m repro bench --list                   # benchmark catalog

Exit codes mirror ``repro lint`` / ``repro chaos``: 0 success, 1 a
regression was detected (work-counter drift, wall-clock past tolerance,
missing benchmark, or non-deterministic work counters), 2 usage error.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from repro.bench.compare import (
    DEFAULT_ABSOLUTE_FLOOR_S,
    DEFAULT_TOLERANCE,
    compare_reports,
    render_compare_human,
    restrict_baseline,
)
from repro.bench.harness import DEFAULT_REPETITIONS, run_suite
from repro.bench.registry import select_benchmarks
from repro.bench.report import (
    build_report,
    render_bench_human,
    render_bench_json,
    validate_bench_report,
)
from repro.errors import BenchError

__all__ = ["add_bench_arguments", "run_bench_command"]


def add_bench_arguments(parser: Any) -> None:
    """Attach the bench options to an ``argparse`` (sub)parser."""
    parser.add_argument(
        "--suite", choices=("micro", "macro", "all"), default="all",
        help="which benchmark suite to run (default: all)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=DEFAULT_REPETITIONS,
        metavar="N",
        help=f"repetitions per benchmark; wall clock reports best-of-N"
             f" (default: {DEFAULT_REPETITIONS})",
    )
    parser.add_argument(
        "--filter", default=None, metavar="SUBSTR", dest="name_filter",
        help="only run benchmarks whose name contains SUBSTR",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (e.g. BENCH_6.json)",
    )
    parser.add_argument(
        "--compare", nargs="+", default=None, metavar="REPORT",
        help="one path: run, then compare against that baseline;"
             " two paths: compare NEW against OLD without running",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="F",
        help="allowed relative wall-clock growth before a regression"
             f" (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--absolute-floor", type=float, default=DEFAULT_ABSOLUTE_FLOOR_S,
        metavar="S", dest="absolute_floor_s",
        help="absolute wall-clock slack in seconds added to the band"
             f" (default: {DEFAULT_ABSOLUTE_FLOOR_S})",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="print the benchmark catalog, then exit",
    )


def _listing() -> str:
    lines = ["benchmarks:"]
    for bench in select_benchmarks():
        lines.append(f"  {bench.name:<40} [{bench.suite}]"
                     f" {bench.description}")
    return "\n".join(lines)


def _load_report(path: str) -> Dict[str, Any]:
    """Read and schema-check one report file (usage errors raise)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise BenchError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:
        raise BenchError(f"report {path} is not valid JSON: {exc}") from exc
    errors = validate_bench_report(doc)
    if errors:
        raise BenchError(
            f"report {path} failed schema validation: " + "; ".join(errors)
        )
    return doc


def run_bench_command(args: Any) -> int:
    """Execute the bench command from parsed arguments."""
    if args.list_benchmarks:
        print(_listing())
        return 0
    if args.repetitions < 1:
        print(f"bench: --repetitions must be >= 1, got {args.repetitions}",
              file=sys.stderr)
        return 2
    if args.tolerance < 0 or args.absolute_floor_s < 0:
        print("bench: --tolerance and --absolute-floor must be >= 0",
              file=sys.stderr)
        return 2
    if args.compare is not None and len(args.compare) > 2:
        print("bench: --compare takes one baseline or OLD NEW, not"
              f" {len(args.compare)} paths", file=sys.stderr)
        return 2

    try:
        if args.compare is not None and len(args.compare) == 2:
            old = _load_report(args.compare[0])
            new = _load_report(args.compare[1])
            report: Optional[Dict[str, Any]] = None
        else:
            suite = None if args.suite == "all" else args.suite
            # Load the baseline before running, so an unreadable one
            # fails in milliseconds instead of after the whole suite.
            old = _load_report(args.compare[0]) if args.compare else None
            results = run_suite(
                suite=suite,
                repetitions=args.repetitions,
                name_filter=args.name_filter,
                progress=lambda name: print(f"bench: running {name}",
                                            file=sys.stderr),
            )
            if not results:
                print("bench: no benchmarks matched the selection",
                      file=sys.stderr)
                return 2
            report = build_report(results, args.suite, args.repetitions)
            if args.out is not None:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(render_bench_json(report) + "\n")
            if old is not None and (suite is not None
                                    or args.name_filter is not None):
                total = len(old.get("benchmarks", []))
                old = restrict_baseline(old, suite=suite,
                                        name_filter=args.name_filter)
                kept = len(old.get("benchmarks", []))
                if kept != total:
                    print(
                        f"bench: baseline restricted to the run selection"
                        f" ({kept} of {total} benchmark(s) compared)",
                        file=sys.stderr,
                    )
            new = report
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    findings = (
        compare_reports(
            old, new,
            tolerance=args.tolerance,
            absolute_floor_s=args.absolute_floor_s,
        )
        if old is not None
        else []
    )
    nondeterministic: List[str] = [
        bench["name"]
        for bench in new.get("benchmarks", [])
        if not bench.get("deterministic", True)
    ]

    if args.format == "json":
        payload: Dict[str, Any] = {}
        if report is not None:
            payload = dict(report)
        payload["compare"] = [
            {
                "benchmark": f.benchmark,
                "kind": f.kind,
                "message": f.message,
                "regression": f.regression,
            }
            for f in findings
        ]
        payload["nondeterministic"] = nondeterministic
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        if report is not None:
            print(render_bench_human(report))
            if args.out is not None:
                print(f"report written: {args.out}")
        if old is not None:
            print(render_compare_human(findings))
        for name in nondeterministic:
            print(f"  NONDETERMINISTIC {name}: work counters differed"
                  " between repetitions")

    regressed = any(f.regression for f in findings) or bool(nondeterministic)
    return 1 if regressed else 0
