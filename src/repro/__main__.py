"""Command-line entry point: regenerate any paper artifact from a shell.

Usage::

    python -m repro table1            # Table 1 (project taxonomy)
    python -m repro table2            # Table 2 (storage systems)
    python -m repro table3            # Table 3 (capacity estimates)
    python -m repro zooko             # the Zooko's-triangle assessment
    python -m repro agenda            # the §5 research agenda
    python -m repro experiment E4     # any DESIGN.md experiment driver
    python -m repro verify            # check every paper claim
    python -m repro sweep E8 --workers 4   # grid drivers, parallel + cached
    python -m repro sweep E8 --metrics     # plus an obs metrics summary
    python -m repro trace E4 --out trace.jsonl  # run under full tracing
    python -m repro lint              # determinism/invariant linter
    python -m repro chaos E4 --plan server-kill --seed 7  # fault injection
    python -m repro list              # what can be run

Every experiment id is an entry of ``repro.analysis.claims.CLAIMS``:
the driver call ``experiment`` prints (seconds of wall clock) and the
paper claim ``verify`` checks on its rows.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from repro.analysis import SweepCache, SweepRunner, render_kv, render_table
from repro.analysis.claims import CLAIMS, accepts, verify_reproduction


def _table1() -> None:
    from repro.core import table1_rows

    print(render_table(table1_rows()))


def _table2() -> None:
    from repro.storage import table2_rows

    print(render_table(table2_rows()))


def _table3() -> None:
    from repro.analysis.experiments import run_feasibility

    result = run_feasibility()
    print(render_table(result["table3"]))
    print()
    print(render_kv({k: str(v) for k, v in result["sufficient"].items()},
                    title="Sufficient capacity among devices?"))


def _zooko() -> None:
    from repro.naming import triangle_table

    print(render_table(triangle_table()))


def _agenda() -> None:
    from repro.core import AGENDA

    rows = [
        {"difficulty": item.difficulty, "problem": item.title,
         "experiments": ", ".join(item.informed_by_experiments) or "-"}
        for item in AGENDA
    ]
    print(render_table(rows))


def _sweepable() -> List[str]:
    return sorted(name for name, claim in CLAIMS.items() if claim.sweepable)


def _cohort_sweepable() -> List[str]:
    return sorted(name for name, claim in CLAIMS.items() if claim.cohort)


def _sweep(args) -> int:
    from repro.errors import SimulationError

    claim = CLAIMS.get(args.name.upper())
    if args.engine == "cohort":
        if claim is None or claim.cohort is None:
            print(f"no cohort engine for {args.name!r}; cohort-sweepable:"
                  f" {', '.join(_cohort_sweepable())}", file=sys.stderr)
            return 2
        if args.devices is not None and args.devices < 1:
            print(f"--devices must be >= 1, got {args.devices}",
                  file=sys.stderr)
            return 2
        driver = claim.cohort
    else:
        if claim is None or not claim.sweepable:
            print(f"unknown sweep {args.name!r}; sweepable:"
                  f" {', '.join(_sweepable())}", file=sys.stderr)
            return 2
        if args.devices is not None:
            print("--devices requires --engine cohort", file=sys.stderr)
            return 2
        driver = claim.driver
    for flag, value in (("--chunksize", args.chunksize),
                        ("--workers", args.workers)):
        if value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    metrics = None
    if args.metrics:
        from repro.obs import Metrics

        metrics = Metrics()
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    if cache is not None:
        # Probe before the work: an unusable directory (a regular file,
        # or a path under one) would otherwise fail at the first store.
        try:
            cache.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"sweep: cannot use cache directory {cache.cache_dir}:"
                  f" {exc.strerror}", file=sys.stderr)
            return 2
    runner = SweepRunner(workers=args.workers, cache=cache,
                         chunksize=args.chunksize, metrics=metrics)
    kwargs = {"runner": runner}
    if accepts(driver, "seed"):
        kwargs["seed"] = args.seed
    if args.devices is not None:
        kwargs["devices"] = args.devices
    try:
        rows = claim.rows(driver(**kwargs))
    except SimulationError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    print(render_table(rows))
    print()
    print(render_table(runner.stats.summary_rows()))
    if metrics is not None:
        from repro.obs import render_report_human

        print()
        print(render_report_human(metrics))
    if cache is not None:
        print(f"\ncache: {cache.cache_dir}"
              + (f" ({cache.corrupt_files} corrupt file(s) ignored)"
                 if cache.corrupt_files else ""))
    return 0


def _trace(args) -> int:
    from repro.obs.cli import run_trace

    return run_trace(args, {name: claim.run for name, claim in CLAIMS.items()})


def _experiment(name: str) -> int:
    claim = CLAIMS.get(name.upper())
    if claim is None:
        print(f"unknown experiment {name!r}; known:"
              f" {', '.join(sorted(CLAIMS))}", file=sys.stderr)
        return 2
    print(render_table(claim.run()))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts from 'The Barriers to Overthrowing"
                    " Internet Feudalism' (HotNets 2017).",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("table1", "table2", "table3", "zooko", "agenda", "verify", "list"):
        sub.add_parser(name)
    experiment = sub.add_parser("experiment")
    experiment.add_argument("name", help="experiment id, e.g. E4 or E6b")
    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a grid driver through the parallel, cached runner",
    )
    sweep_cmd.add_argument("name", help="sweepable experiment id, e.g. E8")
    sweep_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes (default: 1, serial)")
    sweep_cmd.add_argument("--no-cache", action="store_true",
                           help="always recompute; do not touch the cache")
    sweep_cmd.add_argument("--cache-dir", default=None,
                           help="cache directory (default: $REPRO_CACHE_DIR"
                                " or .repro_cache)")
    sweep_cmd.add_argument("--seed", type=int, default=1,
                           help="base seed passed to the driver")
    sweep_cmd.add_argument("--chunksize", type=int, default=1,
                           help="grid points per worker dispatch")
    sweep_cmd.add_argument("--metrics", action="store_true",
                           help="record and print an obs metrics summary")
    sweep_cmd.add_argument("--engine", choices=("process", "cohort"),
                           default="process",
                           help="per-process event engine (default) or the"
                                " vectorized cohort engine")
    sweep_cmd.add_argument("--devices", type=int, default=None,
                           help="cohort population size (cohort engine only;"
                                " default: driver-specific)")
    trace_cmd = sub.add_parser(
        "trace",
        help="run an experiment under tracing; write a JSONL trace",
    )
    from repro.obs.cli import add_trace_arguments

    add_trace_arguments(trace_cmd)
    lint_cmd = sub.add_parser(
        "lint",
        help="run the determinism & simulation-invariant linter",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_cmd)
    chaos_cmd = sub.add_parser(
        "chaos",
        help="run an experiment scenario under a fault plan with"
             " invariant checking",
    )
    from repro.faults.cli import add_chaos_arguments

    add_chaos_arguments(chaos_cmd)
    args = parser.parse_args(argv)
    try:
        status = _dispatch(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. ``| head -1``).  Point the fd at
        # devnull so the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


def _dispatch(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    if args.command == "table1":
        _table1()
    elif args.command == "table2":
        _table2()
    elif args.command == "table3":
        _table3()
    elif args.command == "zooko":
        _zooko()
    elif args.command == "agenda":
        _agenda()
    elif args.command == "experiment":
        return _experiment(args.name)
    elif args.command == "sweep":
        return _sweep(args)
    elif args.command == "trace":
        return _trace(args)
    elif args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    elif args.command == "chaos":
        from repro.faults.cli import run_chaos_command

        return run_chaos_command(args)
    elif args.command == "verify":
        rows = verify_reproduction()
        print(render_table(rows))
        if any(row["status"] != "PASS" for row in rows):
            return 3
        print("\nAll reproduction targets hold.")
    elif args.command == "list":
        print("tables: table1 table2 table3")
        print("other:  zooko agenda verify lint")
        print(f"experiments: {' '.join(sorted(CLAIMS))}")
        print("traceable (python -m repro trace <id> --out t.jsonl):"
              f" {' '.join(sorted(CLAIMS))}")
        print(f"sweepable (python -m repro sweep <id> --workers N):"
              f" {' '.join(_sweepable())}")
        print("cohort engine (python -m repro sweep <id> --engine cohort"
              f" --devices N): {' '.join(_cohort_sweepable())}")
        from repro.faults import PRESETS, SCENARIOS

        print("chaos (python -m repro chaos <id> --plan <preset>):"
              f" {' '.join(sorted(SCENARIOS))}")
        print(f"fault presets: {' '.join(sorted(PRESETS))}")
    else:
        parser.print_help()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
