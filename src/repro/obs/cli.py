"""``python -m repro trace``: run an experiment under full observation.

Usage::

    python -m repro trace E4                       # summary to stdout
    python -m repro trace E4 --out trace.jsonl     # plus JSONL trace file
    python -m repro trace E4 --format json         # machine-readable report
    python -m repro trace --validate trace.jsonl   # schema, event + leg checks

Exit codes: 0 ok, 1 validation failed, 2 usage error — mirroring the
lint CLI.
"""

from __future__ import annotations

import errno
import os
import sys
from typing import Callable, Dict, Optional

from repro.obs.metrics import Metrics
from repro.obs.reporters import (
    render_report_human,
    render_report_json,
    validate_trace_file,
)
from repro.obs.runtime import observe
from repro.obs.tracer import Tracer

__all__ = ["add_trace_arguments", "out_path_unusable", "run_trace"]


def add_trace_arguments(parser) -> None:
    """Attach the trace options to an ``argparse`` (sub)parser."""
    parser.add_argument(
        "name", nargs="?", default=None,
        help="experiment id to run under tracing, e.g. E4",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL trace here (default: no trace file)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="retain at most N trace records (default: unlimited)",
    )
    parser.add_argument(
        "--validate", default=None, metavar="TRACE",
        help="validate an existing JSONL trace file and exit",
    )


def out_path_unusable(command: str, path: str) -> bool:
    """True, after saying why on stderr, when ``--out path`` is a
    directory or its parent directory does not exist."""
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or os.curdir):
        reason = errno.ENOENT
    else:
        return False
    print(f"{command}: cannot write --out {path}: {os.strerror(reason)}",
          file=sys.stderr)
    return True


def run_trace(
    args, experiments: Dict[str, Callable[[], object]]
) -> int:
    """Execute the trace command from parsed arguments.

    ``experiments`` maps experiment ids to zero-argument drivers (the
    registry ``python -m repro experiment`` uses).
    """
    if args.validate is not None:
        return _validate(args.validate)
    if args.name is None:
        print("trace: an experiment id (or --validate) is required",
              file=sys.stderr)
        return 2
    driver = experiments.get(args.name.upper())
    if driver is None:
        print(f"unknown experiment {args.name!r}; known:"
              f" {', '.join(sorted(experiments))}", file=sys.stderr)
        return 2
    if args.capacity is not None and args.capacity < 0:
        print(f"--capacity must be >= 0, got {args.capacity}",
              file=sys.stderr)
        return 2
    if args.out is not None and out_path_unusable("trace", args.out):
        return 2

    tracer = Tracer(capacity=args.capacity)
    metrics = Metrics()
    with observe(tracer=tracer, metrics=metrics):
        driver()

    written: Optional[int] = None
    if args.out is not None:
        try:
            written = tracer.write_jsonl(args.out)
        except OSError as exc:
            print(f"trace: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2

    name = args.name.upper()
    if args.format == "json":
        print(render_report_json(metrics, tracer, experiment=name))
    else:
        print(render_report_human(metrics, tracer, experiment=name))
        if written is not None:
            print(f"\ntrace written: {args.out} ({written} record(s))")
    return 0


def _validate(path: str) -> int:
    try:
        errors = validate_trace_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"trace: cannot read {path!r}: {exc}", file=sys.stderr)
        return 2
    if errors:
        for error in errors:
            print(error)
        print(f"{len(errors)} schema error(s) in {path}")
        return 1
    print(f"trace: {path} valid")
    return 0
