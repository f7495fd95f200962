"""Human and JSON rendering of traces and metrics, plus trace validation.

The JSON form is a stable machine interface (CI consumes it), mirroring
:mod:`repro.lint.reporters`::

    {
      "schema": 1,
      "experiment": "E4",
      "trace": {"events": 120, "dropped": 0, "by_kind": {...}},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

Trace validation checks the JSONL schema that
:class:`~repro.obs.tracer.Tracer` writes: every line a JSON object with
``schema == 1``, an ``int`` ``seq`` strictly increasing from 0, a
non-empty ``str`` ``kind``, and — when present — a finite, non-negative
simulated timestamp ``t``.  Unknown kinds and extra fields are allowed
(the kind set is open), so validation survives new emitters.  Across
records it checks the engine's event accounting (an event is fired or
cancelled at most once, and only after it was scheduled) and the
transport's leg accounting (a message leg is delivered or dropped only
after it was sent).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Metrics
from repro.obs.tracer import TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "JSON_SCHEMA_VERSION",
    "render_report_human",
    "render_report_json",
    "validate_trace_file",
    "validate_trace_line",
]

JSON_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report_payload(
    metrics: Optional[Metrics],
    tracer: Optional[Tracer],
    experiment: Optional[str],
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"schema": JSON_SCHEMA_VERSION}
    if experiment is not None:
        payload["experiment"] = experiment
    if tracer is not None:
        payload["trace"] = {
            "events": len(tracer),
            "dropped": tracer.dropped,
            "by_kind": tracer.by_kind(),
        }
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    return payload


def render_report_json(
    metrics: Optional[Metrics] = None,
    tracer: Optional[Tracer] = None,
    experiment: Optional[str] = None,
) -> str:
    return json.dumps(
        _report_payload(metrics, tracer, experiment), indent=1
    )


def render_report_human(
    metrics: Optional[Metrics] = None,
    tracer: Optional[Tracer] = None,
    experiment: Optional[str] = None,
) -> str:
    """Aligned ``name  value`` lines grouped by section; '' when empty."""
    lines: List[str] = []
    if experiment is not None:
        lines.append(f"experiment: {experiment}")
    if tracer is not None:
        lines.append(f"trace: {len(tracer)} event(s)"
                     + (f", {tracer.dropped} dropped" if tracer.dropped else ""))
        for kind, count in tracer.by_kind().items():
            lines.append(f"  {kind:<24} {count}")
    if metrics is not None:
        snapshot = metrics.snapshot()
        if snapshot["counters"]:
            lines.append("counters:")
            for name, value in snapshot["counters"].items():
                lines.append(f"  {name:<32} {value}")
        if snapshot["gauges"]:
            lines.append("gauges:")
            for name, value in snapshot["gauges"].items():
                lines.append(f"  {name:<32} {value:g}")
        if snapshot["histograms"]:
            lines.append("histograms:")
            for name, summary in snapshot["histograms"].items():
                stats = "  ".join(
                    f"{key}={summary[key]:g}" if isinstance(summary[key], float)
                    else f"{key}={summary[key]}"
                    for key in ("count", "mean", "min", "max", "p50", "p99")
                    if key in summary
                )
                lines.append(f"  {name:<32} {stats}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------

#: Records that end a scheduled event, each naming its ``event_seq``
#: (a tuple, not a set: a malformed ``kind`` may be unhashable).
_EVENT_SETTLED = ("event_fired", "event_cancelled")

#: Records that end a message leg, and the fields that name its flow.
_LEG_SETTLED = ("msg_deliver", "msg_drop")
_LEG_FIELDS = ("src", "dst", "method", "leg")


def validate_trace_line(
    obj: Any, expected_seq: Optional[int] = None
) -> List[str]:
    """Schema errors for one decoded trace record ('' clean -> [])."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"record is {type(obj).__name__}, expected object"]
    if obj.get("schema") != TRACE_SCHEMA_VERSION:
        errors.append(
            f"schema is {obj.get('schema')!r},"
            f" expected {TRACE_SCHEMA_VERSION}"
        )
    seq = obj.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        errors.append(f"seq is {seq!r}, expected non-negative int")
    elif expected_seq is not None and seq < expected_seq:
        errors.append(f"seq {seq} not increasing (expected >= {expected_seq})")
    kind = obj.get("kind")
    if not isinstance(kind, str) or not kind:
        errors.append(f"kind is {kind!r}, expected non-empty string")
    if "t" in obj:
        t = obj["t"]
        if (
            not isinstance(t, (int, float))
            or isinstance(t, bool)
            or not math.isfinite(t)
            or t < 0
        ):
            errors.append(f"t is {t!r}, expected finite non-negative number")
    if kind == "event_scheduled" or kind in _EVENT_SETTLED:
        event_seq = obj.get("event_seq")
        if (not isinstance(event_seq, int) or isinstance(event_seq, bool)
                or event_seq < 0):
            errors.append(
                f"event_seq is {event_seq!r}, expected non-negative int")
    if kind == "msg_send" or kind in _LEG_SETTLED:
        for field in _LEG_FIELDS:
            value = obj.get(field)
            if not (isinstance(value, str)
                    or field == "leg" and value is None):
                errors.append(f"{field} is {value!r}, expected string")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """All schema and event-accounting errors in a JSONL trace file
    (empty list when valid).

    At every record, the ``event_fired`` and ``event_cancelled`` records
    naming an ``event_seq`` may not outnumber the ``event_scheduled``
    records naming it so far, and the ``msg_deliver`` and ``msg_drop``
    records of a ``(src, dst, method, leg)`` flow may not outnumber its
    ``msg_send`` records so far.  The counts are multisets because a
    sweep's trace holds several simulators whose seqs each start at 0;
    a trace cut short by ``--capacity`` is a prefix, so the checks hold
    on it too.  Each error is prefixed ``line N:`` for human
    consumption.
    """
    errors: List[str] = []
    next_seq = 0
    scheduled: Counter = Counter()
    settled: Counter = Counter()
    legs_sent: Counter = Counter()
    legs_settled: Counter = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                errors.append(f"line {lineno}: not JSON ({exc})")
                continue
            for error in validate_trace_line(obj, expected_seq=next_seq):
                errors.append(f"line {lineno}: {error}")
            if not isinstance(obj, dict):
                continue
            seq = obj.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                next_seq = max(next_seq, seq + 1)
            kind, event_seq = obj.get("kind"), obj.get("event_seq")
            if kind == "msg_send" or kind in _LEG_SETTLED:
                flow = tuple(obj.get(field) for field in _LEG_FIELDS)
                if not all(isinstance(value, (str, type(None)))
                           for value in flow):
                    continue  # reported above
                if kind == "msg_send":
                    legs_sent[flow] += 1
                    continue
                legs_settled[flow] += 1
                if legs_settled[flow] > legs_sent[flow]:
                    src, dst, method, leg = flow
                    label = f" {leg}" if leg is not None else ""
                    errors.append(
                        f"line {lineno}: {method!r}{label} legs from"
                        f" {src!r} to {dst!r} delivered or dropped"
                        f" {legs_settled[flow]} time(s) but sent"
                        f" {legs_sent[flow]} time(s)"
                    )
                continue
            if not isinstance(event_seq, int):
                continue  # not an event record, or reported above
            if kind == "event_scheduled":
                scheduled[event_seq] += 1
            elif kind in _EVENT_SETTLED:
                settled[event_seq] += 1
                if settled[event_seq] > scheduled[event_seq]:
                    errors.append(
                        f"line {lineno}: event_seq {event_seq} fired or"
                        f" cancelled {settled[event_seq]} time(s) but"
                        f" scheduled {scheduled[event_seq]} time(s)"
                    )
    return errors
