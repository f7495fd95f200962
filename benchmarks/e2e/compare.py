"""Compare two benchmark reports metric by metric.

The end-to-end metrics are those ``BENCHMARK.json`` names, plus
``failed_frac``.  For every (workload, metric) pair the verdict is:

* ``unresolved`` when either side's interquartile range, as a share of
  its median, is wider than the metric's bound, unless every rep of B
  reads better than every rep of A;
* ``worse`` when B's median exceeds A's by more than the bound
  (``failed_frac``: any increase);
* ``ok`` otherwise.

Exact per-layer counts of two traced reports at the same seed must
match exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from benchmarks.e2e.layers import is_exact


def _spread(entry: Dict[str, Any]) -> float:
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / median if median else 0.0


def verdict(metric: str, a: Dict[str, Any], b: Dict[str, Any],
            bound: float) -> str:
    """Verdict for B against A on one lower-is-better metric."""
    if metric == "failed_frac":
        return "worse" if b["median"] > a["median"] else "ok"
    if max(_spread(a), _spread(b)) > bound:
        if max(b["values"]) < min(a["values"]):
            return "ok"
        return "unresolved"
    return "worse" if b["median"] > a["median"] * (1 + bound) else "ok"


def _fmt(entry: Dict[str, Any]) -> str:
    return (f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"
            f" n={entry['n']}")


def compare(a: Dict[str, Any], b: Dict[str, Any],
            bench: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Lines to print and whether B passes against A."""
    metrics = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append(("failed_frac", "ratio", 0.0))
    lines: List[str] = []
    passed = True
    a_loads, b_loads = a["workloads"], b["workloads"]
    for name in sorted(set(a_loads) | set(b_loads)):
        if name not in a_loads or name not in b_loads:
            lines.append(f"{name}: missing from "
                         f"{'A' if name not in a_loads else 'B'}  worse")
            passed = False
            continue
        for metric, unit, bound in metrics:
            ea = a_loads[name]["metrics"].get(metric)
            eb = b_loads[name]["metrics"].get(metric)
            if ea is None or eb is None:
                lines.append(f"{name:18} {metric:12} no successful reps  worse")
                passed = False
                continue
            result = verdict(metric, ea, eb, bound)
            passed = passed and result != "worse"
            lines.append(f"{name:18} {metric:12} A {_fmt(ea)}  B {_fmt(eb)}"
                         f" {unit}  {result}")

    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        lines.append("exact counts not compared: the reports use different"
                     " seeds")
        return lines, passed
    for name in sorted(set(a_loads) & set(b_loads)):
        ta = a_loads[name].get("trace", {}).get("metrics")
        tb = b_loads[name].get("trace", {}).get("metrics")
        if ta is None or tb is None:
            continue
        mismatched = [k for k in sorted(set(ta) | set(tb))
                      if is_exact(k) and ta.get(k) != tb.get(k)]
        for key in mismatched:
            lines.append(f"{name:18} count {key}: A {ta.get(key)}"
                         f" B {tb.get(key)}  mismatch")
        if not mismatched:
            lines.append(f"{name:18} exact counts identical")
        passed = passed and not mismatched
    return lines, passed
