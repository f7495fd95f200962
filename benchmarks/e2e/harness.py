"""Closed-loop repetitions: launch one child at a time, time it from
outside, and judge its output.

Each rep is a fresh ``python`` process, as a researcher's CLI run is,
so import and first-call costs are paid every time and no rep is
discarded as warm-up.  The parent runs no threads and at most one child
at once.
"""

from __future__ import annotations

import compileall
import difflib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import layers
from benchmarks.e2e.workloads import EXPECTED_DIR, Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
REPRO_ROOT = SRC / "repro"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CHILD = Path(__file__).resolve().parent / "child.py"
#: Where profiles and default reports go (ignored by git).
WORK_DIR = ROOT / ".e2e_bench"

CHILD_TIMEOUT_S = 120.0
_DIFF_LINES = 40


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def prepare() -> Dict[str, Any]:
    """Check the checkout, byte-compile the program, load BENCHMARK.json.

    Compiling first keeps a cold ``__pycache__`` out of the first rep's
    start-up time, as an installed package would.
    """
    if not (REPRO_ROOT / "__init__.py").is_file():
        raise MissingProgram(f"no program at {REPRO_ROOT}")
    if not compileall.compile_dir(str(REPRO_ROOT), quiet=1):
        raise MissingProgram(f"{REPRO_ROOT} does not compile")
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


@dataclass
class Rep:
    """One repetition of one workload at one seed."""

    workload: str
    seed: int
    problems: List[str] = field(default_factory=list)
    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    digest: Optional[str] = None
    output: Any = None
    #: Set on a profiled rep: where its ``.pstats`` file goes, and the
    #: child's ``repro.obs`` snapshot.
    profile_path: Optional[Path] = None
    snapshot: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def profiled(self) -> bool:
        return self.profile_path is not None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Pinned so call counts in profiled reps repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def _diff(expected: Any, actual: Any) -> str:
    lines = list(difflib.unified_diff(
        json.dumps(expected, indent=1).splitlines(),
        json.dumps(actual, indent=1).splitlines(),
        "expected", "actual", lineterm="", n=2,
    ))
    more = len(lines) - _DIFF_LINES
    return "\n".join(lines[:_DIFF_LINES]
                     + ([f"... {more} more diff lines"] if more > 0 else []))


def judge(workload: Workload, seed: int, output: Any,
          expected_dir: Optional[Path] = EXPECTED_DIR) -> List[str]:
    """Semantic problems of an output, plus a diff against its pinned
    output when one exists for this seed."""
    try:
        problems = workload.check(output)
    except (KeyError, IndexError, TypeError) as exc:
        problems = [f"output has the wrong shape: {exc!r}"]
    if expected_dir is not None:
        path = workload.expected_path(seed, expected_dir)
        if path.is_file():
            pinned = json.loads(path.read_text(encoding="utf-8"))
            if pinned != output:
                problems.append(f"output differs from {path.name}:\n"
                                + _diff(pinned, output))
    return problems


def run_rep(
    workload: Workload,
    seed: int,
    profile_path: Optional[Path] = None,
    timeout: float = CHILD_TIMEOUT_S,
    expected_dir: Optional[Path] = EXPECTED_DIR,
) -> Rep:
    """Run one rep in a fresh child and judge it."""
    rep = Rep(workload.name, seed, profile_path=profile_path)
    cmd = [sys.executable, str(CHILD), json.dumps(workload.spec(seed))]
    if profile_path is not None:
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(str(profile_path))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_child_env())
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rep.problems.append(f"timed out after {timeout:g} s")
        return rep
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        rep.problems.append(f"exited {proc.returncode}: {tail[0]}")
        return rep
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        rep.problems.append("printed no result line")
        return rep
    rep.setup_s = result["imported_at"] - started
    rep.wall_s = result["wall_s"]
    rep.peak_rss_mb = result["peak_rss_kib"] / 1024.0
    rep.output = result["output"]
    rep.snapshot = result["metrics"]
    rep.digest = hashlib.sha256(
        json.dumps(rep.output, sort_keys=True).encode()).hexdigest()
    rep.problems.extend(judge(workload, seed, rep.output, expected_dir))
    return rep


def mark_inconsistent(reps: List[Rep]) -> None:
    """Fail every rep whose output differs from the first good rep with
    the same workload and seed."""
    reference: Dict[tuple, str] = {}
    for rep in reps:
        if not rep.ok:
            continue
        key = (rep.workload, rep.seed)
        first = reference.setdefault(key, rep.digest)  # type: ignore[arg-type]
        if rep.digest != first:
            rep.problems.append(
                f"output digest {rep.digest[:12]} differs from an earlier"
                f" rep's {first[:12]} at the same seed")


def summary(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summarise(reps: List[Rep],
              end_to_end: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one workload's reps: each metric
    ``end_to_end`` (``BENCHMARK.json``) names, plus ``failed_frac``.

    Every rep counts toward ``failed_frac``; only unprofiled good reps
    are timed.
    """
    good = [rep for rep in reps if rep.ok]
    failed = len(reps) - len(good)
    timed = [rep for rep in good if not rep.profiled]
    metrics: Dict[str, Any] = {}
    if timed:
        for metric in end_to_end:
            metrics[metric["name"]] = dict(
                summary([getattr(rep, metric["name"]) for rep in timed]),
                unit=metric["unit"])
    frac = failed / len(reps)
    metrics["failed_frac"] = {"median": frac, "q1": frac, "q3": frac,
                              "n": len(reps), "unit": "ratio"}
    return {
        "attempted": len(reps),
        "failed": failed,
        "digest": good[0].digest if good else None,
        "problems": [f"seed {rep.seed}: {problem}"
                     for rep in reps for problem in rep.problems],
        "metrics": metrics,
    }


def trace_rep(workload: Workload, rep: Rep,
              untraced_wall_s: float) -> Dict[str, Any]:
    """Per-layer metrics and the layer call graph of one profiled rep."""
    assert rep.profile_path is not None and rep.snapshot is not None
    folded = layers.fold(rep.profile_path, REPRO_ROOT)
    metrics = layers.layer_metrics(folded, rep.snapshot, rep.wall_s,
                                   untraced_wall_s, workload.device_ticks)
    return {"metrics": metrics, "graph": folded.graph(),
            "pstats": rep.profile_path.name}


def judge_reps(workload: Workload, reps: List[Rep]) -> List[Dict[str, Any]]:
    """Fail inconsistent reps of one workload, then trace each good
    profiled rep against the median untraced ``wall_s``.

    A profiled rep whose exact counts differ from the first profiled
    rep's fails too.  Returns the traces of the profiled reps that
    passed (none when no rep was profiled).
    """
    mark_inconsistent(reps)
    walls = [rep.wall_s for rep in reps if rep.ok and not rep.profiled]
    untraced_wall_s = statistics.median(walls) if walls else 0.0
    traces: List[Dict[str, Any]] = []
    for rep in reps:
        if not (rep.ok and rep.profiled):
            continue
        trace = trace_rep(workload, rep, untraced_wall_s)
        mismatched = [k for k, v in trace["metrics"].items() if traces
                      and layers.is_exact(k) and v != traces[0]["metrics"][k]]
        if mismatched:
            rep.problems.append("counts differ between profiled reps: "
                                + ", ".join(mismatched))
        else:
            traces.append(trace)
    return traces


def provenance(seed: int, reps: int) -> Dict[str, Any]:
    """What produced a report: code, interpreter, machine and settings."""

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "reps": reps,
        "benchmark_json_sha256":
            hashlib.sha256(BENCHMARK_JSON.read_bytes()).hexdigest(),
    }
