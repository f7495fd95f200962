"""Rule registry, per-file lint context, and the linting driver.

Rules come in two kinds.  A *per-file* rule subclasses :class:`Rule`
and checks one :class:`LintContext` at a time.  A *project* rule
subclasses :class:`ProjectRule` and checks the whole-program
:class:`~repro.lint.index.ProjectIndex` after every file has been
parsed — that is where cross-module properties (stream-name collisions,
transitive wall-clock reach, import cycles) live.  Both kinds share the
registry, ``--rules`` selection, ``# repro: noqa[...]`` suppression,
and the :class:`~repro.lint.findings.Finding` schema.

The driver (:func:`lint_paths`) parses files in parallel when asked and
keeps an on-disk incremental cache (:mod:`repro.lint.cache`) of per-file
findings and index fragments keyed by content hash and
:data:`RULE_PACK_VERSION`; project rules always recompute over the
(possibly cached) fragments, so warm and cold runs produce byte-identical
findings.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.lint.cache import LintCache
from repro.lint.findings import Finding
from repro.lint.index import (
    ModuleFragment,
    ProjectIndex,
    build_fragment,
    module_parts,
)

__all__ = [
    "RULE_PACK_VERSION",
    "LintContext",
    "LintError",
    "LintStats",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "resolve_rules",
]

#: Version of the rule pack and fragment layout.  Bump whenever a rule's
#: behaviour or the :class:`~repro.lint.index.ModuleFragment` schema
#: changes, so stale cache entries miss instead of replaying old results.
RULE_PACK_VERSION = 4


class LintError(ReproError):
    """The linter was invoked incorrectly (unknown rule, bad path)."""


#: ``# repro: noqa`` or ``# repro: noqa[DET001]`` or ``...[DET001, PAR001]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


def _parse_noqa(match: "re.Match[str]") -> Set[str]:
    """The rule ids named by one noqa comment (empty set = bare noqa)."""
    rules = match.group("rules")
    if rules is None:
        return set()
    return {r.strip().upper() for r in rules.split(",") if r.strip()}


def _noqa_map_from_source(source: str) -> Dict[int, Set[str]]:
    """Line -> suppressed rule ids, from *comment tokens only*.

    Tokenizing (rather than regexing raw lines) means a string literal
    that merely contains ``# repro: noqa`` does not suppress findings on
    its line.  Untokenizable source falls back to the line regex.
    """
    comments: Dict[int, Set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is not None:
                comments[tok.start[0]] = _parse_noqa(match)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match is not None:
                comments[lineno] = _parse_noqa(match)
    return comments


class LintContext:
    """Everything a per-file rule may inspect about one source file.

    ``module_parts`` places the file in the project (see
    :func:`repro.lint.index.module_parts`), so rules can reason about
    *package* location (``("repro", "sim", "rng.py")``) regardless of
    where the checkout lives.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.module_parts = module_parts(path)
        self._noqa: Optional[Dict[int, Set[str]]] = None

    def in_package(self, *names: str) -> bool:
        """Whether any directory component of the module path is in ``names``."""
        return any(part in names for part in self.module_parts[:-1])

    def is_module(self, *tail: str) -> bool:
        """Whether the module path ends with the given components."""
        n = len(tail)
        return n > 0 and self.module_parts[-n:] == tuple(tail)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def noqa_map(self) -> Dict[int, Set[str]]:
        """Line -> suppressed rule ids for every noqa *comment* in the
        file (empty set = bare noqa, suppress everything)."""
        if self._noqa is None:
            self._noqa = _noqa_map_from_source(self.source)
        return self._noqa

    def suppressed_rules(self, line: int) -> Optional[Set[str]]:
        """Rules suppressed on ``line`` (1-based).

        Returns ``None`` when the line carries no noqa comment, the
        empty set for a bare ``# repro: noqa`` (suppress everything),
        and the named rule ids otherwise.  Only genuine comments count:
        a noqa marker inside a string literal suppresses nothing.
        """
        return self.noqa_map().get(line)


class Rule:
    """Base class for per-file lint rules.

    Subclasses set ``rule_id``/``title``/``rationale`` and implement
    :meth:`check`, yielding :class:`Finding` objects.  ``title`` and
    ``rationale`` feed ``--list-rules`` and the docs.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program lint rules.

    Subclasses implement :meth:`check_project` over the
    :class:`~repro.lint.index.ProjectIndex` built from every linted
    file.  Findings still anchor to a (path, line) and are filtered
    through that file's noqa comments like any per-file finding.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError


#: Either rule kind, as stored in the registry.
LintRule = Union[Rule, ProjectRule]

_REGISTRY: Dict[str, LintRule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not isinstance(rule, (Rule, ProjectRule)):
        raise LintError(f"{rule_cls.__name__} is not a Rule or ProjectRule")
    if not rule.rule_id:
        raise LintError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> List[LintRule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def resolve_rules(selection: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Map a ``--rules`` selection to rule objects (all rules if None)."""
    if selection is None:
        return all_rules()
    rules: List[LintRule] = []
    for raw in selection:
        rule_id = raw.strip().upper()
        rule = _REGISTRY.get(rule_id)
        if rule is None:
            known = ", ".join(sorted(_REGISTRY))
            raise LintError(f"unknown rule {raw!r}; known rules: {known}")
        rules.append(rule)
    return rules


def _split_rules(
    rules: Optional[Sequence[LintRule]],
) -> Tuple[List[Rule], List[ProjectRule]]:
    chosen = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in chosen if isinstance(r, Rule)]
    project_rules = [r for r in chosen if isinstance(r, ProjectRule)]
    return file_rules, project_rules


@dataclass
class LintStats:
    """Counters describing what one :func:`lint_paths` run actually did.

    ``parsed`` counts the files read *and parsed* this run; on a warm
    cache the entire tree replays from disk and ``parsed`` is zero —
    that counter (not wall clock) is what pins "incremental lint is
    measurably cheaper" in the tests.
    """

    files: int = 0
    parsed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1


def _suppressed_by(
    suppressed: Optional[Set[str]], rule_id: str
) -> bool:
    return suppressed is not None and (
        not suppressed or rule_id in suppressed
    )


def _finding_from_dict(doc: Dict[str, Any]) -> Finding:
    return Finding(
        rule_id=doc["rule"], path=doc["path"], line=doc["line"],
        col=doc["col"], message=doc["message"],
    )


def _undecodable(path: str, exc: UnicodeDecodeError) -> Finding:
    """The ``SYNTAX`` finding for a file that is not UTF-8 (CPython
    rejects it with a ``SyntaxError`` too), at its first bad byte."""
    line_start = exc.object.rfind(b"\n", 0, exc.start) + 1
    return Finding("SYNTAX", path, exc.object.count(b"\n", 0, line_start) + 1,
                   exc.start - line_start,
                   f"cannot decode as UTF-8: {exc.reason}")


def _lint_file_result(
    path: str, source: str, file_rules: Sequence[Rule]
) -> Dict[str, Any]:
    """Parse one file and run the per-file rules; returns the plain-data
    result the cache stores: post-suppression findings, the serialized
    index fragment, and the noqa map (for project-finding suppression)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding("SYNTAX", path, exc.lineno or 1, exc.offset or 0,
                          f"cannot parse: {exc.msg}")
        return {"path": path, "findings": [finding.to_dict()],
                "fragment": None, "noqa": {}}
    ctx = LintContext(path, source, tree)
    findings: List[Dict[str, Any]] = []
    for rule in file_rules:
        for finding in rule.check(ctx):
            if _suppressed_by(ctx.suppressed_rules(finding.line),
                              finding.rule_id):
                continue
            findings.append(finding.to_dict())
    fragment = build_fragment(path, source, tree)
    noqa = {str(line): sorted(ids) for line, ids in ctx.noqa_map().items()}
    return {"path": path, "findings": findings,
            "fragment": fragment.to_dict(), "noqa": noqa}


def _lint_worker(payload: Tuple[str, str, Tuple[str, ...]]) -> Dict[str, Any]:
    """Process-pool entry point: resolve rule ids in the worker (the
    registry is repopulated by importing :mod:`repro.lint`) and lint one
    file."""
    import repro.lint  # noqa: F401 - populates the rule registry

    path, source, rule_ids = payload
    file_rules = [r for r in resolve_rules(rule_ids) if isinstance(r, Rule)]
    return _lint_file_result(path, source, file_rules)


def _run_project_rules(
    project_rules: Sequence[ProjectRule],
    fragments: Sequence[ModuleFragment],
    noqa_by_path: Dict[str, Dict[int, Set[str]]],
) -> List[Finding]:
    if not project_rules or not fragments:
        return []
    index = ProjectIndex(fragments)
    findings: List[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(index):
            suppressed = noqa_by_path.get(finding.path, {}).get(finding.line)
            if _suppressed_by(suppressed, finding.rule_id):
                continue
            findings.append(finding)
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint one in-memory source text; the unit every other entry wraps.

    Project rules run over a single-file index, so cross-module rules
    degrade gracefully (collisions *within* the file still surface).
    """
    file_rules, project_rules = _split_rules(rules)
    result = _lint_file_result(path, source, file_rules)
    findings = [_finding_from_dict(doc) for doc in result["findings"]]
    if result["fragment"] is not None and project_rules:
        fragment = ModuleFragment.from_dict(result["fragment"])
        noqa = _noqa_from_result(result)
        findings.extend(
            _run_project_rules(project_rules, [fragment], {path: noqa})
        )
    return sorted(findings, key=Finding.sort_key)


def _noqa_from_result(result: Dict[str, Any]) -> Dict[int, Set[str]]:
    return {int(line): set(ids) for line, ids in result["noqa"].items()}


def lint_file(
    path: str, rules: Optional[Sequence[LintRule]] = None
) -> List[Finding]:
    """Lint one file on disk."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        return [_undecodable(str(path), exc)]
    return lint_source(source, path=str(path), rules=rules)


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files and directories to ``.py`` paths, sorted per
    argument, with duplicates (overlapping arguments, e.g. ``lint src
    src/repro``) reported once under their first spelling."""
    seen: Set[str] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = [str(p) for p in sorted(path.rglob("*.py"))]
        elif path.is_file():
            candidates = [str(path)]
        else:
            raise LintError(f"no such file or directory: {raw}")
        for candidate in candidates:
            identity = os.path.realpath(candidate)
            if identity in seen:
                continue
            seen.add(identity)
            yield candidate


def _effective_jobs(jobs: int, pending: int) -> int:
    if jobs < 0:
        raise LintError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = min(8, os.cpu_count() or 1)
    return max(1, min(jobs, pending))


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[LintRule]] = None,
    *,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
    stats: Optional[LintStats] = None,
) -> List[Finding]:
    """Lint files and directories (recursively); findings sorted.

    ``cache`` enables the incremental on-disk cache; ``jobs`` > 1 (or 0
    for auto) parses cache misses in a process pool; ``stats`` (when
    provided) is filled in with file/parse/cache counters.
    """
    file_rules, project_rules = _split_rules(rules)
    file_rule_ids = tuple(sorted(rule.rule_id for rule in file_rules))
    if stats is None:
        stats = LintStats()

    files = list(_iter_python_files(paths))
    stats.files = len(files)
    results: List[Optional[Dict[str, Any]]] = [None] * len(files)
    pending: List[Tuple[int, str, str, Optional[str]]] = []
    for position, file_path in enumerate(files):
        try:
            source = Path(file_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            findings = [_undecodable(file_path, exc).to_dict()]
            results[position] = {"path": file_path, "findings": findings,
                                 "fragment": None, "noqa": {}}
            continue
        key: Optional[str] = None
        if cache is not None:
            key = LintCache.key(file_path, source, file_rule_ids,
                                RULE_PACK_VERSION)
            entry = cache.load(key)
            if entry is not None:
                results[position] = entry
                stats.cache_hits += 1
                continue
            stats.cache_misses += 1
        pending.append((position, file_path, source, key))

    if pending:
        stats.jobs = _effective_jobs(jobs, len(pending))
        if stats.jobs > 1:
            payloads = [(file_path, source, file_rule_ids)
                        for _, file_path, source, _ in pending]
            with ProcessPoolExecutor(max_workers=stats.jobs) as pool:
                computed = list(pool.map(_lint_worker, payloads))
        else:
            computed = [_lint_file_result(file_path, source, file_rules)
                        for _, file_path, source, _ in pending]
        stats.parsed = len(pending)
        for (position, _, _, key), result in zip(pending, computed):
            results[position] = result
            if cache is not None and key is not None:
                cache.store(key, result)

    findings: List[Finding] = []
    fragments: List[ModuleFragment] = []
    noqa_by_path: Dict[str, Dict[int, Set[str]]] = {}
    for maybe_result in results:
        assert maybe_result is not None
        findings.extend(
            _finding_from_dict(doc) for doc in maybe_result["findings"]
        )
        if maybe_result["fragment"] is not None:
            fragments.append(ModuleFragment.from_dict(maybe_result["fragment"]))
        noqa_by_path[maybe_result["path"]] = _noqa_from_result(maybe_result)

    findings.extend(_run_project_rules(project_rules, fragments, noqa_by_path))
    return sorted(findings, key=Finding.sort_key)
