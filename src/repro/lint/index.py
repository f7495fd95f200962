"""Whole-program index for project-level lint rules.

Per-file rules (:class:`repro.lint.engine.Rule`) see one
:class:`~repro.lint.engine.LintContext` at a time, which makes an entire
class of cross-module determinism bugs invisible: two components drawing
from the *same* named RNG stream (correlated draws — the bug class
DET001 was born from), or a simulated-package function reaching a
wall-clock read through a helper module that DET002's per-file scope
never visits.

This module closes that gap.  :func:`build_fragment` distils one parsed
file into a :class:`ModuleFragment` — symbol table, resolved imports, a
conservative list of outgoing calls per function, direct
wall-clock/global-RNG hazards, and every RNG-stream construction site
with its string literal (or f-string prefix) constant-propagated — and
:class:`ProjectIndex` assembles the fragments of *all* linted files into
the whole-program structures the ``ProjectRule`` pack consumes:

* a module table with dotted-name import resolution,
* a conservative call graph (direct calls, ``self`` methods, imported
  symbols and modules, constructor calls, and bounded method-name
  matching against classes visible in the calling module),
* the runtime import graph (module-level, non-``TYPE_CHECKING``
  imports only — lazy and typing-only imports are the sanctioned
  cycle-breaking patterns and are excluded),
* the global stream-site table used by DET005.

Fragments are plain serializable data (``to_dict``/``from_dict``), which
is what lets the incremental cache (:mod:`repro.lint.cache`) reuse them
across runs without re-parsing unchanged files.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DATETIME_NOW_ATTRS",
    "NUMPY_GENERATOR_CTORS",
    "NUMPY_SEEDED_OK",
    "SIMULATED_PACKAGES",
    "WALL_CLOCK_ATTRS",
    "CallSite",
    "FunctionInfo",
    "HazardCall",
    "ModuleFragment",
    "ProjectIndex",
    "StreamSite",
    "attr_chain",
    "build_fragment",
    "module_parts",
]

#: Packages whose code runs inside the simulated world (DET002/DET006
#: scope).
SIMULATED_PACKAGES = ("sim", "net", "chain", "storage", "groupcomm")

#: ``time`` module attributes that read the host clock.
WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.
DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: ``numpy.random`` members that are explicitly seeded (allowed).
NUMPY_SEEDED_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator", "RandomState",
})

#: ``numpy.random`` generator constructors (DET004 scope): seeded, so
#: DET003 allows them — but construction belongs in repro/sim/rng.py.
NUMPY_GENERATOR_CTORS = frozenset({
    "default_rng", "Generator", "PCG64", "Philox", "MT19937", "SFC64",
    "RandomState",
})

#: stdlib ``random`` attributes that do *not* touch the hidden global
#: stream (explicitly seeded constructors).
_RANDOM_SEEDED_OK = frozenset({"Random", "SystemRandom"})

#: The four sanctioned stream-construction APIs DET005 watches.
_STREAM_FREE_FUNCTIONS = frozenset({"seeded_rng", "seeded_generator"})
_STREAM_METHODS = frozenset({"stream", "generator"})


def attr_chain(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")``; empty when not a pure name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@dataclass(frozen=True)
class StreamSite:
    """One RNG-stream construction site with its propagated name.

    ``prefix`` is the full name when ``exact`` is true, otherwise the
    literal f-string/concatenation prefix before the first dynamic part.
    ``root`` is the root seed when it constant-propagates to an integer
    literal (``seeded_rng(4001, ...)``, ``RngStreams(3001).stream(...)``)
    and ``None`` when it is only known at run time — an unknown root can
    share a seed root with any other site.
    """

    api: str
    prefix: str
    exact: bool
    root: Optional[int]
    line: int
    col: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": self.api, "prefix": self.prefix, "exact": self.exact,
            "root": self.root, "line": self.line, "col": self.col,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "StreamSite":
        return StreamSite(
            api=doc["api"], prefix=doc["prefix"], exact=doc["exact"],
            root=doc["root"], line=doc["line"], col=doc["col"],
        )


@dataclass(frozen=True)
class HazardCall:
    """A direct nondeterminism source inside one function body."""

    kind: str  # "wall_clock" | "global_rng"
    detail: str  # e.g. "time.perf_counter", "random.shuffle"
    line: int

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail, "line": self.line}

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "HazardCall":
        return HazardCall(kind=doc["kind"], detail=doc["detail"],
                          line=doc["line"])


@dataclass(frozen=True)
class CallSite:
    """One outgoing call recorded in a function body, pre-resolution.

    ``kind`` is ``"name"`` (bare ``f()``), ``"self"`` (``self.m()``),
    ``"attr"`` (``base.chain.m()``), or ``"ctor"`` (``Cls().m()`` — the
    constructor name rides in ``base``).
    """

    kind: str
    name: str
    base: Tuple[str, ...] = ()
    line: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "base": list(self.base), "line": self.line}

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CallSite":
        return CallSite(kind=doc["kind"], name=doc["name"],
                        base=tuple(doc["base"]), line=doc["line"])


@dataclass
class FunctionInfo:
    """Symbol-table entry for one function or method."""

    name: str
    qname: str  # module-relative: "f" or "Cls.m"
    cls: Optional[str]
    line: int
    col: int
    calls: List[CallSite] = field(default_factory=list)
    hazards: List[HazardCall] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "qname": self.qname, "cls": self.cls,
            "line": self.line, "col": self.col,
            "calls": [c.to_dict() for c in self.calls],
            "hazards": [h.to_dict() for h in self.hazards],
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "FunctionInfo":
        return FunctionInfo(
            name=doc["name"], qname=doc["qname"], cls=doc["cls"],
            line=doc["line"], col=doc["col"],
            calls=[CallSite.from_dict(c) for c in doc["calls"]],
            hazards=[HazardCall.from_dict(h) for h in doc["hazards"]],
        )


@dataclass
class ModuleFragment:
    """Everything the project rules need to know about one file.

    Pure data: serializable, picklable, and rebuildable from cache
    without the source or the AST.
    """

    path: str
    module: str
    package: str
    is_package: bool
    module_parts: Tuple[str, ...]
    #: module-level, non-TYPE_CHECKING imports: (dotted target, line).
    runtime_imports: List[Tuple[str, int]] = field(default_factory=list)
    #: local binding -> dotted module (``import a.b as c``; plain
    #: ``import a.b`` binds the full dotted path for prefix matching).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local binding -> (module, symbol) for ``from module import symbol``.
    symbol_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)
    #: top-level class -> its method names.
    classes: Dict[str, List[str]] = field(default_factory=dict)
    stream_sites: List[StreamSite] = field(default_factory=list)

    def in_package(self, *names: str) -> bool:
        """Whether any directory component of the module path is in
        ``names`` (mirrors :meth:`LintContext.in_package`)."""
        return any(part in names for part in self.module_parts[:-1])

    def is_module(self, *tail: str) -> bool:
        """Whether the module path ends with the given components."""
        n = len(tail)
        return n > 0 and self.module_parts[-n:] == tuple(tail)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "package": self.package,
            "is_package": self.is_package,
            "module_parts": list(self.module_parts),
            "runtime_imports": [[m, line] for m, line in self.runtime_imports],
            "module_aliases": dict(self.module_aliases),
            "symbol_imports": {
                k: [m, s] for k, (m, s) in self.symbol_imports.items()
            },
            "functions": [f.to_dict() for f in self.functions],
            "classes": {k: list(v) for k, v in self.classes.items()},
            "stream_sites": [s.to_dict() for s in self.stream_sites],
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ModuleFragment":
        return ModuleFragment(
            path=doc["path"],
            module=doc["module"],
            package=doc["package"],
            is_package=doc["is_package"],
            module_parts=tuple(doc["module_parts"]),
            runtime_imports=[(m, line) for m, line in doc["runtime_imports"]],
            module_aliases=dict(doc["module_aliases"]),
            symbol_imports={
                k: (v[0], v[1]) for k, v in doc["symbol_imports"].items()
            },
            functions=[FunctionInfo.from_dict(f) for f in doc["functions"]],
            classes={k: list(v) for k, v in doc["classes"].items()},
            stream_sites=[StreamSite.from_dict(s) for s in doc["stream_sites"]],
        )


#: A directory holding one of these is the root of a checkout.
_CHECKOUT_MARKERS = ("pyproject.toml", "setup.py", ".git")


def module_parts(path: str) -> Tuple[str, ...]:
    """The path components that place a file in the project.

    Components above the file's checkout (the nearest directory holding
    a ``pyproject.toml``, ``setup.py`` or ``.git``) are dropped, so a
    checkout under a directory named ``sim`` or ``repro`` lints like any
    other, and a path in a ``repro`` tree starts at its last ``repro``
    component (``("repro", "sim", "rng.py")``).  A file in no checkout
    keeps every component of the path as given.
    """
    parts: Tuple[str, ...] = Path(path).parts
    absolute = Path(os.path.abspath(path))
    for root in absolute.parents:
        if any((root / marker).exists() for marker in _CHECKOUT_MARKERS):
            parts = absolute.relative_to(root).parts
            break
    if "repro" in parts:
        last = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        parts = parts[last:]
    return parts


def _module_identity(path: str) -> Tuple[str, str, bool, Tuple[str, ...]]:
    """Derive (dotted module, parent package, is_package, module_parts).

    Paths inside a ``repro`` tree are named from the last ``repro``
    component (``.../src/repro/sim/rng.py`` -> ``repro.sim.rng``) so the
    index is stable regardless of where the checkout lives.  Other paths
    (fixtures, tests) walk up through ``__init__.py`` markers to find
    their package root; a bare file is its own single-segment module.
    """
    parts = module_parts(path)
    if parts[:1] == ("repro",):
        names = list(parts[:-1])
        leaf = parts[-1]
        is_package = leaf == "__init__.py"
        if not is_package:
            names.append(leaf[:-3] if leaf.endswith(".py") else leaf)
        module = ".".join(names)
        package = ".".join(names[:-1])
        return module, package, is_package, parts
    file_path = Path(path)
    leaf = file_path.name
    is_package = leaf == "__init__.py"
    names = [] if is_package else [file_path.stem or "_module"]
    directory = file_path.parent
    try:
        while directory.name and (directory / "__init__.py").is_file():
            names.insert(0, directory.name)
            directory = directory.parent
    except OSError:  # pragma: no cover - unreadable parent directories
        pass
    if not names:
        names = [directory.name or "_module"]
    module = ".".join(names)
    package = ".".join(names[:-1])
    return module, package, is_package, parts


def _is_type_checking_test(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    chain = attr_chain(test)
    return bool(chain) and chain[-1] == "TYPE_CHECKING"


class _ScopeConstants:
    """Single-assignment string/int literals, for constant propagation."""

    def __init__(self, parent: Optional["_ScopeConstants"] = None):
        self._parent = parent
        self._values: Dict[str, Any] = {}
        self._poisoned: Set[str] = set()

    def collect(self, body: Sequence[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._record(target.id, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._record(node.target.id, node.value)
            elif isinstance(node, (ast.AugAssign, ast.For)):
                target = getattr(node, "target", None)
                if isinstance(target, ast.Name):
                    self._poison(target.id)

    def _record(self, name: str, value: ast.expr) -> None:
        if name in self._poisoned:
            return
        if name in self._values:
            self._poison(name)
            return
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (str, int)
        ) and not isinstance(value.value, bool):
            self._values[name] = value.value
        elif isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain and chain[-1] == "RngStreams" and value.args and (
                isinstance(value.args[0], ast.Constant)
                and isinstance(value.args[0].value, int)
                and not isinstance(value.args[0].value, bool)
            ):
                self._values[name] = ("RngStreams", value.args[0].value)
            else:
                self._poison(name)
        else:
            self._poison(name)

    def _poison(self, name: str) -> None:
        self._poisoned.add(name)
        self._values.pop(name, None)

    def lookup(self, name: str) -> Optional[Any]:
        if name in self._poisoned:
            return None
        if name in self._values:
            return self._values[name]
        if self._parent is not None:
            return self._parent.lookup(name)
        return None


def _literal_string(
    expr: ast.expr, scope: _ScopeConstants
) -> Optional[Tuple[str, bool]]:
    """Resolve ``expr`` to (prefix, exact) when it is a string literal,
    an f-string (literal prefix, exact when fully literal), a ``+``
    concatenation of resolvable parts, or a name bound once to one."""
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, str):
            return expr.value, True
        return None
    if isinstance(expr, ast.JoinedStr):
        prefix = ""
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                prefix += value.value
            else:
                return prefix, False
        return prefix, True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = _literal_string(expr.left, scope)
        if left is None:
            return None
        left_prefix, left_exact = left
        if not left_exact:
            return left_prefix, False
        right = _literal_string(expr.right, scope)
        if right is None:
            return left_prefix, False
        return left_prefix + right[0], right[1]
    if isinstance(expr, ast.Name):
        value = scope.lookup(expr.id)
        if isinstance(value, str):
            return value, True
        return None
    return None


def _literal_root(
    expr: ast.expr, scope: _ScopeConstants
) -> Optional[int]:
    """Resolve a root-seed expression to an integer literal when possible."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int) and (
        not isinstance(expr.value, bool)
    ):
        return expr.value
    if isinstance(expr, ast.Name):
        value = scope.lookup(expr.id)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


class _ImportCollector:
    """Walks the module body, splitting runtime imports from lazy or
    typing-only ones while recording every alias for call resolution."""

    def __init__(self, module: str, package: str, is_package: bool):
        self._base_package = module if is_package else package
        self.runtime_imports: List[Tuple[str, int]] = []
        self.module_aliases: Dict[str, str] = {}
        self.symbol_imports: Dict[str, Tuple[str, str]] = {}

    def collect(self, body: Sequence[ast.stmt], runtime: bool = True) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
                    if runtime:
                        self.runtime_imports.append((alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                if runtime:
                    self.runtime_imports.append((base, node.lineno))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.symbol_imports[alias.asname or alias.name] = (
                        base, alias.name
                    )
            elif isinstance(node, ast.If):
                in_runtime = runtime and not _is_type_checking_test(node.test)
                self.collect(node.body, in_runtime)
                self.collect(node.orelse, runtime)
            elif isinstance(node, ast.Try):
                self.collect(node.body, runtime)
                for handler in node.handlers:
                    self.collect(handler.body, runtime)
                self.collect(node.orelse, runtime)
                self.collect(node.finalbody, runtime)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.collect(node.body, runtime=False)
            elif isinstance(node, ast.ClassDef):
                self.collect(node.body, runtime=False)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self.collect(node.body, runtime)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base_parts = self._base_package.split(".") if self._base_package else []
        up = node.level - 1
        if up > len(base_parts):
            return None
        kept = base_parts[: len(base_parts) - up]
        if node.module:
            kept.append(node.module)
        return ".".join(kept) if kept else None


class _BodyScanner:
    """Extracts calls, hazards, and stream sites from one scope."""

    def __init__(
        self,
        collector: _ImportCollector,
        stdlib_random_aliases: Set[str],
        random_fn_aliases: Dict[str, str],
        numpy_aliases: Set[str],
        numpy_random_aliases: Set[str],
        clock_aliases: Dict[str, str],
    ):
        self._collector = collector
        self._stdlib_random = stdlib_random_aliases
        self._random_fns = random_fn_aliases
        self._numpy = numpy_aliases
        self._numpy_random = numpy_random_aliases
        self._clocks = clock_aliases

    def scan(
        self, nodes: Sequence[ast.AST], scope: _ScopeConstants
    ) -> Tuple[List[CallSite], List[HazardCall], List[StreamSite]]:
        calls: List[CallSite] = []
        hazards: List[HazardCall] = []
        sites: List[StreamSite] = []
        for root in nodes:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                call = self._call_site(node, chain)
                if call is not None:
                    calls.append(call)
                hazard = self._hazard(node, chain)
                if hazard is not None:
                    hazards.append(hazard)
                site = self._stream_site(node, chain, scope)
                if site is not None:
                    sites.append(site)
        return calls, hazards, sites

    def _call_site(
        self, node: ast.Call, chain: Tuple[str, ...]
    ) -> Optional[CallSite]:
        if len(chain) == 1:
            return CallSite("name", chain[0], (), node.lineno)
        if len(chain) == 2 and chain[0] == "self":
            return CallSite("self", chain[1], (), node.lineno)
        if len(chain) >= 2:
            return CallSite("attr", chain[-1], chain[:-1], node.lineno)
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
            inner = attr_chain(func.value.func)
            if len(inner) == 1:
                return CallSite("ctor", func.attr, (inner[0],), node.lineno)
        return None

    def _hazard(
        self, node: ast.Call, chain: Tuple[str, ...]
    ) -> Optional[HazardCall]:
        if len(chain) >= 2:
            if chain[-2] == "time" and chain[-1] in WALL_CLOCK_ATTRS:
                return HazardCall("wall_clock", ".".join(chain[-2:]),
                                  node.lineno)
            if chain[-1] in DATETIME_NOW_ATTRS and chain[-2] in (
                "datetime", "date"
            ):
                return HazardCall("wall_clock", ".".join(chain[-2:]),
                                  node.lineno)
        if len(chain) == 1 and chain[0] in self._clocks:
            return HazardCall("wall_clock", self._clocks[chain[0]],
                              node.lineno)
        if len(chain) == 2 and chain[0] in self._stdlib_random and (
            chain[1] not in _RANDOM_SEEDED_OK
        ):
            return HazardCall("global_rng", f"random.{chain[1]}", node.lineno)
        if len(chain) == 1 and chain[0] in self._random_fns:
            return HazardCall("global_rng", self._random_fns[chain[0]],
                              node.lineno)
        if len(chain) == 3 and chain[0] in self._numpy and (
            chain[1] == "random"
        ) and chain[2] not in NUMPY_SEEDED_OK:
            return HazardCall("global_rng", f"numpy.random.{chain[2]}",
                              node.lineno)
        if len(chain) == 2 and chain[0] in self._numpy_random and (
            chain[1] not in NUMPY_SEEDED_OK
        ):
            return HazardCall("global_rng", f"numpy.random.{chain[1]}",
                              node.lineno)
        return None

    def _stream_site(
        self, node: ast.Call, chain: Tuple[str, ...],
        scope: _ScopeConstants,
    ) -> Optional[StreamSite]:
        api: Optional[str] = None
        name_arg: Optional[ast.expr] = None
        root: Optional[int] = None
        if len(chain) == 1:
            resolved = self._collector.symbol_imports.get(chain[0])
            target = resolved[1] if resolved else chain[0]
            if target in _STREAM_FREE_FUNCTIONS and (
                chain[0] in _STREAM_FREE_FUNCTIONS or resolved is not None
            ):
                api = target
                name_arg = self._argument(node, 1, "name")
                if node.args:
                    root = _literal_root(node.args[0], scope)
        elif len(chain) >= 2 and chain[-1] in _STREAM_METHODS:
            api = chain[-1]
            name_arg = self._argument(node, 0, "name")
            if len(chain) == 2:
                receiver = scope.lookup(chain[0])
                if isinstance(receiver, tuple) and receiver[0] == "RngStreams":
                    root = receiver[1]
        elif not chain and isinstance(node.func, ast.Attribute) and (
            node.func.attr in _STREAM_METHODS
        ) and isinstance(node.func.value, ast.Call):
            # chained construction: RngStreams(seed).stream("name")
            api = node.func.attr
            name_arg = self._argument(node, 0, "name")
            inner = node.func.value
            inner_chain = attr_chain(inner.func)
            if inner_chain and inner.args:
                ctor = inner_chain[-1]
                resolved_ctor = self._collector.symbol_imports.get(ctor)
                if resolved_ctor is not None and len(inner_chain) == 1:
                    ctor = resolved_ctor[1]
                if ctor == "RngStreams":
                    root = _literal_root(inner.args[0], scope)
        if api is None or name_arg is None:
            return None
        literal = _literal_string(name_arg, scope)
        if literal is None:
            return None
        prefix, exact = literal
        return StreamSite(api=api, prefix=prefix, exact=exact, root=root,
                          line=node.lineno, col=node.col_offset)

    @staticmethod
    def _argument(
        node: ast.Call, position: int, keyword: str
    ) -> Optional[ast.expr]:
        if len(node.args) > position:
            return node.args[position]
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        return None


def build_fragment(path: str, source: str, tree: ast.Module) -> ModuleFragment:
    """Distil one parsed file into its :class:`ModuleFragment`."""
    module, package, is_package, module_parts = _module_identity(path)
    collector = _ImportCollector(module, package, is_package)
    collector.collect(tree.body)

    stdlib_random: Set[str] = set()
    random_fns: Dict[str, str] = {}
    numpy_aliases: Set[str] = set()
    numpy_random: Set[str] = set()
    clocks: Dict[str, str] = {}
    for local, target in collector.module_aliases.items():
        if target == "random":
            stdlib_random.add(local.split(".")[0] if local == target else local)
        elif target == "numpy":
            numpy_aliases.add(local if local != target else "numpy")
        elif target == "numpy.random":
            if local != target:
                numpy_random.add(local)
            else:
                numpy_aliases.add("numpy")
    for local, (mod, sym) in collector.symbol_imports.items():
        if mod == "time" and sym in WALL_CLOCK_ATTRS:
            clocks[local] = f"time.{sym}"
        elif mod == "random" and sym not in _RANDOM_SEEDED_OK:
            random_fns[local] = f"random.{sym}"
        elif mod == "numpy" and sym == "random":
            numpy_random.add(local)

    scanner = _BodyScanner(
        collector, stdlib_random, random_fns, numpy_aliases, numpy_random,
        clocks,
    )
    module_scope = _ScopeConstants()
    module_scope.collect(tree.body)

    functions: List[FunctionInfo] = []
    classes: Dict[str, List[str]] = {}
    stream_sites: List[StreamSite] = []

    def add_function(
        node: ast.AST, cls: Optional[str]
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        scope = _ScopeConstants(module_scope)
        scope.collect(node.body)
        calls, hazards, sites = scanner.scan(node.body, scope)
        qname = f"{cls}.{node.name}" if cls else node.name
        functions.append(FunctionInfo(
            name=node.name, qname=qname, cls=cls,
            line=node.lineno, col=node.col_offset,
            calls=calls, hazards=hazards,
        ))
        stream_sites.extend(sites)

    module_level: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    add_function(item, node.name)
            classes[node.name] = methods
        else:
            module_level.append(node)
    _calls, _hazards, module_sites = scanner.scan(module_level, module_scope)
    stream_sites.extend(module_sites)
    stream_sites.sort(key=lambda s: (s.line, s.col))

    return ModuleFragment(
        path=path,
        module=module,
        package=package,
        is_package=is_package,
        module_parts=module_parts,
        runtime_imports=collector.runtime_imports,
        module_aliases=collector.module_aliases,
        symbol_imports=collector.symbol_imports,
        functions=functions,
        classes=classes,
        stream_sites=stream_sites,
    )


class ProjectIndex:
    """The whole-program view: every fragment, cross-resolved.

    ``functions`` maps fully qualified names (``repro.net.churn.renew``,
    ``repro.storage.replication.ReplicatedBlobStore.store``) to their
    (fragment, info) pairs; :meth:`call_edges` resolves one function's
    recorded call sites against the whole index; :meth:`import_graph`
    and :meth:`hazard_routes` are the precomputed structures IMP001 and
    DET006 consume.
    """

    def __init__(self, fragments: Sequence[ModuleFragment]):
        self.fragments: List[ModuleFragment] = sorted(
            fragments, key=lambda f: f.path
        )
        self.modules: Dict[str, ModuleFragment] = {}
        for fragment in self.fragments:
            self.modules.setdefault(fragment.module, fragment)
        self.functions: Dict[str, Tuple[ModuleFragment, FunctionInfo]] = {}
        self.classes: Dict[str, List[str]] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        for fragment in self.fragments:
            if self.modules[fragment.module] is not fragment:
                continue  # duplicate module name; first (sorted) path wins
            for info in fragment.functions:
                self.functions.setdefault(
                    f"{fragment.module}.{info.qname}", (fragment, info)
                )
            for cls, methods in fragment.classes.items():
                self.classes.setdefault(f"{fragment.module}.{cls}", methods)
        self._edges: Dict[str, Tuple[str, ...]] = {}

    # -- import graph -----------------------------------------------------

    def import_graph(self) -> Dict[str, List[Tuple[str, int]]]:
        """Runtime import edges restricted to indexed modules.

        ``from M import sym`` resolves to the submodule ``M.sym`` when
        that module is indexed (importing the symbol executes it),
        otherwise to ``M`` itself.
        """
        graph: Dict[str, List[Tuple[str, int]]] = {}
        for fragment in self.fragments:
            if self.modules[fragment.module] is not fragment:
                continue
            edges: List[Tuple[str, int]] = []
            seen: Set[str] = set()
            submodules: Dict[Tuple[str, int], List[str]] = {}
            for local, (mod, sym) in fragment.symbol_imports.items():
                if f"{mod}.{sym}" in self.modules:
                    submodules.setdefault((mod, 0), []).append(f"{mod}.{sym}")
            for target, line in fragment.runtime_imports:
                candidates = [target]
                for sub in submodules.get((target, 0), []):
                    candidates.append(sub)
                for candidate in candidates:
                    if candidate == fragment.module or candidate in seen:
                        continue
                    if candidate in self.modules:
                        seen.add(candidate)
                        edges.append((candidate, line))
            graph[fragment.module] = sorted(edges)
        return graph

    # -- call graph -------------------------------------------------------

    def call_edges(self, qname: str) -> Tuple[str, ...]:
        """Resolved outgoing edges of one function, sorted and cached."""
        cached = self._edges.get(qname)
        if cached is not None:
            return cached
        entry = self.functions.get(qname)
        if entry is None:
            self._edges[qname] = ()
            return ()
        fragment, info = entry
        targets: Set[str] = set()
        for call in info.calls:
            targets.update(self._resolve_call(fragment, info, call))
        targets.discard(qname)
        edges = tuple(sorted(targets))
        self._edges[qname] = edges
        return edges

    def _resolve_class(
        self, fragment: ModuleFragment, name: str
    ) -> Optional[str]:
        if name in fragment.classes:
            return f"{fragment.module}.{name}"
        imported = fragment.symbol_imports.get(name)
        if imported is not None:
            candidate = f"{imported[0]}.{imported[1]}"
            if candidate in self.classes:
                return candidate
        return None

    def _visible_classes(self, fragment: ModuleFragment) -> List[str]:
        visible = {f"{fragment.module}.{cls}" for cls in fragment.classes}
        for local, (mod, sym) in fragment.symbol_imports.items():
            candidate = f"{mod}.{sym}"
            if candidate in self.classes:
                visible.add(candidate)
        return sorted(visible)

    def _resolve_call(
        self, fragment: ModuleFragment, info: FunctionInfo, call: CallSite
    ) -> List[str]:
        module = fragment.module
        if call.kind == "name":
            local = f"{module}.{call.name}"
            if local in self.functions:
                return [local]
            cls = self._resolve_class(fragment, call.name)
            if cls is not None:
                init = f"{cls}.__init__"
                return [init] if init in self.functions else []
            imported = fragment.symbol_imports.get(call.name)
            if imported is not None:
                candidate = f"{imported[0]}.{imported[1]}"
                if candidate in self.functions:
                    return [candidate]
            return []
        if call.kind == "self":
            if info.cls is not None:
                candidate = f"{module}.{info.cls}.{call.name}"
                if candidate in self.functions:
                    return [candidate]
            return []
        if call.kind == "ctor":
            cls = self._resolve_class(fragment, call.base[0])
            if cls is not None:
                candidate = f"{cls}.{call.name}"
                if candidate in self.functions:
                    return [candidate]
            return []
        # attr: module-path calls, class statics, then bounded
        # method-name matching against classes visible in this module.
        base = call.base
        for k in range(len(base), 0, -1):
            prefix = ".".join(base[:k])
            target_module = fragment.module_aliases.get(prefix)
            if target_module is None and k == 1:
                imported = fragment.symbol_imports.get(base[0])
                if imported is not None and (
                    f"{imported[0]}.{imported[1]}" in self.modules
                ):
                    target_module = f"{imported[0]}.{imported[1]}"
            if target_module is not None:
                rest = ".".join(base[k:])
                full = target_module + ("." + rest if rest else "")
                candidate = f"{full}.{call.name}"
                return [candidate] if candidate in self.functions else []
        if len(base) == 1:
            cls = self._resolve_class(fragment, base[0])
            if cls is not None:
                candidate = f"{cls}.{call.name}"
                return [candidate] if candidate in self.functions else []
        candidates = []
        for cls_qname in self._visible_classes(fragment):
            candidate = f"{cls_qname}.{call.name}"
            if candidate in self.functions:
                candidates.append(candidate)
        return candidates

    # -- hazard routing (DET006) -----------------------------------------

    def hazard_routes(self) -> Dict[str, Tuple[str, str, HazardCall]]:
        """For every function that can reach a nondeterminism hazard in a
        *non-simulated* module, the first hop toward it.

        Returns ``{qname: (next_qname, endpoint_qname, hazard)}`` built
        by a reverse BFS from the hazard endpoints, so lookups and path
        reconstruction are O(path length).  Endpoints themselves are not
        included (a direct hazard is per-file territory, not DET006's).
        """
        reverse: Dict[str, List[str]] = {}
        for qname in sorted(self.functions):
            for target in self.call_edges(qname):
                reverse.setdefault(target, []).append(qname)
        routes: Dict[str, Tuple[str, str, HazardCall]] = {}
        frontier: List[str] = []
        for qname in sorted(self.functions):
            fragment, info = self.functions[qname]
            if not info.hazards:
                continue
            if fragment.in_package(*SIMULATED_PACKAGES):
                continue
            hazard = min(info.hazards, key=lambda h: (h.line, h.detail))
            for caller in sorted(reverse.get(qname, ())):
                if caller not in routes:
                    routes[caller] = (qname, qname, hazard)
                    frontier.append(caller)
        while frontier:
            next_frontier: List[str] = []
            for qname in frontier:
                hop = routes[qname]
                for caller in sorted(reverse.get(qname, ())):
                    if caller not in routes:
                        routes[caller] = (qname, hop[1], hop[2])
                        next_frontier.append(caller)
            frontier = next_frontier
        return routes

    def hazard_chain(
        self, qname: str, routes: Dict[str, Tuple[str, str, HazardCall]]
    ) -> List[str]:
        """The call chain from ``qname`` to its hazard endpoint."""
        chain = [qname]
        seen = {qname}
        current = qname
        while current in routes:
            current = routes[current][0]
            if current in seen:  # pragma: no cover - routes are acyclic
                break
            seen.add(current)
            chain.append(current)
        return chain

    # -- stream sites (DET005) -------------------------------------------

    def stream_sites(self) -> Iterator[Tuple[ModuleFragment, StreamSite]]:
        """Every stream construction site, in (path, line, col) order."""
        for fragment in self.fragments:
            if self.modules[fragment.module] is not fragment:
                continue
            for site in fragment.stream_sites:
                yield fragment, site
