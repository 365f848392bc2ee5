"""Repo-specific AST lint rules (R001–R005, R010, R011).

The rules encode discipline that reviewers otherwise enforce by hand:

* **R001** — no raw ``%`` / 3-arg ``pow`` modular arithmetic against a
  field modulus outside ``repro.ff`` / ``repro.backend`` (and the
  analyzer itself). Kernel loops that hoist ``p = field.modulus`` and
  reduce against the local name are the sanctioned idiom; reducing
  directly against a ``.modulus`` attribute (or a bare ``modulus``
  name) bypasses the field API (``field.reduce`` et al.) and the
  backend routing added in PR 1.
* **R002** — functions dispatched through an executor ``.submit(...)``
  must not touch shared ``OpCounter`` state (counter attribute stores,
  ``.count``/``.merge`` calls on a counter, or passing a live counter
  onward) outside a ``with <...lock...>:`` block.
* **R003** — telemetry spans only via context managers: ``.span(...)``
  must be a ``with`` context expression and the private
  ``._start()`` / ``._stop()`` lifecycle is off-limits outside
  ``repro.service.telemetry``.
* **R004** — kernel modules (``repro.backend``, ``repro.ff``,
  ``repro.ntt``, ``repro.msm``, ``repro.curves``, ``repro.gpusim``)
  must stay deterministic: no wall-clock (``time.*``,
  ``datetime.now``/``utcnow``/``today``) or randomness (``random.*``,
  ``secrets.*``) calls.
* **R005** — every ``ComputeBackend`` implementation must define the
  class-level ``name`` tag, and any protocol op it overrides must keep
  the protocol's parameter names (extra trailing defaulted parameters
  are allowed).
* **R010** — a public module under ``src/repro/`` must be imported by a
  file under ``src/``, ``benchmarks/`` or ``examples/``, not only from
  ``tests/``. A name imported from a package resolves to the module its
  ``__init__`` takes it from (a ``from … import`` or a lazy
  ``__getattr__`` map of module names); a package ``__init__`` reaches a
  module only by using the name itself, not by re-exporting it.
  Packages and ``__main__`` modules are roots. The finding sits on the
  module's first statement. Callers count only if they are among the
  linted files, so lint ``src`` with ``benchmarks`` and ``examples``.
* **R011** — no function or lambda in the ``repro`` package takes a
  parameter named ``counter``: ops are booked on the calling thread's
  active scope (:func:`repro.ff.opcount.count`) and a caller opens one
  with :func:`repro.ff.opcount.counting`, which is exempt. Tests,
  benchmarks and examples are not checked.

(R006–R009 are the witness-taint rules of :mod:`repro.analysis.taint`.)

Rules are plugins: subclass :class:`Rule`, decorate with
:func:`register`, and the runner picks it up. Findings are suppressed
inline with ``# repro: allow[RXXX]`` on the flagged line or the line
above it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.report import LintFinding

__all__ = ["Rule", "register", "all_rules", "run_lint", "iter_py_files",
           "module_name_for"]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


class ModuleInfo:
    """One parsed source file plus everything rules need to scope
    themselves: dotted module name, AST, and suppression map."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.module = module_name_for(path)
        self.tree = ast.parse(source, filename=str(path))
        #: line number -> set of allowed rule codes
        self.allow: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _ALLOW_RE.search(line)
            if m:
                codes = {c.strip() for c in m.group(1).split(",")}
                self.allow[lineno] = {c for c in codes if c}
        #: (start, end) line spans an allow comment extends over: a
        #: simple statement's full extent, a compound statement's
        #: header (decorators included, body excluded) — so the
        #: comment can sit on any line of a multi-line call/raise or
        #: on a decorator line above the flagged ``def``
        self._spans: List[Tuple[int, int]] = []
        if self.allow:
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                start = node.lineno
                for dec in getattr(node, "decorator_list", []):
                    start = min(start, dec.lineno)
                body = getattr(node, "body", None)
                if (isinstance(body, list) and body
                        and isinstance(body[0], ast.stmt)):
                    end = max(start, body[0].lineno - 1)
                else:
                    end = node.end_lineno or node.lineno
                if end > start:
                    self._spans.append((start, end))

    def suppressed(self, code: str, lineno: int) -> bool:
        for ln in (lineno, lineno - 1):
            if code in self.allow.get(ln, ()):
                return True
        for start, end in self._spans:
            if start <= lineno <= end:
                if any(start <= ln <= end and code in codes
                       for ln, codes in self.allow.items()):
                    return True
        return False


def module_name_for(path: Path) -> str:
    """Dotted module name for files under a ``repro`` package root;
    bare stem otherwise (tests, benchmarks, fixtures)."""
    parts = list(path.parts)
    if "repro" in parts:
        i = parts.index("repro")
        mod_parts = parts[i:]
        mod_parts[-1] = path.stem
        if mod_parts[-1] == "__init__":
            mod_parts.pop()
        return ".".join(mod_parts)
    return path.stem


class Rule:
    """Base class for lint rules; subclasses set ``code``/``title`` and
    implement :meth:`visit_module` (or :meth:`visit_project` for rules
    needing the whole file set)."""

    code = "R000"
    title = ""

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        return []

    def visit_project(self, mods: Sequence[ModuleInfo]
                      ) -> List[LintFinding]:
        return []

    def finding(self, mod: ModuleInfo, node: ast.AST,
                message: str) -> LintFinding:
        return LintFinding(self.code, str(mod.path),
                           getattr(node, "lineno", 0),
                           getattr(node, "col_offset", 0) + 1, message)


_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    _RULES[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    return [_RULES[code]() for code in sorted(_RULES)]


def _dotted(node: ast.AST) -> str:
    """'a.b.c' for a Name/Attribute chain, '' otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# -- R001 ----------------------------------------------------------------------


@register
class RawModularArithmetic(Rule):
    code = "R001"
    title = "raw modular arithmetic on a field modulus"

    #: modules allowed to reduce directly: the field/backend layers own
    #: the representation, and the analyzer reasons about raw moduli
    _EXEMPT = ("repro.ff", "repro.backend", "repro.analysis")

    @staticmethod
    def _is_modulus_ref(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "modulus" or node.attr.endswith("_modulus")
        return isinstance(node, ast.Name) and node.id == "modulus"

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        if not mod.module.startswith("repro."):
            return []
        if mod.module.startswith(self._EXEMPT):
            return []
        out: List[LintFinding] = []
        for node in ast.walk(mod.tree):
            hit = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if self._is_modulus_ref(node.right):
                    hit = "'%% %s'" % _dotted(node.right)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "pow" and len(node.args) == 3
                  and self._is_modulus_ref(node.args[2])):
                hit = "'pow(..., %s)'" % _dotted(node.args[2])
            if hit is not None:
                out.append(self.finding(
                    mod, node,
                    f"{hit}: reduce through the field API "
                    "(field.reduce/mul/pow) or a ComputeBackend op "
                    "instead of raw modular arithmetic outside "
                    "repro.ff/repro.backend",
                ))
        return out


# -- R002 ----------------------------------------------------------------------


@register
class UnlockedCounterInExecutor(Rule):
    code = "R002"
    title = "shared counter state touched without a lock"

    @staticmethod
    def _mentions_lock(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name and "lock" in name.lower():
                return True
        return False

    @staticmethod
    def _is_counter_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and node.value is None:
            return False
        if isinstance(node, ast.Attribute):
            return "counter" in node.attr
        return isinstance(node, ast.Name) and "counter" in node.id

    def _violations_in(self, fn: ast.FunctionDef, mod: ModuleInfo
                       ) -> List[LintFinding]:
        out: List[LintFinding] = []

        def walk(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                inner = locked or any(
                    self._mentions_lock(item.context_expr)
                    for item in node.items)
                for child in node.body:
                    walk(child, inner)
                return
            if not locked:
                bad = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for t in targets:
                        if (isinstance(t, ast.Attribute)
                                and "counter" in t.attr):
                            bad = f"assigns '{_dotted(t)}'"
                elif isinstance(node, ast.Call):
                    f = node.func
                    if (isinstance(f, ast.Attribute)
                            and f.attr in ("count", "merge")
                            and self._is_counter_expr(f.value)):
                        bad = f"calls '{_dotted(f)}(...)'"
                    else:
                        for arg in list(node.args) + [
                                kw.value for kw in node.keywords]:
                            if self._is_counter_expr(arg):
                                bad = (f"passes live counter "
                                       f"'{_dotted(arg)}'")
                                break
                if bad is not None:
                    out.append(self.finding(
                        mod, node,
                        f"executor-dispatched '{fn.name}' {bad} outside "
                        "a lock: shared OpCounter/telemetry state must "
                        "be touched under a lock",
                    ))
            for child in ast.iter_child_nodes(node):
                walk(child, locked)

        for stmt in fn.body:
            walk(stmt, False)
        return out

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        submitted: Set[str] = set()
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit" and node.args
                    and isinstance(node.args[0], ast.Name)):
                submitted.add(node.args[0].id)
        if not submitted:
            return []
        out: List[LintFinding] = []
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in submitted):
                out.extend(self._violations_in(node, mod))
        return out


# -- R003 ----------------------------------------------------------------------


@register
class UnpairedTelemetrySpan(Rule):
    code = "R003"
    title = "telemetry span used outside a context manager"

    _EXEMPT = ("repro.service.telemetry",)

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        if mod.module.startswith(self._EXEMPT):
            return []
        with_exprs = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
        out: List[LintFinding] = []
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in ("span", "maybe_span") and id(node) not in with_exprs:
                out.append(self.finding(
                    mod, node,
                    f"'{_dotted(node.func)}(...)' must be the context "
                    "expression of a with-statement: spans acquired "
                    "outside a context manager can leak open",
                ))
            elif attr in ("_start", "_stop"):
                out.append(self.finding(
                    mod, node,
                    f"'{_dotted(node.func)}()' drives the span "
                    "lifecycle by hand; use 'with telemetry.span(...)' "
                    "so enter/exit stay paired",
                ))
        return out


# -- R004 ----------------------------------------------------------------------


@register
class NondeterminismInKernel(Rule):
    code = "R004"
    title = "wall-clock or randomness inside a kernel module"

    _KERNEL_PREFIXES = ("repro.backend", "repro.ff", "repro.ntt",
                        "repro.msm", "repro.curves", "repro.gpusim")
    #: any attribute call on these module roots is nondeterministic
    _TAINTED_MODULES = ("time", "random", "secrets")
    _DATETIME_CALLS = ("now", "utcnow", "today")
    _TAINTED_NAMES = ("perf_counter", "perf_counter_ns", "monotonic",
                      "monotonic_ns", "process_time", "time_ns",
                      "getrandbits", "randrange", "randint")

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        if not mod.module.startswith(self._KERNEL_PREFIXES):
            return []
        roots: Set[str] = set()
        from_names: Set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in self._TAINTED_MODULES + ("datetime",):
                        roots.add(alias.asname or top)
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if top in self._TAINTED_MODULES + ("datetime",):
                    for alias in node.names:
                        from_names.add(alias.asname or alias.name)
        if not roots and not from_names:
            return []
        out: List[LintFinding] = []
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted:
                continue
            root = dotted.split(".")[0]
            bad = False
            if root in roots:
                last = dotted.split(".")[-1]
                bad = (root != "datetime"
                       and last != "seed"  # seeding alone is not a read
                       or last in self._DATETIME_CALLS)
            elif dotted in from_names and dotted in (
                    self._TAINTED_NAMES + self._DATETIME_CALLS):
                bad = True
            if bad:
                out.append(self.finding(
                    mod, node,
                    f"'{dotted}(...)' in kernel module '{mod.module}': "
                    "kernels must be deterministic and clock-free "
                    "(telemetry wraps them from the service layer)",
                ))
        return out


# -- R005 ----------------------------------------------------------------------


@register
class BackendProtocolConformance(Rule):
    code = "R005"
    title = "ComputeBackend implementation breaks the protocol"

    @staticmethod
    def _protocol_from(tree: ast.AST) -> Optional[Dict[str, List[str]]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ComputeBackend":
                ops: Dict[str, List[str]] = {}
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        ops[item.name] = [a.arg for a in item.args.args]
                return ops
        return None

    def _load_protocol(self, mods: Sequence[ModuleInfo]
                       ) -> Optional[Dict[str, List[str]]]:
        for mod in mods:
            if mod.module == "repro.backend.base":
                proto = self._protocol_from(mod.tree)
                if proto:
                    return proto
        try:  # scanned set may not include src/ (e.g. fixture dirs)
            import importlib.util

            spec = importlib.util.find_spec("repro.backend.base")
            if spec and spec.origin:
                src = Path(spec.origin).read_text()
                return self._protocol_from(ast.parse(src))
        except (ImportError, OSError, SyntaxError):
            return None
        return None

    def visit_project(self, mods: Sequence[ModuleInfo]
                      ) -> List[LintFinding]:
        protocol = self._load_protocol(mods)
        if not protocol:
            return []
        out: List[LintFinding] = []
        for mod in mods:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not any(_dotted(b).split(".")[-1] == "ComputeBackend"
                           for b in node.bases):
                    continue
                out.extend(self._check_class(mod, node, protocol))
        return out

    def _check_class(self, mod: ModuleInfo, cls: ast.ClassDef,
                     protocol: Dict[str, List[str]]) -> List[LintFinding]:
        out: List[LintFinding] = []
        has_name = any(
            (isinstance(item, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "name"
                     for t in item.targets))
            or (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "name")
            for item in cls.body)
        if not has_name:
            out.append(self.finding(
                mod, cls,
                f"backend '{cls.name}' must define the class-level "
                "'name' tag used by the registry",
            ))
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            want = protocol.get(item.name)
            if want is None:
                continue
            got = [a.arg for a in item.args.args]
            n_defaults = len(item.args.defaults)
            required = got[:len(got) - n_defaults] if n_defaults else got
            if got[:len(want)] != want or len(required) > len(want):
                out.append(self.finding(
                    mod, item,
                    f"'{cls.name}.{item.name}' signature {got} does not "
                    f"match the ComputeBackend protocol {want} (extra "
                    "parameters must be trailing and defaulted)",
                ))
        return out


# -- R010 ----------------------------------------------------------------------


def _tree_role(path: Path) -> str:
    """Which top-level tree a file sits in: the last of ``src``,
    ``tests``, ``benchmarks``, ``examples`` on its path, or ''."""
    for part in reversed(path.parts[:-1]):
        if part in ("src", "tests", "benchmarks", "examples"):
            return part
    return ""


@register
class TestOnlyModule(Rule):
    code = "R010"
    title = "public module reached only from tests"

    @staticmethod
    def _imports(mod: ModuleInfo) -> Iterable[Tuple[str, Optional[str], str]]:
        """(module, imported name or None, bound name) per import alias
        (the repo has no relative imports)."""
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, alias.asname or alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield (node.module or "", alias.name,
                           alias.asname or alias.name)

    def visit_project(self, mods: Sequence[ModuleInfo]
                      ) -> List[LintFinding]:
        src = {m.module: m for m in mods
               if _tree_role(m.path) == "src"
               and m.module.split(".")[0] == "repro"}
        # (package, name) -> where the package __init__ takes the name
        # from: its ``from … import`` lines and its lazy __getattr__ map
        taken: Dict[Tuple[str, str], Tuple[str, Optional[str]]] = {}
        for pkg, m in src.items():
            if m.path.stem != "__init__":
                continue
            for base, name, bound in self._imports(m):
                if name is not None:
                    taken[pkg, bound] = (base, name)
            for node in ast.walk(m.tree):
                if isinstance(node, ast.Dict):
                    for k, v in zip(node.keys, node.values):
                        if (isinstance(k, ast.Constant)
                                and isinstance(v, ast.Constant)
                                and v.value in src):
                            taken[pkg, str(k.value)] = (v.value, None)

        def resolve(base: str, name: Optional[str]) -> str:
            seen: Set[Tuple[str, str]] = set()
            while name is not None and (base, name) not in seen:
                if f"{base}.{name}" in src:
                    return f"{base}.{name}"
                seen.add((base, name))
                base, name = taken.get((base, name), (base, None))
            return base

        reached: Set[str] = set()
        for m in mods:
            role = _tree_role(m.path)
            if role not in ("src", "benchmarks", "examples"):
                continue
            used: Optional[Set[str]] = None
            if role == "src" and m.path.stem == "__init__":
                # a package __init__ reaches only what it uses itself
                used = {n.id for n in ast.walk(m.tree)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
            for base, name, bound in self._imports(m):
                if used is None or bound in used:
                    reached.add(resolve(base, name))
        # packages and __main__ modules are roots, never findings
        return [
            self.finding(m, m.tree.body[0] if m.tree.body else m.tree,
                         f"module '{name}' is imported only from tests: "
                         "give it a caller in src/, benchmarks/ or "
                         "examples/, or delete it with its tests")
            for name, m in sorted(src.items())
            if not m.path.stem.startswith("_") and name not in reached
        ]


# -- R011 ----------------------------------------------------------------------


@register
class CounterParameter(Rule):
    code = "R011"
    title = "op counter threaded through a parameter"

    #: (module, function) that may take one: the scope itself
    _EXEMPT = {("repro.ff.opcount", "counting")}

    def visit_module(self, mod: ModuleInfo) -> List[LintFinding]:
        if not (mod.module == "repro" or mod.module.startswith("repro.")):
            return []
        out: List[LintFinding] = []
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if (mod.module, name) in self._EXEMPT:
                continue
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg == "counter":
                    out.append(self.finding(
                        mod, arg,
                        f"'{name}' takes a 'counter' parameter: count on "
                        "the active scope (repro.ff.opcount.count) and let "
                        "the caller open one with "
                        "repro.ff.opcount.counting",
                    ))
        return out


# -- runner --------------------------------------------------------------------


def iter_py_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
            ))
        elif p.suffix == ".py":
            files.append(p)
    return files


def run_lint(paths: Iterable[str]) -> List[LintFinding]:
    """Run every registered rule over the python files under ``paths``;
    returns unsuppressed findings sorted by location."""
    mods: List[ModuleInfo] = []
    findings: List[LintFinding] = []
    for f in iter_py_files(paths):
        try:
            mods.append(ModuleInfo(f, f.read_text()))
        except (OSError, SyntaxError) as exc:
            findings.append(LintFinding(
                "R000", str(f), getattr(exc, "lineno", 0) or 0, 1,
                f"could not parse: {exc}"))
    rules = all_rules()
    for mod in mods:
        for rule in rules:
            findings.extend(mod_f for mod_f in rule.visit_module(mod))
    for rule in rules:
        findings.extend(rule.visit_project(mods))
    by_path = {str(m.path): m for m in mods}
    kept = [
        f for f in findings
        if f.path not in by_path
        or not by_path[f.path].suppressed(f.code, f.line)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept
