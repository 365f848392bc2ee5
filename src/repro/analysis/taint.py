"""Witness-taint and constant-time static analysis (rules R006–R009).

GZKP proves statements *without revealing the witness*; this engine is
the machine check that the repo keeps that promise.  It tracks
**secret** data — witness integers entering through the service wire
format, validation, circuit assignment and ``prove()``, plus the
trusted setup's toxic waste and the prover's zero-knowledge masks —
through assignments, containers, comprehensions, attribute stores and
calls, interprocedurally over the repo's call graph.

Lattice & propagation
---------------------

The lattice is two-point (``PUBLIC < SECRET``) but the engine evaluates
*symbolically*: an expression's taint is a set of tokens, each either
the concrete ``SOURCE`` token or ``("param", name)`` for "secret iff
this parameter is".  One pass over a function body therefore yields
both

* a **summary** — which parameters flow into the return value, and
  whether the return is secret regardless of arguments — and
* **propagation facts** — which callee parameters receive concretely
  secret arguments.

A worklist fixpoint over the call graph re-evaluates a function when
its may-secret parameter set or any callee summary changes.  Method
calls resolve by attribute name to every class method with that name
(a sound join); unknown callees conservatively map tainted arguments
to tainted results.  Attributes named like secrets (``.witness``,
``.trapdoor``) are sources anywhere; attributes a class's own methods
store secrets into are secret for that class; dict reads of the
``"witness"`` key are sources.

Escapes
-------

* ``@declassify("why")`` (:mod:`repro.analysis.declass`) marks a
  reviewed boundary: parameters are public inside, the return is
  public outside.  The engine recognises the decorator syntactically.
* ``# repro: allow[RXXX]`` suppresses one finding with a justification,
  on the flagged line, the line above, a decorator line, or anywhere
  inside the flagged multi-line statement (:mod:`repro.analysis.lint`).

Rules
-----

====  ==========================================================
R006  secret reaches a string sink: f-string/%%/.format/str() in a
      ``raise``, ``warnings.warn``, logging call, telemetry
      ``record_event(...)`` or span metadata
R007  secret-dependent branch, loop bound or comprehension filter in a
      kernel module (repro.ff/backend/msm/ntt/curves) — the
      constant-time discipline
R008  secret used as index/key into a non-secret container (cache
      keys, shard affinity, LRU keys are timing oracles)
R009  secret stored on a long-lived object that outlives the job
      (service caches, shard stats, module-level state)
====  ==========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import ModuleInfo, _dotted, iter_py_files
from repro.analysis.report import LintFinding

__all__ = ["TaintRegistry", "DEFAULT_REGISTRY", "TaintEngine", "run_taint",
           "TAINT_RULES", "SOURCE"]

#: the concrete "this value is secret" token; everything else in a
#: taint set is a ("param", name) symbol
SOURCE = "~secret~"

Token = object
Taint = FrozenSet[Token]

EMPTY: Taint = frozenset()
TOP: Taint = frozenset({SOURCE})


# -- declarative registry ----------------------------------------------------------


@dataclass(frozen=True)
class TaintRegistry:
    """What is secret, what launders, and where leaks matter.

    Everything is data so DESIGN.md can document the policy and tests
    can build narrow registries for fixtures.
    """

    #: attribute names whose *read* yields a secret, on any object
    #: (``request.witness``, ``setup.trapdoor``); method calls are
    #: resolved through summaries instead, so a method merely *named*
    #: ``witness`` is not a source
    secret_attrs: FrozenSet[str] = frozenset({"witness", "trapdoor"})
    #: string subscript keys whose read yields a secret
    #: (``task["witness"]``)
    secret_keys: FrozenSet[str] = frozenset({"witness"})
    #: parameters that are secret by *name* in any ``repro.*`` function
    #: — the repo-wide naming convention the engine leans on
    secret_param_names: FrozenSet[str] = frozenset({"witness"})
    #: (module-prefix, qualname-suffix, param names): extra explicit
    #: parameter sources
    param_sources: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
        ("repro.snark", "prove", ("assignment",)),
        ("repro.snark", "_prove_with_masks",
         ("assignment", "r_mask", "s_mask")),
        ("repro.snark", "compute_h", ("assignment",)),
        ("repro.snark", "is_satisfied", ("assignment",)),
        ("repro.snark", "abc_evaluations", ("assignment",)),
        ("repro.circuits", "CircuitBuilder.witness", ("value",)),
        ("repro.circuits", "boolean_witness", ("bit",)),
    )
    #: (module-prefix, call dotted-name suffix): calls whose return is
    #: secret — the setup's toxic waste and the prover's zk masks
    call_sources: Tuple[Tuple[str, str], ...] = (
        ("repro.snark", "Trapdoor"),
        # toxic-waste setup randomness and the prover's zk masks are
        # secret; verifier-side randomness (RLC coefficients) is not —
        # scoping by module keeps the verifier out of the secret set
        ("repro.snark.keys", "randrange"),
        ("repro.snark.prover", "randrange"),
    )
    #: (module-prefix, function name): functions whose *return value*
    #: is public by cryptographic construction even though secrets flow
    #: through them — the CRS leaves ``setup`` with the toxic waste
    #: destroyed, and the proof leaves ``prove`` statistically masked
    #: by the r/s randomizers (the zero-knowledge property itself).
    #: Internal flows are still tracked and checked.
    declassified_returns: Tuple[Tuple[str, str], ...] = (
        ("repro.snark", "setup"),
        ("repro.snark", "prove"),
        ("repro.snark", "_assemble"),
    )
    #: builtin-ish calls whose return is public even on secret
    #: arguments (structure, not value)
    sanitizer_calls: FrozenSet[str] = frozenset({
        "len", "type", "isinstance", "issubclass", "id", "callable",
        "hasattr", "range", "enumerate",
        # cryptographic digests are one-way: a witness digest is a job
        # fingerprint, not a witness leak (exported deliberately)
        "sha256", "sha384", "sha512", "blake2b", "blake2s",
    })
    #: attribute reads that project *public configuration* out of an
    #: otherwise-tainted object.  A context holding witness scalars
    #: also holds the curve/field it runs over; ``ctx.group.modulus``
    #: is a published curve parameter, not a secret, and without this
    #: projection every kernel's geometry would inherit the scalars'
    #: taint.  Magnitude/shape metadata is likewise value-independent.
    public_attrs: FrozenSet[str] = frozenset({
        "modulus", "field", "group", "curve", "fr", "fq", "geom", "nf",
        "degree", "modulus_coeffs", "backend", "dtype", "shape",
        "size", "ndim", "mag", "spec", "name",
        "circuit", "job_id", "ticket", "n_public", "public_inputs",
    })
    #: modules whose hot loops must stay input-oblivious (R007)
    kernel_modules: Tuple[str, ...] = (
        "repro.ff", "repro.backend", "repro.msm", "repro.ntt",
        "repro.curves",
    )
    #: class names whose instances outlive a single job (R009)
    long_lived_classes: FrozenSet[str] = frozenset({
        "ShardStats", "ShardMap", "Pipeline", "ProvingService",
        "WorkerState", "SetupBundle", "MsmContextCache",
        "ScopedContextCache", "BatchVerifyStage",
    })
    #: method names treated as logging sinks when called on an object
    #: whose name mentions log/logger
    logger_methods: FrozenSet[str] = frozenset({
        "debug", "info", "warning", "error", "exception", "critical",
        "log",
    })
    #: method names owned by builtin containers/strings/queues: calls
    #: through these never resolve to user functions by name (a repo
    #: full of ``.get``/``.update``/``.items`` would otherwise join
    #: every cache class's summary into every dict call site)
    generic_methods: FrozenSet[str] = frozenset({
        "get", "items", "keys", "values", "pop", "popitem", "append",
        "extend", "insert", "update", "setdefault", "copy", "clear",
        "sort", "reverse", "split", "rsplit", "join", "strip",
        "lstrip", "rstrip", "startswith", "endswith", "encode",
        "decode", "format", "lower", "upper", "count", "index",
        "remove", "discard", "read", "write", "close", "flush", "put",
        "get_nowait", "put_nowait", "submit", "result", "done",
        "cancel", "acquire", "release", "hexdigest", "digest",
        "to_bytes", "from_bytes", "bit_length",
        # arithmetic verbs: ``g1.add``/``field.mul`` appear on dozens
        # of unrelated classes (curve groups, field ops, vectors,
        # pipelines, sets); a name join here fuses their summaries.
        # Receivers with a static type still resolve precisely —
        # typed candidates take precedence over this exclusion.
        "add", "sub", "mul", "div", "neg", "square", "double", "inv",
        "scalar_mul",
    })


DEFAULT_REGISTRY = TaintRegistry()


# -- rule catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class TaintRule:
    code: str
    title: str


TAINT_RULES: Tuple[TaintRule, ...] = (
    TaintRule("R006", "secret value reaches a string/telemetry sink"),
    TaintRule("R007", "secret-dependent control flow in a kernel module"),
    TaintRule("R008", "secret used as container index/key"),
    TaintRule("R009", "secret stored on a long-lived object"),
)
TAINT_RULE_CODES = tuple(r.code for r in TAINT_RULES)


# -- function model ----------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One analyzed function/method with its resolved identity."""

    qual: str                 # "repro.mod.Class.name" / "repro.mod.name"
    name: str
    class_name: Optional[str]
    class_qual: Optional[str]  # "repro.mod.Class"
    mod: ModuleInfo
    node: ast.AST             # FunctionDef | AsyncFunctionDef
    params: List[str] = field(default_factory=list)
    declassified: bool = False
    declass_rules: Tuple[str, ...] = ()
    min_args: int = 0             # required params (no default)
    max_pos: Optional[int] = None  # positional slots; None = *args
    is_static: bool = False       # @staticmethod: no self to skip

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def boundary(self) -> bool:
        """Bare ``@declassify`` is a full taint boundary; the
        rules-narrowed form only mutes the named rules inside."""
        return self.declassified and not self.declass_rules


@dataclass
class Summary:
    """Callee-side effect of one function on taint."""

    param_to_return: Set[str] = field(default_factory=set)
    secret_return: bool = False

    def snapshot(self) -> Tuple[FrozenSet[str], bool]:
        return frozenset(self.param_to_return), self.secret_return


def _decorator_name(dec: ast.AST) -> str:
    if isinstance(dec, ast.Call):
        dec = dec.func
    return _dotted(dec).split(".")[-1]


def _declass_info(node) -> Tuple[bool, Tuple[str, ...]]:
    for dec in getattr(node, "decorator_list", ()):
        if _decorator_name(dec) == "declassify":
            rules: Tuple[str, ...] = ()
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if (kw.arg == "rules"
                            and isinstance(kw.value, (ast.Tuple, ast.List))):
                        rules = tuple(
                            e.value for e in kw.value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str))
            return True, rules
    return False, ()


# -- the engine --------------------------------------------------------------------


def _ann_class(node: Optional[ast.AST]) -> Optional[str]:
    """Class name named by an annotation AST, or None.

    ``PrimeField`` / ``ntt.PolyStage`` / ``"PrimeField"`` /
    ``Optional[PrimeField]`` all resolve; container annotations
    (``List[int]``, ``Dict[...]``) do not — their method calls are
    builtin-container operations, not repo methods."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip().split("[")[0]
        return name.split(".")[-1] or None
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value).split(".")[-1]
        if head == "Optional":
            return _ann_class(node.slice)
        return None
    name = _dotted(node).split(".")[-1]
    return name or None


class TaintEngine:
    """Interprocedural taint over a set of parsed ``repro.*`` modules."""

    #: local iteration cap per function body (loops re-feed the env)
    _LOCAL_PASSES = 4
    #: global worklist cap — a backstop, not a tuning knob
    _MAX_ROUNDS = 40

    def __init__(self, mods: Sequence[ModuleInfo],
                 registry: TaintRegistry = DEFAULT_REGISTRY):
        self.registry = registry
        # repro.analysis is exempt from its own scan (as with R001):
        # it handles no witness data, and its abstract kernel models
        # (_MontReplay.mul/add) share names with real
        # kernel ops — analyzing them would join certifier params into
        # every kernel call site's secret set.
        self.mods = [m for m in mods
                     if (m.module.startswith("repro.")
                         or m.module == "repro")
                     and not m.module.startswith("repro.analysis")]
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple name -> [qual, ...] for call resolution
        self.by_name: Dict[str, List[str]] = {}
        self.summaries: Dict[str, Summary] = {}
        #: may-secret parameter names per function (grows monotonically)
        self.param_secret: Dict[str, Set[str]] = {}
        #: class qual -> attribute names its methods store secrets into
        self.class_secret_attrs: Dict[str, Set[str]] = {}
        #: module -> top-level (module-global) names
        self.module_globals: Dict[str, Set[str]] = {}
        #: called name -> set of function quals containing such a call
        #: (reverse call index, built once; resolution is by name so
        #: this is exactly the caller set the worklist needs)
        self.callers: Dict[str, Set[str]] = {}
        #: class name -> [__init__ quals]: ClassName(...) calls bind
        #: arguments to the constructor's parameters
        self.ctors: Dict[str, List[str]] = {}
        #: class name -> declared field order for dataclass-style
        #: classes with no explicit __init__ (record construction)
        self.record_fields: Dict[str, List[str]] = {}
        #: class name -> {method name -> qual} (annotation-typed calls)
        self.class_methods: Dict[str, Dict[str, str]] = {}
        #: fn qual -> {param name -> possible class names}
        self.param_types: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: class name -> {attr name -> possible class names}, from
        #: ``self.x = ...`` in __init__, class-body AnnAssigns, and
        #: property return annotations
        self.attr_types: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: fn qual -> class names the function can return (annotation,
        #: or inferred from ``return ClassName(...)`` statements)
        self.return_classes: Dict[str, Tuple[str, ...]] = {}
        #: class name -> direct base class names
        self.class_bases: Dict[str, List[str]] = {}
        #: every class name defined in the analyzed modules
        self.known_classes: Set[str] = set()
        #: module -> {local alias -> imported dotted target}: calls
        #: through a module alias resolve exactly (or, for external
        #: modules like numpy, fold conservatively) instead of name-
        #: joining into same-named methods repo-wide
        self.import_aliases: Dict[str, Dict[str, str]] = {}
        self._index()
        self._close_hierarchy()
        self._type_attrs()

    # -- indexing ---------------------------------------------------------------

    def _index(self) -> None:
        for mod in self.mods:
            top_names: Set[str] = set()
            aliases: Dict[str, str] = {}
            for stmt in ast.walk(mod.tree):
                if isinstance(stmt, ast.Import):
                    for a in stmt.names:
                        aliases[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    if stmt.module and stmt.level == 0:
                        for a in stmt.names:
                            if a.name != "*":
                                aliases[a.asname or a.name] = (
                                    f"{stmt.module}.{a.name}")
            self.import_aliases[mod.module] = aliases
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                    for t in targets:
                        if isinstance(t, ast.Name):
                            top_names.add(t.id)
            self.module_globals[mod.module] = top_names
            self._index_body(mod, mod.tree.body, class_name=None,
                             prefix=mod.module)

    def _index_body(self, mod: ModuleInfo, body, class_name: Optional[str],
                    prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                args = stmt.args
                params = ([a.arg for a in args.posonlyargs]
                          + [a.arg for a in args.args]
                          + [a.arg for a in args.kwonlyargs])
                if args.vararg:
                    params.append(args.vararg.arg)
                if args.kwarg:
                    params.append(args.kwarg.arg)
                declass, declass_rules = _declass_info(stmt)
                n_pos = len(args.posonlyargs) + len(args.args)
                info = FunctionInfo(
                    qual=qual, name=stmt.name, class_name=class_name,
                    class_qual=prefix if class_name else None,
                    mod=mod, node=stmt, params=params,
                    declassified=declass, declass_rules=declass_rules,
                    min_args=(n_pos - len(args.defaults)
                              + sum(1 for d in args.kw_defaults
                                    if d is None)),
                    max_pos=None if args.vararg else n_pos,
                    is_static=any(
                        _dotted(d).split(".")[-1] == "staticmethod"
                        for d in stmt.decorator_list),
                )
                self.functions[qual] = info
                self.by_name.setdefault(stmt.name, []).append(qual)
                if class_name:
                    self.class_methods.setdefault(
                        class_name, {}).setdefault(stmt.name, qual)
                    if stmt.returns is not None and any(
                            _dotted(d).split(".")[-1] in
                            ("property", "cached_property")
                            for d in stmt.decorator_list):
                        cls = _ann_class(stmt.returns)
                        if cls:
                            self.attr_types.setdefault(
                                class_name, {}).setdefault(
                                    stmt.name, (cls,))
                ptypes: Dict[str, Tuple[str, ...]] = {}
                for a in (list(args.posonlyargs) + list(args.args)
                          + list(args.kwonlyargs)):
                    cls = _ann_class(a.annotation)
                    if cls:
                        ptypes[a.arg] = (cls,)
                if ptypes:
                    self.param_types[qual] = ptypes
                rc = _ann_class(stmt.returns)
                if rc:
                    self.return_classes[qual] = (rc,)
                else:
                    built: Set[str] = set()
                    plain = False
                    for sub in ast.walk(stmt):
                        if (isinstance(sub, ast.Return)
                                and sub.value is not None):
                            if isinstance(sub.value, ast.Call):
                                n = _dotted(sub.value.func).split(".")[-1]
                                if n and n[:1].isupper():
                                    built.add(n)
                                else:
                                    plain = True
                            elif not (isinstance(sub.value, ast.Constant)
                                      and sub.value.value is None):
                                plain = True
                    if built and not plain:
                        self.return_classes[qual] = tuple(sorted(built))
                self.summaries[qual] = Summary()
                self.param_secret[qual] = set()
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        name = _dotted(sub.func).split(".")[-1]
                        if name:
                            self.callers.setdefault(name, set()).add(qual)
                # nested defs analyzed too (conservatively by name)
                self._index_body(mod, stmt.body, class_name=class_name,
                                 prefix=qual)
            elif isinstance(stmt, ast.ClassDef):
                cls_prefix = f"{prefix}.{stmt.name}"
                self.known_classes.add(stmt.name)
                self.class_bases.setdefault(stmt.name, []).extend(
                    b for b in (_dotted(base).split(".")[-1]
                                for base in stmt.bases) if b)
                amap = self.attr_types.setdefault(stmt.name, {})
                for item in stmt.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        cls = _ann_class(item.annotation)
                        if cls:
                            amap.setdefault(item.target.id, (cls,))
                self._index_body(mod, stmt.body, class_name=stmt.name,
                                 prefix=cls_prefix)
                init_qual = f"{cls_prefix}.__init__"
                if init_qual in self.functions:
                    self.ctors.setdefault(stmt.name, []).append(init_qual)
                else:
                    fields = [
                        item.target.id for item in stmt.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                    ]
                    if fields:
                        self.record_fields.setdefault(
                            stmt.name, []).extend(
                                f for f in fields
                                if f not in self.record_fields.get(
                                    stmt.name, ()))

    def _close_hierarchy(self) -> None:
        """``subclasses[C]`` = C plus every transitive subclass;
        ``base_closure[C]`` = C's transitive bases (method inheritance
        lookup).  Only classes defined in analyzed modules count."""
        self.subclasses: Dict[str, Set[str]] = {
            c: {c} for c in self.known_classes}
        self.base_closure: Dict[str, List[str]] = {}
        for c in self.known_classes:
            seen: List[str] = []
            frontier = list(self.class_bases.get(c, ()))
            while frontier:
                b = frontier.pop(0)
                if b in seen or b not in self.known_classes:
                    continue
                seen.append(b)
                self.subclasses.setdefault(b, {b}).add(c)
                frontier.extend(self.class_bases.get(b, ()))
            self.base_closure[c] = seen

    def _type_attrs(self) -> None:
        """Second indexing pass: ``self.x = <expr>`` in each __init__
        records the attribute's possible classes — from an annotated
        parameter, a direct ``ClassName(...)`` construction, or a
        factory call whose return classes were inferred.  Runs after
        the whole repo is indexed so factories resolve cross-module."""
        for qual, fn in self.functions.items():
            if fn.name != "__init__" or not fn.class_name:
                continue
            ptypes = self.param_types.get(qual, {})
            amap = self.attr_types.setdefault(fn.class_name, {})
            for sub in fn.node.body:
                if not (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Attribute)
                        and isinstance(sub.targets[0].value, ast.Name)
                        and sub.targets[0].value.id == "self"):
                    continue
                attr = sub.targets[0].attr
                classes: Optional[Tuple[str, ...]] = None
                if (isinstance(sub.value, ast.Name)
                        and sub.value.id in ptypes):
                    classes = ptypes[sub.value.id]
                elif isinstance(sub.value, ast.Call):
                    classes = self.call_classes(sub.value)
                if classes:
                    amap.setdefault(attr, classes)

    def call_classes(self, node: ast.Call) -> Optional[Tuple[str, ...]]:
        """Classes a call expression can evaluate to: a construction,
        or every return class of the by-name callee candidates (None
        when any candidate's returns are untyped)."""
        base = _dotted(node.func).split(".")[-1]
        if base in self.known_classes:
            return (base,)
        cands = self.by_name.get(base)
        if not cands:
            return None
        out: Set[str] = set()
        for q in cands:
            rc = self.return_classes.get(q)
            if not rc:
                return None
            out.update(rc)
        return tuple(sorted(out)) if out else None

    # -- seeds ------------------------------------------------------------------

    def _seed_params(self, fn: FunctionInfo) -> Set[str]:
        """Parameters secret by registry policy (before propagation)."""
        if fn.boundary:
            return set()
        reg = self.registry
        seeds = {p for p in fn.params if p in reg.secret_param_names}
        for mod_prefix, suffix, params in reg.param_sources:
            if not fn.mod.module.startswith(mod_prefix):
                continue
            if fn.qual.endswith("." + suffix) or fn.name == suffix:
                seeds.update(p for p in params if p in fn.params)
        return seeds

    # -- fixpoint ---------------------------------------------------------------

    def solve(self) -> None:
        for qual, fn in self.functions.items():
            self.param_secret[qual] |= self._seed_params(fn)
        dirty = set(self.functions)
        rounds = 0
        while dirty and rounds < self._MAX_ROUNDS:
            rounds += 1
            batch, dirty = dirty, set()
            for qual in sorted(batch):
                fn = self.functions[qual]
                before_summary = self.summaries[qual].snapshot()
                changed_callees = self._eval_function(fn, check=None)
                dirty |= changed_callees
                if self.summaries[qual].snapshot() != before_summary:
                    # conservative: callers resolve by name, so any
                    # caller of this name may depend on the new summary
                    dirty |= set(self._callers_of(fn.name))

    def _callers_of(self, name: str) -> Iterable[str]:
        return self.callers.get(name, ())

    # -- checking ---------------------------------------------------------------

    def check(self, rules: Optional[Sequence[str]] = None
              ) -> List[LintFinding]:
        wanted = set(rules or TAINT_RULE_CODES)
        findings: List[LintFinding] = []
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            sink = _RuleSink(self, fn, wanted)
            self._eval_function(fn, check=sink)
            findings.extend(sink.findings)
        kept = [
            f for f in findings
            if not self._mod_by_path(f.path).suppressed(f.code, f.line)
        ]
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        # dedupe (a statement can be revisited through loop passes)
        seen = set()
        out = []
        for f in kept:
            key = (f.path, f.line, f.col, f.code, f.message)
            if key not in seen:
                seen.add(key)
                out.append(f)
        return out

    def _mod_by_path(self, path: str) -> ModuleInfo:
        for m in self.mods:
            if str(m.path) == path:
                return m
        raise KeyError(path)

    # -- function evaluation ----------------------------------------------------

    def _eval_function(self, fn: FunctionInfo,
                       check: Optional["_RuleSink"]) -> Set[str]:
        """One abstract pass over ``fn``'s body.  Returns the callees
        whose may-secret parameter set grew (for the worklist)."""
        ev = _Evaluator(self, fn, check)
        env: Dict[str, Taint] = {}
        psec = self.param_secret[fn.qual]
        for p in fn.params:
            t: Set[Token] = set() if fn.boundary else {("param", p)}
            # Concrete SOURCE seeding happens only in *checking* passes:
            # summaries must stay purely symbolic, or one secret caller
            # would flip ``secret_return`` and poison every other caller
            # of the same function (context-insensitivity amplifier).
            if check is not None and p in psec and not fn.boundary:
                t.add(SOURCE)
            env[p] = frozenset(t)
        for _ in range(self._LOCAL_PASSES):
            before = dict(env)
            for stmt in fn.node.body:
                ev.stmt(stmt, env)
            if env == before:
                break
        if check is not None:
            # checking passes run with SOURCE-seeded params; folding
            # their return taint into the summary would concretize it
            # and poison later functions' checks (order-dependently)
            return ev.changed_callees
        summary = self.summaries[fn.qual]
        public_return = fn.boundary or any(
            fn.mod.module.startswith(mod_prefix) and fn.name == name
            for mod_prefix, name in self.registry.declassified_returns)
        if not public_return:
            for tok in ev.return_taint:
                if tok == SOURCE:
                    summary.secret_return = True
                elif isinstance(tok, tuple) and tok[0] == "param":
                    summary.param_to_return.add(tok[1])
        return ev.changed_callees


class _RuleSink:
    """Collects rule findings during a checking evaluation pass."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo,
                 wanted: Set[str]):
        self.engine = engine
        self.fn = fn
        self.wanted = wanted
        self.findings: List[LintFinding] = []

    def enabled(self, code: str) -> bool:
        if code not in self.wanted:
            return False
        if self.fn.declassified:
            rules = self.fn.declass_rules
            # bare @declassify exempts everything; rules=(...) narrows
            if not rules or code in rules:
                return False
        return True

    def emit(self, code: str, node: ast.AST, message: str) -> None:
        if not self.enabled(code):
            return
        self.findings.append(LintFinding(
            code, str(self.fn.mod.path), getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0) + 1, message))


def _shape_test(node: ast.AST) -> bool:
    """True when a branch test observes only *presence or emptiness*
    (``if xs:``, ``if not xs:``, ``x is None``, ``a and not b``).

    Witness length and presence are part of the public statement (the
    wire format carries ``n_witness`` in the clear), so guards on shape
    are not secret-dependent control flow; only tests that *compute*
    with the value (``k & 1``, ``s != 0``, ``digits[i] < 0``) are.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _shape_test(node.operand)
    if isinstance(node, ast.Compare):
        return all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
    if isinstance(node, ast.BoolOp):
        return all(_shape_test(v) for v in node.values)
    return False


class _Evaluator:
    """Statement/expression taint transfer for one function body."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo,
                 check: Optional[_RuleSink]):
        self.engine = engine
        self.reg = engine.registry
        self.fn = fn
        self.check = check
        self.return_taint: Set[Token] = set()
        self.changed_callees: Set[str] = set()
        #: local name -> statically-known classes (flow-insensitive,
        #: last assignment wins; used only to narrow method joins)
        self.types: Dict[str, Optional[Tuple[str, ...]]] = {}
        self.in_kernel = fn.mod.module.startswith(
            self.reg.kernel_modules)

    # -- concreteness -----------------------------------------------------------

    def secret(self, t: Taint) -> bool:
        """Is this taint concretely secret in the current context?"""
        if SOURCE in t:
            return True
        psec = self.engine.param_secret[self.fn.qual]
        return any(isinstance(tok, tuple) and tok[0] == "param"
                   and tok[1] in psec for tok in t)

    # -- statements -------------------------------------------------------------

    def stmt(self, node: ast.stmt, env: Dict[str, Taint]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return      # nested defs are separate functions
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.return_taint |= self.expr(node.value, env)
            return
        if isinstance(node, ast.Assign):
            t = self.expr(node.value, env)
            for target in node.targets:
                self.assign(target, t, env, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign(node.target, self.expr(node.value, env), env,
                            node.value)
            return
        if isinstance(node, ast.AugAssign):
            t = self.expr(node.value, env) | self.expr(node.target, env)
            self.assign(node.target, t, env, node.value)
            return
        if isinstance(node, ast.Expr):
            self.expr(node.value, env)
            return
        if isinstance(node, ast.Raise):
            self._check_raise(node, env)
            if node.exc is not None:
                self.expr(node.exc, env)
            return
        if isinstance(node, (ast.If,)):
            t = self.expr(node.test, env)
            if (self.check and self.in_kernel and self.secret(t)
                    and not _shape_test(node.test)):
                self.check.emit(
                    "R007", node.test,
                    f"secret-dependent branch in kernel module "
                    f"'{self.fn.mod.module}' ({self.fn.name}): kernel "
                    "control flow must be witness-oblivious",
                )
            for child in node.body + node.orelse:
                self.stmt(child, env)
            return
        if isinstance(node, ast.While):
            t = self.expr(node.test, env)
            if (self.check and self.in_kernel and self.secret(t)
                    and not _shape_test(node.test)):
                self.check.emit(
                    "R007", node.test,
                    f"secret-dependent loop condition in kernel module "
                    f"'{self.fn.mod.module}' ({self.fn.name}): iteration "
                    "counts must not depend on witness data",
                )
            for child in node.body + node.orelse:
                self.stmt(child, env)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = self.expr(node.iter, env)
            target_taint = it
            # `for i, v in enumerate(X)`: the index is public even when
            # X is secret; the element carries X's taint
            if (isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name)
                    and node.iter.func.id == "enumerate"
                    and isinstance(node.target, ast.Tuple)
                    and len(node.target.elts) == 2 and node.iter.args):
                inner = self.expr(node.iter.args[0], env)
                self.assign(node.target.elts[0], EMPTY, env, None)
                self.assign(node.target.elts[1], inner, env, None)
            elif (isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name)
                    and node.iter.func.id == "range"):
                bound = EMPTY
                for a in node.iter.args:
                    bound |= self.expr(a, env)
                if self.check and self.in_kernel and self.secret(bound):
                    self.check.emit(
                        "R007", node.iter,
                        f"secret-dependent loop bound in kernel module "
                        f"'{self.fn.mod.module}' ({self.fn.name}): "
                        "trip counts must not depend on witness data",
                    )
                self.assign(node.target, bound, env, None)
            else:
                self.assign(node.target, target_taint, env, None)
            for child in node.body + node.orelse:
                self.stmt(child, env)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                t = self.expr(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, t, env, None)
            for child in node.body:
                self.stmt(child, env)
            return
        if isinstance(node, ast.Try):
            for child in (node.body + node.orelse + node.finalbody):
                self.stmt(child, env)
            for handler in node.handlers:
                for child in handler.body:
                    self.stmt(child, env)
            return
        if isinstance(node, ast.Assert):
            self.expr(node.test, env)
            if node.msg is not None:
                self.expr(node.msg, env)
            return
        if isinstance(node, (ast.Delete, ast.Pass, ast.Break,
                             ast.Continue, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal)):
            return
        # anything else: walk expressions conservatively
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child, env)
            elif isinstance(child, ast.stmt):
                self.stmt(child, env)

    # -- assignment targets -----------------------------------------------------

    def assign(self, target: ast.AST, t: Taint, env: Dict[str, Taint],
               value_node: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = env.get(target.id, EMPTY) | t
            if value_node is not None:
                self.types[target.id] = self._static_type(value_node)
            if (self.check and self.secret(t)
                    and target.id in self.engine.module_globals.get(
                        self.fn.mod.module, ())):
                self.check.emit(
                    "R009", target,
                    f"secret assigned to module-level '{target.id}': "
                    "module globals outlive the job",
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self.assign(inner, t, env, value_node)
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                if self.secret(t) and self.fn.class_qual:
                    attrs = self.engine.class_secret_attrs.setdefault(
                        self.fn.class_qual, set())
                    if target.attr not in attrs:
                        attrs.add(target.attr)
                        # class attr taint feeds sibling methods
                        self.changed_callees.update(
                            q for q, f in self.engine.functions.items()
                            if f.class_qual == self.fn.class_qual)
                if (self.check and self.secret(t) and self.fn.class_name
                        in self.reg.long_lived_classes):
                    self.check.emit(
                        "R009", target,
                        f"secret stored on long-lived "
                        f"'{self.fn.class_name}.{target.attr}': it "
                        "outlives the job (scrub or keep secrets "
                        "job-scoped)",
                    )
            else:
                base_t = self.expr(base, env)
                if (self.check and self.secret(t)
                        and isinstance(base, ast.Name)
                        and base.id in self.engine.module_globals.get(
                            self.fn.mod.module, ())
                        and not self.secret(base_t)):
                    self.check.emit(
                        "R009", target,
                        f"secret stored on module-level "
                        f"'{_dotted(target)}': module globals outlive "
                        "the job",
                    )
            return
        if isinstance(target, ast.Subscript):
            key_t = self.expr(target.slice, env)
            base_t = self.expr(target.value, env)
            if (self.check and self.secret(key_t)
                    and not self.secret(base_t)):
                self.check.emit(
                    "R008", target,
                    f"secret used as store key into non-secret "
                    f"container '{_dotted(target.value)}': secret-keyed "
                    "lookups are timing oracles",
                )
            secret_key_slot = (isinstance(target.slice, ast.Constant)
                               and isinstance(target.slice.value, str)
                               and target.slice.value
                               in self.reg.secret_keys)
            if (isinstance(target.value, ast.Name) and self.secret(t)
                    and not secret_key_slot):
                name = target.value.id
                env[name] = env.get(name, EMPTY) | t
                if (self.check and name in
                        self.engine.module_globals.get(
                            self.fn.mod.module, ())):
                    self.check.emit(
                        "R009", target,
                        f"secret stored into module-level container "
                        f"'{name}': module globals outlive the job",
                    )
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, t, env, value_node)

    # -- expressions ------------------------------------------------------------

    def expr(self, node: ast.AST, env: Dict[str, Taint]) -> Taint:
        if isinstance(node, ast.Name):
            return env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Attribute):
            base_t = self.expr(node.value, env)
            if node.attr in self.reg.public_attrs:
                return EMPTY    # config projection off a tainted object
            out = set(base_t)
            if node.attr in self.reg.secret_attrs:
                out.add(SOURCE)
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "self" and self.fn.class_qual
                    and node.attr in self.engine.class_secret_attrs.get(
                        self.fn.class_qual, ())):
                out.add(SOURCE)
            return frozenset(out)
        if isinstance(node, ast.Subscript):
            base_t = self.expr(node.value, env)
            key_t = self.expr(node.slice, env)
            out = set(base_t)
            if (isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)
                    and node.slice.value in self.reg.secret_keys):
                out.add(SOURCE)
            if (self.check and isinstance(node.ctx, ast.Load)
                    and self.secret(key_t) and not self.secret(base_t)):
                self.check.emit(
                    "R008", node,
                    f"secret used as index/key into non-secret "
                    f"container '{_dotted(node.value)}': secret-keyed "
                    "lookups are timing oracles",
                )
            return frozenset(out | key_t)
        if isinstance(node, ast.Call):
            return self.call(node, env)
        if isinstance(node, ast.BinOp):
            return self.expr(node.left, env) | self.expr(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand, env)
        if isinstance(node, ast.BoolOp):
            out: Taint = EMPTY
            for v in node.values:
                out |= self.expr(v, env)
            return out
        if isinstance(node, ast.Compare):
            out = self.expr(node.left, env)
            for comp in node.comparators:
                out |= self.expr(comp, env)
            return out
        if isinstance(node, ast.IfExp):
            test_t = self.expr(node.test, env)
            if (self.check and self.in_kernel and self.secret(test_t)
                    and not _shape_test(node.test)):
                self.check.emit(
                    "R007", node.test,
                    f"secret-dependent conditional expression in kernel "
                    f"module '{self.fn.mod.module}' ({self.fn.name})",
                )
            return (test_t | self.expr(node.body, env)
                    | self.expr(node.orelse, env))
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    out |= self.expr(v.value, env)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.expr(node.value, env)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                out |= self.expr(inner, env)
            return out
        if isinstance(node, ast.Dict):
            # record sensitivity: a value stored under a *declared*
            # secret key is carried by the key registry (reads of that
            # key re-derive SOURCE), so it must not taint the whole
            # record — {"witness": w, "curve": c} leaves "curve" clean
            out = EMPTY
            for k, v in zip(node.keys, node.values):
                if k is not None:
                    out |= self.expr(k, env)
                v_taint = self.expr(v, env)
                if not (isinstance(k, ast.Constant)
                        and isinstance(k.value, str)
                        and k.value in self.reg.secret_keys):
                    out |= v_taint
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension(node, env)
        if isinstance(node, ast.Starred):
            return self.expr(node.value, env)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.expr(node.value, env)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                return self.expr(node.value, env)
            return EMPTY
        if isinstance(node, ast.NamedExpr):
            t = self.expr(node.value, env)
            self.assign(node.target, t, env, node.value)
            return t
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Slice):
            out = EMPTY
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out |= self.expr(part, env)
            return out
        # unmodelled node: conservative union of children
        out = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.expr(child, env)
        return out

    def _comprehension(self, node, env: Dict[str, Taint]) -> Taint:
        inner = dict(env)
        for gen in node.generators:
            it = self.expr(gen.iter, inner)
            # mirror the for-loop enumerate special case
            if (isinstance(gen.iter, ast.Call)
                    and isinstance(gen.iter.func, ast.Name)
                    and gen.iter.func.id == "enumerate"
                    and isinstance(gen.target, ast.Tuple)
                    and len(gen.target.elts) == 2 and gen.iter.args):
                src = self.expr(gen.iter.args[0], inner)
                self.assign(gen.target.elts[0], EMPTY, inner, None)
                self.assign(gen.target.elts[1], src, inner, None)
            else:
                self.assign(gen.target, it, inner, None)
            for cond in gen.ifs:
                t = self.expr(cond, inner)
                if (self.check and self.in_kernel and self.secret(t)
                        and not _shape_test(cond)):
                    self.check.emit(
                        "R007", cond,
                        f"secret-dependent comprehension filter in "
                        f"kernel module '{self.fn.mod.module}' "
                        f"({self.fn.name}): filtered sizes leak witness "
                        "data",
                    )
        if isinstance(node, ast.DictComp):
            return (self.expr(node.key, inner)
                    | self.expr(node.value, inner))
        return self.expr(node.elt, inner)

    # -- calls ------------------------------------------------------------------

    _MUTATORS = frozenset({"append", "add", "extend", "insert", "update",
                           "put", "setdefault", "push"})
    _KEY_LOOKUPS = frozenset({"get", "pop", "setdefault", "put"})

    def call(self, node: ast.Call, env: Dict[str, Taint]) -> Taint:
        func = node.func
        arg_taints = [self.expr(a, env) for a in node.args]
        kw_taints = {kw.arg: self.expr(kw.value, env)
                     for kw in node.keywords}
        all_args: Taint = EMPTY
        for t in arg_taints:
            all_args |= t
        for t in kw_taints.values():
            all_args |= t

        dotted = _dotted(func)
        base_name = dotted.split(".")[-1] if dotted else ""
        if (dotted == "cls" and self.fn.class_name
                and self.fn.params and self.fn.params[0] == "cls"):
            base_name = self.fn.class_name   # classmethod construction
        receiver_t: Taint = EMPTY
        is_method_call = isinstance(func, ast.Attribute)
        recv_type: Optional[Tuple[str, ...]] = None
        if is_method_call:
            receiver_t = self.expr(func.value, env)
            recv_type = self._receiver_type(func.value)

        # sinks first: they see argument taint before laundering
        self._check_call_sinks(node, func, dotted, base_name, arg_taints,
                               kw_taints, receiver_t, env)

        # sanitizers: structural reads are public
        if not is_method_call and base_name in self.reg.sanitizer_calls:
            return EMPTY

        # container mutators taint their receiver
        if (is_method_call and base_name in self._MUTATORS
                and self.secret(all_args)):
            self._taint_receiver(func.value, all_args, env)

        # secret-keyed .get()/.pop() on a public container: R008
        if (self.check and is_method_call
                and base_name in self._KEY_LOOKUPS and arg_taints
                and self.secret(arg_taints[0])
                and not self.secret(receiver_t)):
            self.check.emit(
                "R008", node,
                f"secret used as key in '{dotted}(...)' on a non-secret "
                "container: secret-keyed lookups are timing oracles",
            )

        out: Set[Token] = set(receiver_t)

        # registry call sources (toxic waste, zk masks)
        for mod_prefix, suffix in self.reg.call_sources:
            if (self.fn.mod.module.startswith(mod_prefix)
                    and base_name == suffix):
                out.add(SOURCE)

        # resolve candidates and apply summaries.  ClassName(...) binds
        # to the class's __init__; builtin-container method names and
        # dunders never resolve by name (they would join every cache
        # class's summary into every dict/list call in the repo)
        ctor = not is_method_call and base_name in self.engine.ctors
        record = (not is_method_call
                  and base_name in self.engine.record_fields)
        typed = (self._typed_candidates(recv_type, base_name)
                 if is_method_call else None)
        mod_target = (self._module_target(func.value, env)
                      if is_method_call else None)
        if mod_target is not None:
            # call through a module alias: resolve exactly within the
            # analyzed modules, or treat as an external call
            # (``_np.zeros(...)`` must not join ``FieldVector.zeros``)
            qual = f"{mod_target}.{base_name}"
            if qual in self.engine.functions:
                cands = [qual]
            elif f"{qual}.__init__" in self.engine.functions:
                cands = [f"{qual}.__init__"]
            else:
                return frozenset(out | all_args)
        elif ctor:
            cands = self.engine.ctors[base_name]
        elif typed is not None:
            # statically-typed receiver: resolve within its hierarchy
            # only — never the repo-wide name join (``field.mul`` must
            # not bind to ``CircuitBuilder.mul``)
            cands = typed
        elif record or (base_name in self.reg.generic_methods
                        or base_name.startswith("__")):
            cands = ()
        else:
            # name join: keep only arity-compatible candidates of the
            # same calling shape — ``eng.ntt(vec)`` must not bind
            # ``vec`` to the first positional of an unrelated
            # three-arg ``ntt``, and a plain ``intt(field, vals)``
            # must not bind ``vals`` onto a *method*'s ``field`` slot
            # (no receiver means ``self`` is not skipped)
            cands = [q for q in self.engine.by_name.get(base_name, ())
                     if (self.engine.functions[q].is_method
                         == is_method_call
                         and self._arity_ok(self.engine.functions[q],
                                            node, is_method_call))]
        if cands:
            for qual in cands:
                callee = self.engine.functions[qual]
                summary = self.engine.summaries[qual]
                if summary.secret_return:
                    out.add(SOURCE)
                binding = self._bind(callee, node, is_method_call or ctor,
                                     arg_taints, kw_taints)
                for pname, t in binding:
                    if pname in summary.param_to_return:
                        out |= t
                    if t and self.secret(t) and not callee.boundary:
                        psec = self.engine.param_secret[qual]
                        if pname not in psec:
                            psec.add(pname)
                            self.changed_callees.add(qual)
            if ctor:
                fields = self.engine.functions[cands[0]].params[1:]
                out |= self._record_taint(arg_taints, kw_taints, fields)
        elif record:
            out |= self._record_taint(
                arg_taints, kw_taints,
                self.engine.record_fields[base_name])
        else:
            # unknown callee: tainted in, tainted out
            out |= all_args
        return frozenset(out)

    def _receiver_type(self, rv: ast.AST) -> Optional[Tuple[str, ...]]:
        return self._static_type(rv)

    def _module_target(self, node: ast.AST,
                       env: Dict[str, Taint]) -> Optional[str]:
        """Dotted import target when ``node`` names a module alias
        (``wire`` after ``from repro.service import wire``, ``_np``
        after ``import numpy as _np``); None for ordinary receivers.
        A local assignment shadowing the alias wins."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id in env:
            return None
        base = self.engine.import_aliases.get(self.fn.mod.module,
                                              {}).get(node.id)
        if base is None:
            return None
        return ".".join([base] + list(reversed(parts)))

    def _arity_ok(self, callee: FunctionInfo, node: ast.Call,
                  is_method_call: bool) -> bool:
        """Could this call site plausibly bind to ``callee``?  Only
        clear mismatches are rejected; ``*args`` / ``**kw`` at either
        end disables the check."""
        if any(isinstance(a, ast.Starred) for a in node.args):
            return True
        if any(kw.arg is None for kw in node.keywords):
            return True
        skip = (1 if (callee.is_method and not callee.is_static
                      and is_method_call) else 0)
        npos = len(node.args)
        if npos + len(node.keywords) < callee.min_args - skip:
            return False
        if callee.max_pos is not None and npos > callee.max_pos - skip:
            return False
        return True

    def _static_type(self, node: ast.AST) -> Optional[Tuple[str, ...]]:
        """Statically-known classes of an expression: ``self``, an
        annotated parameter, a typed local (``o = self.ops``), an
        attribute whose types were recorded from __init__ / a
        class-body AnnAssign / a property return annotation, or a
        construction / typed-factory call."""
        eng = self.engine
        if isinstance(node, ast.Name):
            if node.id in self.types:
                return self.types[node.id]
            if node.id == "self" and self.fn.class_name:
                return (self.fn.class_name,)
            return eng.param_types.get(self.fn.qual, {}).get(node.id)
        if isinstance(node, ast.Attribute):
            owners = self._static_type(node.value)
            if owners:
                out: Set[str] = set()
                for owner in owners:
                    out.update(eng.attr_types.get(owner,
                                                  {}).get(node.attr, ()))
                return tuple(sorted(out)) or None
            return None
        if isinstance(node, ast.Call):
            return eng.call_classes(node)
        return None

    def _typed_candidates(self, recv_types: Optional[Tuple[str, ...]],
                          base_name: str) -> Optional[List[str]]:
        """Method quals for ``recv.m(...)`` under the receiver's
        static types: each type's own/overriding methods across its
        subclasses, or the nearest inherited definition.  None =
        untyped receiver (caller falls back to the name join); an
        empty list = known classes without such a method (conservative
        unknown callee)."""
        eng = self.engine
        if not recv_types or any(t not in eng.known_classes
                                 for t in recv_types):
            return None
        out: List[str] = []
        for recv_type in recv_types:
            found = False
            for cls in eng.subclasses.get(recv_type, {recv_type}):
                q = eng.class_methods.get(cls, {}).get(base_name)
                if q and q not in out:
                    out.append(q)
                    found = True
            if not found:
                for base in eng.base_closure.get(recv_type, ()):
                    q = eng.class_methods.get(base, {}).get(base_name)
                    if q:
                        if q not in out:
                            out.append(q)
                        break
        return out

    def _record_taint(self, arg_taints, kw_taints,
                      fields: Sequence[str]) -> Taint:
        """Instance taint of a construction: a field declared secret
        (``witness``, ``trapdoor``) carries its own taint — attribute
        reads re-derive it via the registry — so it must not taint the
        record; ``ProveRequest(witness=w, circuit=c)`` leaves
        ``request.circuit`` clean."""
        out: Set[Token] = set()
        for i, t in enumerate(arg_taints):
            name = fields[i] if i < len(fields) else None
            if name not in self.reg.secret_attrs:
                out |= t
        for name, t in kw_taints.items():
            if name not in self.reg.secret_attrs:
                out |= t
        return frozenset(out)

    def _bind(self, callee: FunctionInfo, node: ast.Call,
              is_method_call: bool, arg_taints, kw_taints
              ) -> List[Tuple[str, Taint]]:
        params = list(callee.params)
        if (callee.is_method and not callee.is_static
                and is_method_call and params):
            params = params[1:]     # drop self/cls for obj.m(...) calls
        out: List[Tuple[str, Taint]] = []
        for i, t in enumerate(arg_taints):
            if i < len(params):
                out.append((params[i], t))
        for name, t in kw_taints.items():
            if name in callee.params:
                out.append((name, t))
        return out

    def _taint_receiver(self, base: ast.AST, t: Taint,
                        env: Dict[str, Taint]) -> None:
        if isinstance(base, ast.Name):
            env[base.id] = env.get(base.id, EMPTY) | t
            if (self.check and base.id in
                    self.engine.module_globals.get(self.fn.mod.module,
                                                   ())):
                self.check.emit(
                    "R009", base,
                    f"secret appended to module-level container "
                    f"'{base.id}': module globals outlive the job",
                )
        elif isinstance(base, ast.Attribute):
            if (isinstance(base.value, ast.Name)
                    and base.value.id == "self" and self.fn.class_qual):
                attrs = self.engine.class_secret_attrs.setdefault(
                    self.fn.class_qual, set())
                if base.attr not in attrs:
                    attrs.add(base.attr)
                    self.changed_callees.update(
                        q for q, f in self.engine.functions.items()
                        if f.class_qual == self.fn.class_qual)
                if (self.check and self.fn.class_name
                        in self.reg.long_lived_classes):
                    self.check.emit(
                        "R009", base,
                        f"secret stored into long-lived "
                        f"'{self.fn.class_name}.{base.attr}': it "
                        "outlives the job",
                    )

    # -- sinks ------------------------------------------------------------------

    def _check_raise(self, node: ast.Raise, env: Dict[str, Taint]) -> None:
        if self.check is None or node.exc is None:
            return
        exc = node.exc
        args = []
        if isinstance(exc, ast.Call):
            args = list(exc.args) + [kw.value for kw in exc.keywords]
        else:
            args = [exc]
        for arg in args:
            if self.secret(self.expr(arg, env)):
                self.check.emit(
                    "R006", node,
                    "secret value interpolated into a raised exception "
                    "message: error strings cross the service wire — "
                    "report positions/indices, never witness values",
                )
                return

    def _check_call_sinks(self, node: ast.Call, func, dotted: str,
                          base_name: str, arg_taints, kw_taints,
                          receiver_t: Taint, env: Dict[str, Taint]
                          ) -> None:
        if self.check is None:
            return
        secret_arg = (any(self.secret(t) for t in arg_taints)
                      or any(self.secret(t) for t in kw_taints.values()))
        if not secret_arg:
            return
        root = dotted.split(".")[0] if dotted else ""
        is_warn = base_name == "warn" or dotted == "warnings.warn"
        is_log = (base_name in self.reg.logger_methods
                  and ("log" in root.lower() or root == "logging"))
        is_event = base_name in ("record_event",)
        is_span = base_name in ("span", "maybe_span")
        if is_warn or is_log:
            self.check.emit(
                "R006", node,
                f"secret value passed to '{dotted}(...)': warnings and "
                "logs are exported off-host — never include witness "
                "data",
            )
        elif is_event:
            self.check.emit(
                "R006", node,
                f"secret value passed to telemetry '{dotted}(...)': "
                "events leave the worker in result frames — witness "
                "data must be scrubbed, not exported",
            )
        elif is_span:
            # only metadata kwargs persist into the exported span tree
            if any(self.secret(t) for t in kw_taints.values()):
                self.check.emit(
                    "R006", node,
                    f"secret value in span metadata '{dotted}(...)': "
                    "span meta is exported with job telemetry",
                )
        elif base_name in ("format",) and isinstance(func, ast.Attribute):
            self.check.emit(
                "R006", node,
                "secret value formatted into a string via .format(...): "
                "string renderings of witness data leak",
            )


# -- public API --------------------------------------------------------------------


def run_taint(paths: Iterable[str],
              registry: TaintRegistry = DEFAULT_REGISTRY,
              rules: Optional[Sequence[str]] = None) -> List[LintFinding]:
    """Run the taint engine over the python files under ``paths``;
    returns unsuppressed R006–R009 findings sorted by location.

    Only ``repro.*`` modules are analyzed — tests and benchmarks hold
    no production secrets and are excluded by construction.
    """
    mods: List[ModuleInfo] = []
    findings: List[LintFinding] = []
    for f in iter_py_files(paths):
        try:
            mods.append(ModuleInfo(f, f.read_text()))
        except (OSError, SyntaxError) as exc:
            findings.append(LintFinding(
                "R000", str(f), getattr(exc, "lineno", 0) or 0, 1,
                f"could not parse: {exc}"))
    engine = TaintEngine(mods, registry)
    engine.solve()
    findings.extend(engine.check(rules=rules))
    return findings
