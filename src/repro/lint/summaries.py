"""Per-module summaries — the facts phase 2 of the analyzer consumes.

Phase 1 (per file, parallelizable) reduces every module to a
:class:`ModuleSummary` of plain picklable data: which project modules it
imports, which functions it defines and what they return
("produces-float", "derives-from-trial-seed"), plus the
*pending sites* the interprocedural rules will judge once every summary
is available — bare comparisons whose operands are floats or calls into
project functions (REP001), RNG constructions whose seed argument's
provenance crosses function boundaries (REP008), per-function **effect
sets** with call/mutation sites (REP006, REP011, REP012), and capture
sites where callables or globals cross a process boundary (REP013).

Everything here is deliberately AST-free and content-addressable: the
summaries travel through the process pool, live in the incremental
cache, and fully determine phase 2 — two runs that produce the same
summaries produce the same interprocedural findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .registry import FileContext
from .typeinfer import FLOAT
from .unitinfer import (
    DIMENSIONLESS,
    SCALED_DIMS,
    TIME,
    UNKNOWN,
    WORK,
    UnitInference,
    dims_clash,
    is_bare_epsilon_literal,
    param_dim_for,
    term_has_call,
    term_join,
)

__all__ = [
    "SeedProv",
    "FunctionSummary",
    "ComparisonSite",
    "RNGSite",
    "EffectSite",
    "CallSite",
    "MutationSite",
    "CaptureSite",
    "UnitSite",
    "EpsSite",
    "UnitCallSite",
    "ModuleSummary",
    "MUTATOR_METHODS",
    "lock_helper_names",
    "mentions_lock",
    "module_name_for_path",
    "self_private_attr",
    "with_item_locked",
    "build_module_summary",
]

#: names whose value is trusted seed material wherever they appear
_SEED_NAME_RE = re.compile(r"(^|_)(seed|seeds|entropy)(_|$)")

#: modules whose call results poison a seed derivation (environment-,
#: time-, or hash-dependent values)
_TAINT_MODULES = frozenset(
    {"time", "datetime", "os", "uuid", "secrets", "random", "socket", "platform"}
)

#: builtins that poison a seed derivation; ``hash`` is the historical
#: bug (PYTHONHASHSEED-dependent), ``id`` varies per process
_TAINT_BUILTINS = frozenset({"hash", "id"})

#: builtins that merely pass provenance through
_PASSTHROUGH_BUILTINS = frozenset({"int", "abs", "min", "max", "sum", "round"})

#: methods on SeedSequence/Generator objects that stay in the blessed
#: derivation chain
_DERIVING_METHODS = frozenset({"generate_state", "spawn", "integers"})

#: the RNG constructors REP008 audits (REP002 already covers the
#: zero-argument forms)
RNG_CONSTRUCTORS = frozenset({"default_rng", "Generator", "PCG64", "SeedSequence"})

_FLAGGED_CMP_OPS = {ast.LtE: "<=", ast.GtE: ">=", ast.Eq: "=="}

#: comparison operators whose operands must share a dimension (REP014
#: sites; membership/identity tests carry no dimension)
_UNIT_CMP_OPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

#: names that denote an epsilon/tolerance constant (REP015 input)
_EPS_NAME_RE = re.compile(r"(^|_)(eps|epsilon)($|_)", re.IGNORECASE)

#: floor-like calls: a bare epsilon inside one converts a boundary test
#: into a job-count change (the historical ``dbf()`` bug shape);
#: ``tol_floor`` is deliberately absent — it *is* the scale-aware fix
_FLOOR_LIKE_FUNCS = frozenset({"floor", "ceil", "trunc", "int", "round"})

#: module-global names that denote a memo/cache/scratch structure —
#: writes to them are bookkeeping (``memo-write``), not impurity, as
#: long as nothing *else* impure feeds the cached value
_MEMO_NAME_RE = re.compile(
    r"cache|memo|profil|scratch|buf|digest|hits|miss|evict|pool|seen", re.I
)

#: mutating container methods (REP006)
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "observe",
    }
)

#: ``time`` module functions that read a clock (effect ``wall-clock``)
_WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "ctime",
        "localtime",
        "gmtime",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
    }
)

#: Path/file methods that do IO when called on any receiver
_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes", "open"}
)

#: blocking socket operations (matched when the receiver looks like a
#: socket/connection)
_BLOCKING_SOCKET_METHODS = frozenset(
    {"recv", "recv_into", "sendall", "accept", "connect"}
)

#: blocking waits on a child process
_PROC_WAIT_METHODS = frozenset({"wait", "communicate"})

#: subprocess entry points (effect ``process``, which is also blocking)
_SUBPROCESS_FNS = frozenset({"run", "call", "check_call", "check_output", "Popen"})

#: process fan-out entry points (REP013 capture sites)
_FANOUT_FUNCTIONS = frozenset({"run_trials"})

#: pickle-frame entry points in :mod:`repro.service.protocol`
_PICKLE_FRAME_FUNCTIONS = frozenset({"frame_bytes", "send_frame"})

#: ``threading`` factories whose product must never cross a process
_LOCK_FACTORY_ATTRS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)


# ---------------------------------------------------------------------------
# lock recognition (REP006)
# ---------------------------------------------------------------------------


def mentions_lock(node: ast.expr) -> bool:
    """Does the expression reference a lock-looking name/attribute?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


def _is_contextmanager_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "contextmanager"
    if isinstance(node, ast.Attribute):
        return node.attr == "contextmanager"
    return False


def lock_helper_names(tree: ast.AST) -> frozenset[str]:
    """Names of ``@contextmanager`` functions whose body enters a lock.

    ``with self._guard():`` where ``_guard`` is such a helper (defined
    in the same file) counts as holding the lock.
    """
    helpers: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(
            _is_contextmanager_decorator(d) for d in node.decorator_list
        ):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.With, ast.AsyncWith)) and any(
                mentions_lock(item.context_expr) for item in sub.items
            ):
                helpers.add(node.name)
                break
    return frozenset(helpers)


def with_item_locked(expr: ast.expr, helpers: frozenset[str]) -> bool:
    """Does one ``with`` item enter a lock (directly or via a helper)?"""
    if mentions_lock(expr):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = ""
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        return name in helpers
    return False


def self_private_attr(node: ast.expr) -> str | None:
    """``self._x`` (possibly behind a subscript) → ``_x``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# bare-comparison exemptions (REP001)
# ---------------------------------------------------------------------------


def _is_exempt_literal(node: ast.expr) -> bool:
    """Zero or integer literals: sign/sentinel tests, not boundaries."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True  # covers booleans too; fine either way
    if isinstance(node, ast.Constant) and node.value == 0.0:
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_exempt_literal(node.operand)
    return False


def _guards_raise(ctx: FileContext, node: ast.Compare) -> bool:
    """Is this comparison (part of) an ``if``-test guarding a raise,
    or an ``assert`` condition?"""
    cur: ast.AST = node
    for parent in ctx.parents(node):
        if isinstance(parent, ast.If) and cur is parent.test:
            return len(parent.body) == 1 and isinstance(parent.body[0], ast.Raise)
        if isinstance(parent, ast.Assert):
            return True
        if isinstance(parent, (ast.BoolOp, ast.UnaryOp)):
            cur = parent
            continue
        break
    return False


# ---------------------------------------------------------------------------
# summary records (all plain, hashable, picklable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedProv:
    """Provenance verdict for one expression in the seed lattice.

    ``taint`` and ``unknown`` carry human-readable reasons; ``deps`` are
    ``(module, function)`` calls whose *return* provenance decides the
    verdict (resolved by the project graph's fixpoint).  Combination
    rule: taint dominates, then an explicit seed component blesses the
    mixture (the ``SeedSequence([base_seed, digest, point, rep])``
    pattern), then unresolved deps, then unknown.
    """

    taint: str = ""
    seed: bool = False
    unknown: str = ""
    deps: tuple[tuple[str, str], ...] = ()


#: provenance of an expression that is pure literal / blessed material
_PROV_SEED = SeedProv(seed=True)


def combine_provs(provs: list[SeedProv]) -> SeedProv:
    """Fold the provenance of an expression's components."""
    taint = next((p.taint for p in provs if p.taint), "")
    seed = any(p.seed for p in provs)
    unknown = next((p.unknown for p in provs if p.unknown), "")
    deps: list[tuple[str, str]] = []
    for p in provs:
        for dep in p.deps:
            if dep not in deps:
                deps.append(dep)
    return SeedProv(taint=taint, seed=seed, unknown=unknown, deps=tuple(deps))


@dataclass(frozen=True)
class EffectSite:
    """One observed side effect inside a function body.

    ``tag`` is a point in the effect lattice: ``rng``, ``wall-clock``,
    ``io``, ``blocking``, ``process``, ``lock``, ``mutates-global``,
    ``mutates-param``, ``mutates-nonlocal``, ``memo-write``.  One site
    per tag per function (the first occurrence anchors the finding).
    """

    tag: str
    detail: str
    line: int
    col: int = 0
    end_line: int = 0
    snippet: str = ""


@dataclass(frozen=True)
class CallSite:
    """A statically resolved call inside a function body."""

    module: str
    name: str
    line: int
    col: int
    snippet: str = ""
    #: lexically inside a ``with <lock>`` (or lock-helper) block
    under_lock: bool = False


@dataclass(frozen=True)
class MutationSite:
    """A mutation of shared state: ``self._*`` attr or module global."""

    target: str
    #: ``attr`` (``self._x``) or ``global`` (module-level name)
    kind: str
    detail: str
    line: int
    col: int
    end_line: int = 0
    snippet: str = ""
    under_lock: bool = False


@dataclass(frozen=True)
class CaptureSite:
    """A callable/value crossing a process boundary (REP013 input)."""

    #: ``fanout`` (runner pool) or ``pickle`` (protocol frame)
    kind: str
    line: int
    col: int
    end_line: int = 0
    snippet: str = ""
    #: resolved ``(module, qualname)`` of the fanned-out trial function
    fn_ref: tuple[str, str] | None = None
    #: ``lambda`` when the trial callable cannot be summarized
    local_callable: str = ""
    #: ``(module, global name)`` candidates checked against carriers
    carrier_candidates: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class UnitSite:
    """An addition/subtraction/comparison whose operands carry units.

    Recorded when both operands are *informative* — a concrete scaled
    dimension or a term depending on a project call's return dimension.
    Phase 2 evaluates both terms and flags the site (REP014)
    only when two concrete scaled dimensions with different exponent
    vectors meet.
    """

    line: int
    col: int
    end_line: int
    snippet: str
    op_text: str
    #: ``arith`` (``+``/``-``) or ``compare``
    context: str
    #: dimension terms (picklable tuple trees; see unitinfer)
    left: tuple
    right: tuple
    left_display: str = ""
    right_display: str = ""


@dataclass(frozen=True)
class EpsSite:
    """A bare epsilon added/subtracted from a scale-carrying value.

    The pre-PR-8 ``dbf()`` bug class (REP015): an *absolute* tolerance
    next to a ``time``/``work``-dimension expression inside a
    comparison or floor-like call, where the scale-aware ``leq``/
    ``lt``/``tol_floor`` helpers should have been used.
    """

    line: int
    col: int
    end_line: int
    snippet: str
    #: ``compare`` or ``floor``
    context: str
    eps_display: str
    #: dimension term of the non-epsilon operand
    partner: tuple
    partner_display: str = ""
    #: a sub-expression of the partner already carries this scaled
    #: dimension locally (fires without the call graph)
    lineage_dim: str = ""


@dataclass(frozen=True)
class UnitCallSite:
    """A resolved project call with dimension-carrying arguments.

    Phase 2 joins each argument's dimension against the callee's
    parameter expectation (REP016) — the facts live in different
    modules by construction.
    """

    line: int
    col: int
    end_line: int
    snippet: str
    #: locally resolved target (phase 2 follows re-export chains)
    module: str
    name: str
    #: ``(positional index or keyword name, display, dimension term)``
    args: tuple[tuple[str, str, tuple], ...] = ()


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one function or method."""

    #: ``name`` for module functions, ``Class.name`` for methods,
    #: dotted (``outer.inner``) for nested functions
    qualname: str
    #: a return path produces a float (directly inferred or annotated)
    returns_float: bool = False
    #: ``return f(...)`` calls whose return kind decides floatness
    return_call_deps: tuple[tuple[str, str], ...] = ()
    #: provenance of each ``return <expr>`` (all must be seed-derived
    #: for the function to count as a seed deriver)
    return_seed_provs: tuple[SeedProv, ...] = ()
    #: ``async def`` (including async generators) — REP012 scope
    is_async: bool = False
    #: defined directly inside a ``class`` body
    is_method: bool = False
    #: 1-based ``def`` line (REP011 findings anchor here)
    line: int = 0
    #: stripped ``def`` line (fingerprint input)
    snippet: str = ""
    #: memoizing decorator (``functools.lru_cache``/``cache``), or ""
    memoized: str = ""
    #: own (non-transitive) effect sites, one per tag, tag-sorted
    effects: tuple[EffectSite, ...] = ()
    #: statically resolved calls (the effect fixpoint's edges)
    calls: tuple[CallSite, ...] = ()
    #: shared-state mutation sites (REP006 input)
    mutations: tuple[MutationSite, ...] = ()
    #: dimension term joined over every ``return <expr>`` — the unit
    #: fixpoint's per-function unknown; ``None`` when nothing returns
    return_dim_term: tuple | None = None
    #: parameter names in positional order (call-argument mapping)
    param_order: tuple[str, ...] = ()
    #: ``(param name, expected dimension)`` for parameters whose name,
    #: annotation or local usage implies a dimension (REP016 input)
    param_dims: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ComparisonSite:
    """A bare comparison whose operands may both carry floats (REP001 input)."""

    line: int
    col: int
    end_line: int
    snippet: str
    op_text: str
    #: operand descriptors: ``("float", "", "")``, ``("call", mod, fn)``,
    #: or ``("other", "", "")``
    left: tuple[str, str, str]
    right: tuple[str, str, str]


@dataclass(frozen=True)
class RNGSite:
    """An RNG constructed from an explicit argument (REP008 input)."""

    line: int
    col: int
    end_line: int
    snippet: str
    constructor: str
    prov: SeedProv


@dataclass(frozen=True)
class ModuleSummary:
    """Everything phase 2 needs to know about one module."""

    module: str
    path: str
    is_package: bool = False
    #: stripped first source line (fingerprint input for module-level
    #: findings such as REP009)
    first_line: str = ""
    #: absolute module names this module imports (project and external;
    #: the graph filters to project members)
    imports: tuple[str, ...] = ()
    #: ``local name -> (origin module, origin name)`` for from-imports
    symbol_imports: tuple[tuple[str, str, str], ...] = ()
    functions: tuple[FunctionSummary, ...] = ()
    comparisons: tuple[ComparisonSite, ...] = ()
    rng_sites: tuple[RNGSite, ...] = ()
    #: module globals holding locks/sockets/open handles:
    #: ``(name, factory detail)`` — must never cross a process boundary
    global_carriers: tuple[tuple[str, str], ...] = ()
    #: fan-out / pickle-frame sites found anywhere in the module
    capture_sites: tuple[CaptureSite, ...] = ()
    #: unit-bearing arithmetic/comparison sites (REP014 input)
    unit_sites: tuple[UnitSite, ...] = ()
    #: bare-epsilon sites (REP015 input)
    eps_sites: tuple[EpsSite, ...] = ()
    #: resolved calls with dimension-carrying arguments (REP016 input)
    unit_calls: tuple[UnitCallSite, ...] = ()


# ---------------------------------------------------------------------------
# module naming and import resolution
# ---------------------------------------------------------------------------


def module_name_for_path(rel_path: str) -> tuple[str, bool]:
    """``(dotted module name, is_package)`` for a repo-relative path.

    ``src/repro/core/dbf.py`` → ``("repro.core.dbf", False)``;
    package ``__init__`` files name the package itself.
    """
    parts = [p for p in rel_path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


def _resolve_from_import(
    module: str, is_package: bool, node: ast.ImportFrom
) -> str | None:
    """Absolute module an ``ImportFrom`` refers to, or ``None``."""
    if node.level == 0:
        return node.module
    base = module.split(".") if module else []
    if not is_package:
        base = base[:-1]
    drop = node.level - 1
    if drop:
        if drop > len(base):
            return None
        base = base[: len(base) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


# ---------------------------------------------------------------------------
# seed provenance
# ---------------------------------------------------------------------------


def _informative_term(term: tuple) -> bool:
    """Worth recording: concrete scaled, or awaiting a call's dimension."""
    if term[0] == "dim":
        return term[1] in SCALED_DIMS
    return term_has_call(term)


def _unparse(node: ast.AST, limit: int = 40) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        text = type(node).__name__
    return text if len(text) <= limit else text[: limit - 3] + "..."


class _ProvenancePass:
    """Scope-aware forward pass binding names to seed provenance.

    The same shape as :class:`~repro.lint.typeinfer.TypeInference`, but
    tracking a different lattice: does this value derive from the
    crc32 trial-seed digest chain (parameters/attributes named ``seed``,
    ``zlib.crc32``, ``SeedSequence`` and friends), from a known
    non-deterministic source (``hash``, wall clocks, ``os.*``), from a
    project function call (deferred to phase 2), or from nowhere we can
    prove?
    """

    def __init__(self, ctx: FileContext, resolver) -> None:
        self.ctx = ctx
        self._resolve_call = resolver
        self._envs: dict[ast.AST, dict[str, SeedProv]] = {}
        self._build(ctx.tree, {})

    def _build(self, scope: ast.AST, inherited: dict[str, SeedProv]) -> None:
        env = dict(inherited)
        self._envs[scope] = env
        body = getattr(scope, "body", [])
        if isinstance(body, list):
            self._stmts(body, env)

    def _stmts(self, stmts: list[ast.stmt], env: dict[str, SeedProv]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._build(stmt, env)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._stmts(stmt.body, dict(env))
                continue
            if isinstance(stmt, ast.Assign):
                prov = self.prov_in_env(stmt.value, env)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = prov
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None
            ):
                env[stmt.target.id] = self.prov_in_env(stmt.value, env)
            for field_name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field_name, None)
                if isinstance(inner, list):
                    self._stmts(
                        [s for s in inner if isinstance(s, ast.stmt)], env
                    )
            for handler in getattr(stmt, "handlers", None) or []:
                self._stmts(handler.body, env)

    def env_for(self, node: ast.AST) -> dict[str, SeedProv]:
        cur: ast.AST | None = node
        while cur is not None:
            if cur in self._envs:
                return self._envs[cur]
            cur = getattr(cur, "_repro_parent", None)
        return {}

    def prov_of(self, node: ast.expr) -> SeedProv:
        return self.prov_in_env(node, self.env_for(node))

    def prov_in_env(
        self, node: ast.expr, env: dict[str, SeedProv]
    ) -> SeedProv:  # noqa: C901 - one dispatch table, clearer flat
        if isinstance(node, ast.Constant):
            if node.value is None:
                return SeedProv(taint="a `None` seed draws OS entropy")
            return _PROV_SEED  # explicit literals are reproducible
        if isinstance(node, ast.Name):
            if _SEED_NAME_RE.search(node.id):
                return _PROV_SEED
            if node.id in env:
                return env[node.id]
            return SeedProv(unknown=f"`{node.id}` has no seed provenance")
        if isinstance(node, ast.Attribute):
            if _SEED_NAME_RE.search(node.attr):
                return _PROV_SEED
            return SeedProv(unknown=f"`{_unparse(node)}` has no seed provenance")
        if isinstance(node, ast.UnaryOp):
            return self.prov_in_env(node.operand, env)
        if isinstance(node, ast.BinOp):
            return combine_provs(
                [
                    self.prov_in_env(node.left, env),
                    self.prov_in_env(node.right, env),
                ]
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return combine_provs(
                [self.prov_in_env(e, env) for e in node.elts]
            )
        if isinstance(node, ast.Subscript):
            return self.prov_in_env(node.value, env)
        if isinstance(node, ast.IfExp):
            return combine_provs(
                [
                    self.prov_in_env(node.body, env),
                    self.prov_in_env(node.orelse, env),
                ]
            )
        if isinstance(node, ast.NamedExpr):
            return self.prov_in_env(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_prov(node, env)
        return SeedProv(unknown=f"`{_unparse(node)}` has no seed provenance")

    def _call_prov(
        self, node: ast.Call, env: dict[str, SeedProv]
    ) -> SeedProv:
        func = node.func
        arg_values = list(node.args) + [kw.value for kw in node.keywords]

        if isinstance(func, ast.Name):
            if func.id in _TAINT_BUILTINS:
                detail = (
                    "varies with PYTHONHASHSEED"
                    if func.id == "hash"
                    else "varies per process"
                )
                return SeedProv(taint=f"`{func.id}(...)` {detail}")
            if func.id in _PASSTHROUGH_BUILTINS:
                return combine_provs(
                    [self.prov_in_env(a, env) for a in arg_values]
                )
            origin = self.ctx.from_imports.get(func.id)
            if origin is not None and origin[0] in _TAINT_MODULES:
                return SeedProv(
                    taint=f"`{origin[0]}.{origin[1]}(...)` is "
                    "environment-dependent"
                )
        if self.ctx.resolves_to(func, "zlib", "crc32"):
            return _PROV_SEED  # the blessed stable digest
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and self.ctx.import_aliases.get(base.id) in _TAINT_MODULES
            ):
                return SeedProv(
                    taint=f"`{self.ctx.import_aliases[base.id]}.{func.attr}"
                    "(...)` is environment-dependent"
                )
            if func.attr in _DERIVING_METHODS:
                # ss.generate_state(n) / ss.spawn(k): receiver provenance
                return self.prov_in_env(base, env)
            if func.attr in RNG_CONSTRUCTORS:
                # constructing from components: the mixture rule
                return combine_provs(
                    [self.prov_in_env(a, env) for a in arg_values]
                )
        if isinstance(func, ast.Name) and func.id in RNG_CONSTRUCTORS:
            return combine_provs(
                [self.prov_in_env(a, env) for a in arg_values]
            )
        resolved = self._resolve_call(node)
        if resolved is not None:
            return SeedProv(deps=(resolved,))
        return SeedProv(unknown=f"call to `{_unparse(func)}` is unresolved")


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


def _rng_constructor(ctx: FileContext, func: ast.expr) -> str | None:
    """Constructor name if ``func`` denotes a numpy RNG constructor."""
    if isinstance(func, ast.Attribute) and func.attr in RNG_CONSTRUCTORS:
        value = func.value
        # np.random.default_rng / numpy.random.default_rng
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and ctx.import_aliases.get(value.value.id) == "numpy"
        ):
            return func.attr
        # from numpy import random [as npr]
        if isinstance(value, ast.Name) and ctx.from_imports.get(value.id) == (
            "numpy",
            "random",
        ):
            return func.attr
    if isinstance(func, ast.Name):
        origin = ctx.from_imports.get(func.id)
        if origin is not None and origin[0] == "numpy.random":
            if origin[1] in RNG_CONSTRUCTORS:
                return origin[1]
    return None


def _collect_names(target: ast.expr, into: set[str]) -> None:
    """Bare names bound by an assignment/loop target, recursively."""
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _collect_names(elt, into)
    elif isinstance(target, ast.Starred):
        _collect_names(target.value, into)


class _EffectWalker:
    """Extract effects, calls, mutations, and captures from one function.

    A recursive statement walker carrying an ``under_lock`` flag that
    flips inside ``with <lock>:`` (or lock-helper) blocks; nested
    ``def``/``class``/``lambda`` bodies are skipped — nested functions
    get their own summaries, and lambdas stay opaque by design.
    """

    def __init__(
        self,
        builder: "_SummaryBuilder",
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        cls_name: str,
    ) -> None:
        self.b = builder
        self.ctx = builder.ctx
        self.fn = fn
        self.qualname = qualname
        self.cls_name = cls_name
        self.effects: dict[str, EffectSite] = {}
        self.calls: list[CallSite] = []
        self.mutations: list[MutationSite] = []
        self.captures: list[CaptureSite] = []
        args = fn.args
        self.params = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)
        self.globals_decl: set[str] = set()
        self.nonlocals_decl: set[str] = set()
        self.local_names: set[str] = set()
        self.nested_defs: set[str] = set()
        #: local name → resolved target bound via functools.partial
        self.partial_bindings: dict[str, tuple[str, str]] = {}
        self._prescan(fn.body)
        self.local_names -= self.globals_decl | self.nonlocals_decl
        for stmt in fn.body:
            self._walk(stmt, False)

    # -- scope facts ---------------------------------------------------------

    def _prescan(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nested_defs.add(stmt.name)
                self.local_names.add(stmt.name)
                continue
            if isinstance(stmt, ast.ClassDef):
                self.local_names.add(stmt.name)
                continue
            if isinstance(stmt, ast.Global):
                self.globals_decl.update(stmt.names)
            elif isinstance(stmt, ast.Nonlocal):
                self.nonlocals_decl.update(stmt.names)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _collect_names(target, self.local_names)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                _collect_names(stmt.target, self.local_names)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                _collect_names(stmt.target, self.local_names)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        _collect_names(item.optional_vars, self.local_names)
            for field_name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field_name, None)
                if isinstance(inner, list):
                    self._prescan(
                        [s for s in inner if isinstance(s, ast.stmt)]
                    )
            for handler in getattr(stmt, "handlers", None) or []:
                self._prescan(handler.body)

    def _is_param(self, name: str) -> bool:
        return name in self.params and name not in ("self", "cls")

    def _is_module_global(self, name: str) -> bool:
        if name in self.globals_decl:
            return True
        return (
            name in self.b.module_globals
            and name not in self.local_names
            and name not in self.params
        )

    # -- the walk ------------------------------------------------------------

    def _walk(self, node: ast.AST, under_lock: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            locked = under_lock
            for item in node.items:
                self._walk(item.context_expr, under_lock)
                if with_item_locked(item.context_expr, self.b.lock_helpers):
                    locked = True
            if locked and not under_lock and isinstance(node, ast.With):
                # sync lock entry only: `async with` awaits, never blocks
                self._note("lock", "enters a lock context", node)
            for stmt in node.body:
                self._walk(stmt, locked)
            return
        if isinstance(node, ast.Call):
            self._call(node, under_lock)
        elif isinstance(node, ast.Assign):
            self._assign(node, under_lock)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            self._target_mutation(node.target, node, under_lock)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._target_mutation(target, node, under_lock)
        for child in ast.iter_child_nodes(node):
            self._walk(child, under_lock)

    # -- effect recording ----------------------------------------------------

    def _note(self, tag: str, detail: str, node: ast.AST) -> None:
        if tag in self.effects:
            return
        line = getattr(node, "lineno", self.fn.lineno)
        self.effects[tag] = EffectSite(
            tag=tag,
            detail=detail,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            end_line=self.ctx.statement_span(node)[1],
            snippet=self.ctx.snippet(line),
        )

    def _attr_mutation(
        self, attr: str, detail: str, node: ast.AST, under_lock: bool
    ) -> None:
        line = getattr(node, "lineno", self.fn.lineno)
        self.mutations.append(
            MutationSite(
                target=attr,
                kind="attr",
                detail=detail,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                end_line=self.ctx.statement_span(node)[1],
                snippet=self.ctx.snippet(line),
                under_lock=under_lock,
            )
        )

    def _global_mutation(
        self, name: str, detail: str, node: ast.AST, under_lock: bool
    ) -> None:
        tag = "memo-write" if _MEMO_NAME_RE.search(name) else "mutates-global"
        self._note(tag, f"{detail} mutates module global `{name}`", node)
        line = getattr(node, "lineno", self.fn.lineno)
        self.mutations.append(
            MutationSite(
                target=name,
                kind="global",
                detail=detail,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                end_line=self.ctx.statement_span(node)[1],
                snippet=self.ctx.snippet(line),
                under_lock=under_lock,
            )
        )

    def _param_mutation(self, name: str, detail: str, node: ast.AST) -> None:
        # a memo-named parameter is the caller's memo handed down: filling
        # it is the same bookkeeping as filling a memo-named global
        if _MEMO_NAME_RE.search(name):
            self._note("memo-write", f"{detail} memo parameter `{name}`", node)
        else:
            self._note("mutates-param", f"{detail} parameter `{name}`", node)

    # -- assignments and deletions -------------------------------------------

    def _assign(self, node: ast.Assign, under_lock: bool) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and self._is_partial(node.value.func)
            and node.value.args
        ):
            ref, _ = self._callable_ref(node.value.args[0])
            if ref is not None:
                self.partial_bindings[node.targets[0].id] = ref
        for target in node.targets:
            self._target_mutation(target, node, under_lock)

    def _target_mutation(
        self, target: ast.expr, stmt: ast.AST, under_lock: bool
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target_mutation(elt, stmt, under_lock)
            return
        if isinstance(target, ast.Starred):
            self._target_mutation(target.value, stmt, under_lock)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl:
                self._global_mutation(target.id, "assignment", stmt, under_lock)
            elif target.id in self.nonlocals_decl:
                self._note(
                    "mutates-nonlocal",
                    f"assigns enclosing-scope variable `{target.id}`",
                    stmt,
                )
            return
        attr = self_private_attr(target)
        if attr is not None:
            if "lock" not in attr.lower():
                self._attr_mutation(attr, "assignment to", stmt, under_lock)
            return
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute):
            root = base.value
            if isinstance(root, ast.Name) and self._is_param(root.id):
                self._note(
                    "mutates-param",
                    f"assigns an attribute of parameter `{root.id}`",
                    stmt,
                )
            return
        if isinstance(base, ast.Name):
            if self._is_module_global(base.id):
                self._global_mutation(
                    base.id, "item assignment", stmt, under_lock
                )
            elif self._is_param(base.id):
                self._param_mutation(base.id, "assigns into", stmt)
            elif base.id in self.nonlocals_decl:
                self._note(
                    "mutates-nonlocal",
                    f"mutates enclosing-scope variable `{base.id}`",
                    stmt,
                )

    # -- calls ---------------------------------------------------------------

    def _call(self, node: ast.Call, under_lock: bool) -> None:
        resolved = self._resolve_local_call(node)
        if resolved is not None:
            line = node.lineno
            self.calls.append(
                CallSite(
                    module=resolved[0],
                    name=resolved[1],
                    line=line,
                    col=node.col_offset + 1,
                    snippet=self.ctx.snippet(line),
                    under_lock=under_lock,
                )
            )
        self._builtin_effects(node)
        self._mutator_call(node, under_lock)
        self._capture(node, resolved)

    def _resolve_local_call(self, node: ast.Call) -> tuple[str, str] | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.nested_defs:
                return (self.b.module, f"{self.qualname}.{func.id}")
            if func.id in self.partial_bindings:
                return self.partial_bindings[func.id]
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls_name
        ):
            # self._m(...): a same-class method call — phase 2 resolves
            # (or discards) the `Class.m` qualname
            return (self.b.module, f"{self.cls_name}.{func.attr}")
        return self.b.resolve_call(node)

    def _builtin_effects(self, node: ast.Call) -> None:
        ctx = self.ctx
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = ctx.import_aliases.get(func.value.id)
            if base == "time":
                if func.attr in _WALL_CLOCK_TIME_FNS:
                    self._note(
                        "wall-clock",
                        f"reads a clock via `time.{func.attr}()`",
                        node,
                    )
                elif func.attr == "sleep":
                    self._note(
                        "blocking", "`time.sleep(...)` blocks the thread", node
                    )
            elif base == "subprocess" and func.attr in _SUBPROCESS_FNS:
                self._note(
                    "process",
                    f"spawns a subprocess via `subprocess.{func.attr}(...)`",
                    node,
                )
            elif base == "os" and func.attr == "system":
                self._note(
                    "process", "`os.system(...)` spawns a subprocess", node
                )
            elif base == "random":
                self._note(
                    "rng",
                    f"draws from the process-global `random.{func.attr}` RNG",
                    node,
                )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in RNG_CONSTRUCTORS | {"random", "shuffle", "choice"}
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and ctx.import_aliases.get(func.value.value.id) == "numpy"
        ):
            self._note(
                "rng", f"draws via `numpy.random.{func.attr}(...)`", node
            )
        if isinstance(func, ast.Name):
            origin = ctx.from_imports.get(func.id)
            if origin is not None:
                if origin[0] == "time" and origin[1] in _WALL_CLOCK_TIME_FNS:
                    self._note(
                        "wall-clock",
                        f"reads a clock via `{origin[1]}()`",
                        node,
                    )
                elif origin == ("time", "sleep"):
                    self._note(
                        "blocking", "`time.sleep(...)` blocks the thread", node
                    )
                elif origin[0] == "subprocess" and origin[1] in _SUBPROCESS_FNS:
                    self._note(
                        "process",
                        f"spawns a subprocess via `{origin[1]}(...)`",
                        node,
                    )
                elif origin[0] == "random":
                    self._note(
                        "rng",
                        f"draws from the process-global `random.{origin[1]}`",
                        node,
                    )
            elif func.id == "open":
                self._note("io", "opens a file handle via `open(...)`", node)
        if isinstance(func, ast.Attribute):
            if func.attr in _IO_METHODS and func.attr != "open":
                self._note("io", f"file IO via `.{func.attr}(...)`", node)
            elif func.attr == "open" and not isinstance(func.value, ast.Name):
                pass  # method `open` on a complex receiver: too ambiguous
            if func.attr == "acquire" and mentions_lock(func):
                self._note("blocking", "acquires a lock via `.acquire()`", node)
            elif func.attr in _PROC_WAIT_METHODS and self._receiver_mentions(
                func.value, ("proc",)
            ):
                self._note(
                    "blocking",
                    f"waits on a child process via `.{func.attr}()`",
                    node,
                )
            elif func.attr in _BLOCKING_SOCKET_METHODS and self._receiver_mentions(
                func.value, ("sock", "conn")
            ):
                self._note(
                    "blocking",
                    f"blocking socket call `.{func.attr}(...)`",
                    node,
                )

    @staticmethod
    def _receiver_mentions(node: ast.expr, needles: tuple[str, ...]) -> bool:
        for sub in ast.walk(node):
            text = ""
            if isinstance(sub, ast.Attribute):
                text = sub.attr.lower()
            elif isinstance(sub, ast.Name):
                text = sub.id.lower()
            if text and any(needle in text for needle in needles):
                return True
        return False

    def _mutator_call(self, node: ast.Call, under_lock: bool) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return
        attr = self_private_attr(func.value)
        if attr is not None:
            if "lock" not in attr.lower():
                self._attr_mutation(
                    attr, f"`.{func.attr}(...)` on", node, under_lock
                )
            return
        base = func.value
        while isinstance(base, ast.Subscript):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        if self._is_module_global(base.id):
            self._global_mutation(
                base.id, f"`.{func.attr}(...)`", node, under_lock
            )
        elif self._is_param(base.id):
            self._param_mutation(base.id, f"`.{func.attr}(...)` on", node)
        elif base.id in self.nonlocals_decl:
            self._note(
                "mutates-nonlocal",
                f"`.{func.attr}(...)` mutates enclosing-scope `{base.id}`",
                node,
            )

    # -- process-boundary captures (REP013) ----------------------------------

    def _is_partial(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return self.ctx.from_imports.get(func.id) == ("functools", "partial")
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return (
                self.ctx.import_aliases.get(func.value.id) == "functools"
                and func.attr == "partial"
            )
        return False

    def _callable_ref(
        self, expr: ast.expr
    ) -> tuple[tuple[str, str] | None, str]:
        """Resolve a callable argument to a summarized function."""
        if isinstance(expr, ast.Lambda):
            return None, "lambda"
        if isinstance(expr, ast.Name):
            if expr.id in self.partial_bindings:
                return self.partial_bindings[expr.id], ""
            if expr.id in self.nested_defs:
                return (self.b.module, f"{self.qualname}.{expr.id}"), ""
            resolved = self.b.resolve_name(expr.id)
            return resolved, ""
        if isinstance(expr, ast.Call) and self._is_partial(expr.func) and expr.args:
            return self._callable_ref(expr.args[0])
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.cls_name
        ):
            return (self.b.module, f"{self.cls_name}.{expr.attr}"), ""
        return None, ""

    def _carrier_candidates(
        self, node: ast.Call
    ) -> tuple[tuple[str, str], ...]:
        out: list[tuple[str, str]] = []
        exprs = list(node.args) + [kw.value for kw in node.keywords]
        for expr in exprs:
            for sub in ast.walk(expr):
                if not isinstance(sub, ast.Name):
                    continue
                cand: tuple[str, str] | None = None
                if self._is_module_global(sub.id):
                    cand = (self.b.module, sub.id)
                elif sub.id in self.b._symbol_imports:
                    cand = self.b._symbol_imports[sub.id]
                if cand is not None and cand not in out:
                    out.append(cand)
        return tuple(out)

    def _capture(
        self, node: ast.Call, resolved: tuple[str, str] | None
    ) -> None:
        func = node.func
        bare = ""
        if isinstance(func, ast.Name):
            bare = func.id
        elif isinstance(func, ast.Attribute):
            bare = func.attr
        name = resolved[1] if resolved is not None else bare
        line = node.lineno
        if name in _FANOUT_FUNCTIONS:
            fn_ref: tuple[str, str] | None = None
            local_callable = ""
            if node.args:
                fn_ref, local_callable = self._callable_ref(node.args[0])
            self.captures.append(
                CaptureSite(
                    kind="fanout",
                    line=line,
                    col=node.col_offset + 1,
                    end_line=self.ctx.statement_span(node)[1],
                    snippet=self.ctx.snippet(line),
                    fn_ref=fn_ref,
                    local_callable=local_callable,
                    carrier_candidates=self._carrier_candidates(node),
                )
            )
            return
        is_pickle = self.ctx.resolves_to(func, "pickle", "dumps") or (
            name in _PICKLE_FRAME_FUNCTIONS
        )
        if is_pickle:
            candidates = self._carrier_candidates(node)
            if candidates:
                self.captures.append(
                    CaptureSite(
                        kind="pickle",
                        line=line,
                        col=node.col_offset + 1,
                        end_line=self.ctx.statement_span(node)[1],
                        snippet=self.ctx.snippet(line),
                        carrier_candidates=candidates,
                    )
                )


class _SummaryBuilder:
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module, self.is_package = module_name_for_path(ctx.path)
        self._local_functions: set[str] = {
            n.name
            for n in ctx.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._symbol_imports: dict[str, tuple[str, str]] = {}
        self._module_aliases: dict[str, str] = {}
        self._imports: list[str] = []
        self._collect_imports()
        self.prov = _ProvenancePass(ctx, self.resolve_call)
        self.units = UnitInference(ctx.tree, self.resolve_call)
        self.lock_helpers = lock_helper_names(ctx.tree)
        self.module_globals = self._collect_module_globals()
        self._captures: list[CaptureSite] = []

    # -- imports ------------------------------------------------------------

    def _collect_imports(self) -> None:
        seen: set[str] = set()

        def add(name: str | None) -> None:
            if name and name not in seen:
                seen.add(name)
                self._imports.append(name)

        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name)
                    self._module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                origin = _resolve_from_import(self.module, self.is_package, node)
                if origin is None:
                    continue
                add(origin)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    # `from pkg import mod` may bind a submodule: record
                    # the candidate edge; the graph keeps real modules
                    add(f"{origin}.{alias.name}")
                    self._symbol_imports[alias.asname or alias.name] = (
                        origin,
                        alias.name,
                    )

    # -- module-level state --------------------------------------------------

    def _collect_module_globals(self) -> set[str]:
        names: set[str] = set()
        for node in self.ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    _collect_names(target, names)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                _collect_names(node.target, names)
        return names

    def _global_carriers(self) -> list[tuple[str, str]]:
        """Module globals whose initializer holds a lock/socket/handle."""
        carriers: dict[str, str] = {}
        for node in self.ctx.tree.body:
            targets: list[ast.Name] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.value is not None
            ):
                targets = [node.target]
                value = node.value
            if not targets or value is None:
                continue
            detail = self._carrier_detail(value, carriers)
            if detail:
                for target in targets:
                    carriers[target.id] = detail
        return sorted(carriers.items())

    def _carrier_detail(self, expr: ast.expr, known: dict[str, str]) -> str:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    base = self.ctx.import_aliases.get(func.value.id)
                    if base == "threading" and func.attr in _LOCK_FACTORY_ATTRS:
                        return f"threading.{func.attr}()"
                    if base == "socket" and func.attr == "socket":
                        return "socket.socket()"
                if isinstance(func, ast.Name):
                    origin = self.ctx.from_imports.get(func.id)
                    if origin is not None:
                        if (
                            origin[0] == "threading"
                            and origin[1] in _LOCK_FACTORY_ATTRS
                        ):
                            return f"threading.{origin[1]}()"
                        if origin == ("socket", "socket"):
                            return "socket.socket()"
                    elif func.id == "open":
                        return "open(...)"
            if isinstance(sub, ast.Name) and sub.id in known:
                return known[sub.id]
        return ""

    # -- call resolution ----------------------------------------------------

    def resolve_call(self, node: ast.Call) -> tuple[str, str] | None:
        """``(module, function)`` a call refers to, when statically clear."""
        func = node.func
        if isinstance(func, ast.Name):
            return self.resolve_name(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in self._module_aliases:
                return (self._module_aliases[base], func.attr)
            # `from repro import core; core.fn(...)` — submodule binding
            origin = self._symbol_imports.get(base)
            if origin is not None:
                return (f"{origin[0]}.{origin[1]}", func.attr)
        return None

    def resolve_name(self, name: str) -> tuple[str, str] | None:
        """Resolve a bare name to a ``(module, function)``, if clear."""
        if name in self._symbol_imports:
            return self._symbol_imports[name]
        if name in self._local_functions:
            return (self.module, name)
        return None

    # -- functions ----------------------------------------------------------

    def _function_summaries(self) -> Iterator[FunctionSummary]:
        for node, qualname, is_method, cls_name in self._functions_with_qualnames():
            returns = self._returns_of(node)
            returns_float = self._annotated_float(node)
            deps: list[tuple[str, str]] = []
            seed_provs: list[SeedProv] = []
            for ret in returns:
                if ret.value is None:
                    continue
                if self.ctx.types.kind_of(ret.value) == FLOAT:
                    returns_float = True
                if isinstance(ret.value, ast.Call):
                    dep = self.resolve_call(ret.value)
                    if dep is not None and dep not in deps:
                        deps.append(dep)
                seed_provs.append(self.prov.prov_of(ret.value))
            walker = _EffectWalker(self, node, qualname, cls_name)
            self._captures.extend(walker.captures)
            return_terms = [
                self.units.term_of(ret.value)
                for ret in returns
                if ret.value is not None
            ]
            yield FunctionSummary(
                qualname=qualname,
                returns_float=returns_float,
                return_call_deps=tuple(deps),
                return_seed_provs=tuple(seed_provs),
                is_async=isinstance(node, ast.AsyncFunctionDef),
                is_method=is_method,
                line=node.lineno,
                snippet=self.ctx.snippet(node.lineno),
                memoized=self._memo_decorator(node),
                effects=tuple(
                    walker.effects[tag] for tag in sorted(walker.effects)
                ),
                calls=tuple(walker.calls),
                mutations=tuple(walker.mutations),
                return_dim_term=(
                    term_join(return_terms) if return_terms else None
                ),
                param_order=self._param_order(node),
                param_dims=self._param_dims(node),
            )

    def _functions_with_qualnames(
        self,
    ) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, bool, str]
    ]:
        """``(node, qualname, is_method, class name)`` for every ``def``.

        Walks nested functions too (``outer.inner`` qualnames) so effect
        facts exist for closures handed to pools and memo decorators on
        inner helpers; ``class name`` propagates into a method's nested
        functions (their ``self`` is the method's).
        """

        def walk_body(
            body: list[ast.stmt], prefix: str, cls_name: str
        ) -> Iterator[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, bool, str]
        ]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    yield node, qual, False, cls_name
                    yield from walk_body(node.body, f"{qual}.", cls_name)
                elif isinstance(node, ast.ClassDef):
                    yield from walk_class(node, prefix)

        def walk_class(
            cls: ast.ClassDef, prefix: str
        ) -> Iterator[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, bool, str]
        ]:
            cls_qual = f"{prefix}{cls.name}"
            for sub in cls.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls_qual}.{sub.name}"
                    yield sub, qual, True, cls_qual
                    yield from walk_body(sub.body, f"{qual}.", cls_qual)
                elif isinstance(sub, ast.ClassDef):
                    yield from walk_class(sub, f"{cls_qual}.")

        yield from walk_body(self.ctx.tree.body, "", "")

    def _memo_decorator(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> str:
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name):
                origin = self.ctx.from_imports.get(target.id)
                if origin is not None and origin[0] == "functools" and origin[
                    1
                ] in ("lru_cache", "cache"):
                    return f"functools.{origin[1]}"
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if self.ctx.import_aliases.get(
                    target.value.id
                ) == "functools" and target.attr in ("lru_cache", "cache"):
                    return f"functools.{target.attr}"
        return ""

    @staticmethod
    def _annotated_float(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        return isinstance(fn.returns, ast.Name) and fn.returns.id == "float"

    def _returns_of(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[ast.Return]:
        out = []
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Return) and self._nearest_function(sub) is fn:
                out.append(sub)
        return out

    def _nearest_function(self, node: ast.AST) -> ast.AST | None:
        for parent in self.ctx.parents(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return parent
        return None

    # -- pending sites -------------------------------------------------------

    def _comparison_sites(self) -> Iterator[ComparisonSite]:
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                op_text = _FLAGGED_CMP_OPS.get(type(op))
                if op_text is None:
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_exempt_literal(left) or _is_exempt_literal(right):
                    continue
                left_desc = self._operand_desc(left)
                right_desc = self._operand_desc(right)
                if "other" in (left_desc[0], right_desc[0]):
                    continue  # one side can never be float-bearing
                if _guards_raise(self.ctx, node):
                    continue
                line = node.lineno
                yield ComparisonSite(
                    line=line,
                    col=node.col_offset + 1,
                    end_line=self.ctx.statement_span(node)[1],
                    snippet=self.ctx.snippet(line),
                    op_text=op_text,
                    left=left_desc,
                    right=right_desc,
                )

    def _operand_desc(self, expr: ast.expr) -> tuple[str, str, str]:
        if self.ctx.types.kind_of(expr) == FLOAT:
            return ("float", "", "")
        if isinstance(expr, ast.Call):
            resolved = self.resolve_call(expr)
            if resolved is not None:
                return ("call", resolved[0], resolved[1])
        return ("other", "", "")

    def _rng_sites(self) -> Iterator[RNGSite]:
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            constructor = _rng_constructor(self.ctx, node.func)
            if constructor is None:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not args:
                continue  # REP002 already flags the unseeded form
            prov = combine_provs([self.prov.prov_of(a) for a in args])
            line = node.lineno
            yield RNGSite(
                line=line,
                col=node.col_offset + 1,
                end_line=self.ctx.statement_span(node)[1],
                snippet=self.ctx.snippet(line),
                constructor=constructor,
                prov=prov,
            )

    # -- unit facts ----------------------------------------------------------

    def _param_order(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> tuple[str, ...]:
        args = fn.args
        return tuple(a.arg for a in [*args.posonlyargs, *args.args])

    def _param_dims(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> tuple[tuple[str, str], ...]:
        """Scaled-dimension expectations for this function's parameters."""
        assigned = self._assigned_names(fn)
        out: list[tuple[str, str]] = []
        args = fn.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            dim = param_dim_for(arg)
            if dim is None and arg.arg not in assigned:
                dim = self._usage_dim(fn, arg.arg)
            if dim is not None and dim in SCALED_DIMS:
                out.append((arg.arg, dim))
        return tuple(out)

    @staticmethod
    def _assigned_names(fn: ast.AST) -> set[str]:
        names: set[str] = set()
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    _collect_names(target, names)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign, ast.For)):
                _collect_names(sub.target, names)
            elif isinstance(sub, ast.NamedExpr):
                _collect_names(sub.target, names)
        return names

    def _usage_dim(self, fn: ast.AST, param: str) -> str | None:
        """Dimension implied by adding/comparing the bare parameter.

        Only a *consistent* vector across every such usage counts; a
        parameter mixed with several scales stays expectation-free.
        """
        candidates: list[str] = []
        for node in ast.walk(fn):
            pairs: list[tuple[ast.expr, ast.expr]] = []
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pairs.append((node.left, node.right))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for i, op in enumerate(node.ops):
                    if type(op) in _UNIT_CMP_OPS:
                        pairs.append((operands[i], operands[i + 1]))
            for left, right in pairs:
                for a, b in ((left, right), (right, left)):
                    if isinstance(a, ast.Name) and a.id == param:
                        term = self.units.term_of(b)
                        if term[0] == "dim" and term[1] in SCALED_DIMS:
                            candidates.append(term[1])
        if not candidates:
            return None
        first = candidates[0]
        if any(dims_clash(first, dim) for dim in candidates[1:]):
            return None
        return first

    def _unit_sites(self) -> Iterator[UnitSite]:
        for node in ast.walk(self.ctx.tree):
            pairs: list[tuple[ast.expr, ast.expr, str, str]] = []
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                op_text = "+" if isinstance(node.op, ast.Add) else "-"
                pairs.append((node.left, node.right, op_text, "arith"))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for i, op in enumerate(node.ops):
                    cmp_text = _UNIT_CMP_OPS.get(type(op))
                    if cmp_text is not None:
                        pairs.append(
                            (operands[i], operands[i + 1], cmp_text, "compare")
                        )
            if not pairs:
                continue
            env = self.units.env_for(node)
            for left, right, op_text, context in pairs:
                left_term = self.units.term_in_env(left, env)
                right_term = self.units.term_in_env(right, env)
                if not (
                    _informative_term(left_term)
                    and _informative_term(right_term)
                ):
                    continue
                if (
                    left_term[0] == "dim"
                    and right_term[0] == "dim"
                    and not dims_clash(left_term[1], right_term[1])
                ):
                    continue  # locally proven compatible
                line = node.lineno
                yield UnitSite(
                    line=line,
                    col=node.col_offset + 1,
                    end_line=self.ctx.statement_span(node)[1],
                    snippet=self.ctx.snippet(line),
                    op_text=op_text,
                    context=context,
                    left=left_term,
                    right=right_term,
                    left_display=_unparse(left),
                    right_display=_unparse(right),
                )

    def _eps_sites(self) -> Iterator[EpsSite]:
        for node in ast.walk(self.ctx.tree):
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))
            ):
                continue
            env = self.units.env_for(node)
            for eps, partner in (
                (node.right, node.left),
                (node.left, node.right),
            ):
                if not self._is_bare_eps(eps, env):
                    continue
                if self._is_bare_eps(partner, env):
                    break  # eps-to-eps arithmetic carries no scale
                context = self._eps_context(node)
                if not context:
                    break
                partner_term = self.units.term_in_env(partner, env)
                lineage = self._scaled_lineage(partner, env)
                if partner_term[0] == "dim":
                    dim = partner_term[1]
                    if dim in SCALED_DIMS and dim not in (WORK, TIME):
                        break  # utilization/speed are O(1): absolute eps is fine
                    if dim not in (WORK, TIME) and not lineage:
                        break  # no scale evidence at all
                line = node.lineno
                yield EpsSite(
                    line=line,
                    col=node.col_offset + 1,
                    end_line=self.ctx.statement_span(node)[1],
                    snippet=self.ctx.snippet(line),
                    context=context,
                    eps_display=_unparse(eps),
                    partner=partner_term,
                    partner_display=_unparse(partner),
                    lineage_dim=lineage,
                )
                break

    def _is_bare_eps(self, node: ast.expr, env: dict) -> bool:
        """An unscaled epsilon: a tiny literal or an eps-named constant."""
        if is_bare_epsilon_literal(node):
            return True
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        if not _EPS_NAME_RE.search(name):
            return False
        # a *scaled* epsilon (`tol = EPS * max(1.0, abs(t))`) folds to a
        # concrete scaled dimension and is exactly the sanctioned form
        term = self.units.term_in_env(node, env)
        return term in (("dim", DIMENSIONLESS), ("dim", UNKNOWN))

    def _eps_context(self, node: ast.BinOp) -> str:
        """``compare``/``floor`` when the epsilon decides a boundary."""
        cur: ast.AST = node
        for parent in self.ctx.parents(node):
            if isinstance(parent, ast.stmt):
                return ""
            if isinstance(parent, ast.Compare):
                return "compare"
            if isinstance(parent, ast.Call) and cur is not parent.func:
                func = parent.func
                if isinstance(func, ast.Name):
                    fname = func.id
                elif isinstance(func, ast.Attribute):
                    fname = func.attr
                else:
                    fname = ""
                if fname in _FLOOR_LIKE_FUNCS:
                    return "floor"
                return ""  # the call result, not our operand, is compared
            cur = parent
        return ""

    def _scaled_lineage(self, partner: ast.expr, env: dict) -> str:
        """First ``work``/``time`` dimension found inside the partner.

        ``(t - d) / p`` folds to dimensionless, but its ``t`` leaf
        proves the quotient was built from time-scale values — the
        historical ``floor(q + EPS)`` shape.
        """
        for sub in ast.walk(partner):
            if isinstance(sub, ast.expr):
                term = self.units.term_in_env(sub, env)
                if term[0] == "dim" and term[1] in (WORK, TIME):
                    return term[1]
        return ""

    def _unit_call_sites(self) -> Iterator[UnitCallSite]:
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.resolve_call(node)
            if resolved is None:
                continue
            env = self.units.env_for(node)
            args: list[tuple[str, str, tuple]] = []
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    continue
                term = self.units.term_in_env(arg, env)
                if _informative_term(term):
                    args.append((str(i), _unparse(arg), term))
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                term = self.units.term_in_env(kw.value, env)
                if _informative_term(term):
                    args.append((kw.arg, _unparse(kw.value), term))
            if not args:
                continue
            line = node.lineno
            yield UnitCallSite(
                line=line,
                col=node.col_offset + 1,
                end_line=self.ctx.statement_span(node)[1],
                snippet=self.ctx.snippet(line),
                module=resolved[0],
                name=resolved[1],
                args=tuple(args),
            )

    # -- assembly ------------------------------------------------------------

    def build(self) -> ModuleSummary:
        functions = tuple(self._function_summaries())
        return ModuleSummary(
            module=self.module,
            path=self.ctx.path,
            is_package=self.is_package,
            first_line=self.ctx.snippet(1),
            imports=tuple(self._imports),
            symbol_imports=tuple(
                (name, mod, orig)
                for name, (mod, orig) in sorted(self._symbol_imports.items())
            ),
            functions=functions,
            comparisons=tuple(self._comparison_sites()),
            rng_sites=tuple(self._rng_sites()),
            global_carriers=tuple(self._global_carriers()),
            capture_sites=tuple(self._captures),
            unit_sites=tuple(self._unit_sites()),
            eps_sites=tuple(self._eps_sites()),
            unit_calls=tuple(self._unit_call_sites()),
        )


def build_module_summary(ctx: FileContext) -> ModuleSummary:
    """Summarize one parsed module (phase 1's interprocedural output)."""
    return _SummaryBuilder(ctx).build()
