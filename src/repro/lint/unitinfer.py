"""Quantity-dimension abstract domain for the lint rules (REP014-016).

Every theorem this repo reproduces is arithmetic over typed physical
quantities: **work** (``wcet`` on a unit-speed machine), **time**
(``period``, ``deadline``, QPA test points), **speed** (work/time) and
**rate** (also work/time: utilization and density), plus dimensionless
scalars.  The worst shipped bug in this repo's history — the pre-PR-8
``dbf()`` boundary test — was a dimension-discipline failure: an
absolute ``EPS`` applied to time-scale values near ``1e12``.

This module defines the abstract domain those rules interpret over:

* **dimensions** as named points over ``(work, time)`` exponent
  vectors — ``work=(1,0)``, ``time=(0,1)``, ``speed=rate=(1,-1)``,
  ``dimensionless=(0,0)`` — so multiplication/division is exponent
  arithmetic (``time * rate -> work``, ``work / speed -> time``,
  ``rate / speed -> dimensionless``) and addition/comparison demands
  matching vectors.  ``speed`` and ``rate`` are distinct *flavors* of
  the same vector: comparing a task-set utilization against a machine
  speed is the core feasibility test and must never be flagged;
* **dimension terms** — small picklable tuple trees built per function
  in phase 1.  A term either folds to a concrete dimension locally or
  records ``("call", module, name)`` leaves that phase 2 resolves over
  the project call graph (:meth:`ProjectGraph.eval_dim`);
* :class:`UnitInference` — a scope-aware forward pass (the shape of
  :class:`~repro.lint.typeinfer.TypeInference`) binding a dimension
  term to every name.  Seeding is heuristic: domain-model attribute
  names (``wcet``, ``period``, ``speed``, ...), parameter names
  (``t``, ``horizon``, ``u``, ...), ``int`` annotations (counts are
  dimensionless) and numeric literals.  Assigned locals trust the
  environment *strictly* — a local named ``t`` that holds a Neumaier
  partial sum must not inherit the ``time`` heuristic.

The pass is conservative by design: anything it cannot classify is
``unknown``, and ``unknown`` silences every rule.  False negatives are
the price of near-zero false positives.
"""

from __future__ import annotations

import ast
from typing import Callable, Final, Iterable

__all__ = [
    "WORK",
    "TIME",
    "SPEED",
    "RATE",
    "DIMENSIONLESS",
    "UNKNOWN",
    "CONFLICT",
    "SCALED_DIMS",
    "DIM_VECTORS",
    "DimTerm",
    "dim_mul",
    "dim_div",
    "dim_join",
    "dims_clash",
    "term_mul",
    "term_div",
    "term_join",
    "term_has_call",
    "eval_term",
    "is_bare_epsilon_literal",
    "param_dim_for",
    "UnitInference",
]

WORK: Final = "work"
TIME: Final = "time"
SPEED: Final = "speed"
RATE: Final = "rate"
DIMENSIONLESS: Final = "dimensionless"
UNKNOWN: Final = "unknown"
CONFLICT: Final = "conflict"

#: dimensions that carry a physical scale (everything the mismatch
#: rules can actually clash)
SCALED_DIMS: Final[frozenset[str]] = frozenset({WORK, TIME, SPEED, RATE})

#: ``(work exponent, time exponent)`` per concrete dimension
DIM_VECTORS: Final[dict[str, tuple[int, int]]] = {
    WORK: (1, 0),
    TIME: (0, 1),
    SPEED: (1, -1),
    RATE: (1, -1),
    DIMENSIONLESS: (0, 0),
}

#: vector → preferred dimension name for product/quotient results;
#: ``(1, -1)`` reads as ``rate`` (work per time) unless a ``speed``
#: operand forces the flavor
_VECTOR_DIMS: Final[dict[tuple[int, int], str]] = {
    (1, 0): WORK,
    (0, 1): TIME,
    (1, -1): RATE,
    (0, 0): DIMENSIONLESS,
}

#: a dimension term: ``("dim", name)``, ``("call", module, qualname)``,
#: ``("mul", a, b)``, ``("div", a, b)`` or ``("join", t1, t2, ...)``
DimTerm = tuple  # recursive tuple trees; kept loose for pickling


# ---------------------------------------------------------------------------
# dimension algebra
# ---------------------------------------------------------------------------


def _flavored(vector: tuple[int, int], a: str, b: str) -> str:
    """Dimension name for a product/quotient result vector."""
    if vector == (1, -1) and SPEED in (a, b):
        # speed begets speed: `platform.total_speed * share` stays a
        # speed, never a rate
        return SPEED
    name = _VECTOR_DIMS.get(vector)
    return name if name is not None else UNKNOWN


def dim_mul(a: str, b: str) -> str:
    """Dimension of ``a * b``; ``unknown`` absorbs, conflicts degrade."""
    if a in (UNKNOWN, CONFLICT) or b in (UNKNOWN, CONFLICT):
        return UNKNOWN
    va, vb = DIM_VECTORS[a], DIM_VECTORS[b]
    return _flavored((va[0] + vb[0], va[1] + vb[1]), a, b)


def dim_div(a: str, b: str) -> str:
    """Dimension of ``a / b``: ``work/time -> rate``, ``work/speed -> time``."""
    if a in (UNKNOWN, CONFLICT) or b in (UNKNOWN, CONFLICT):
        return UNKNOWN
    va, vb = DIM_VECTORS[a], DIM_VECTORS[b]
    vector = (va[0] - vb[0], va[1] - vb[1])
    if vector == (1, -1):
        # dividing by time yields a rate; splitting a speed keeps the
        # speed flavor (`fastest_speed / heterogeneity_ratio`)
        return SPEED if a == SPEED else RATE
    name = _VECTOR_DIMS.get(vector)
    return name if name is not None else UNKNOWN


def dim_join(dims: Iterable[str]) -> str:
    """Dimension shared by added/compared/merged operands.

    ``dimensionless`` is the identity (accumulators start at ``0.0``,
    epsilons scale by ``1.0``); ``unknown`` absorbs; concretely mixed
    vectors degrade to ``unknown`` — the *operator sites* judge
    mismatches, propagation never manufactures a conflict.
    """
    result = ""
    flavor = ""
    for dim in dims:
        if dim == DIMENSIONLESS:
            continue
        if dim in (UNKNOWN, CONFLICT):
            return UNKNOWN
        if not result:
            result, flavor = dim, dim
            continue
        if DIM_VECTORS[dim] != DIM_VECTORS[result]:
            return UNKNOWN
        if dim != flavor:
            # speed joined with rate: same vector, keep the first flavor
            continue
    return result or DIMENSIONLESS


def dims_clash(a: str, b: str) -> bool:
    """True when two *concrete scaled* dimensions cannot mix."""
    if a not in SCALED_DIMS or b not in SCALED_DIMS:
        return False
    return DIM_VECTORS[a] != DIM_VECTORS[b]


# ---------------------------------------------------------------------------
# dimension terms (phase 1 → phase 2 hand-off)
# ---------------------------------------------------------------------------

_DIM_UNKNOWN: Final[DimTerm] = ("dim", UNKNOWN)
_DIM_DIMENSIONLESS: Final[DimTerm] = ("dim", DIMENSIONLESS)


def _fold2(tag: str, a: DimTerm, b: DimTerm, op: Callable[[str, str], str]) -> DimTerm:
    if a[0] == "dim" and b[0] == "dim":
        return ("dim", op(a[1], b[1]))
    return (tag, a, b)


def term_mul(a: DimTerm, b: DimTerm) -> DimTerm:
    return _fold2("mul", a, b, dim_mul)


def term_div(a: DimTerm, b: DimTerm) -> DimTerm:
    return _fold2("div", a, b, dim_div)


def term_join(terms: Iterable[DimTerm]) -> DimTerm:
    parts = tuple(terms)
    if not parts:
        return _DIM_UNKNOWN
    if all(t[0] == "dim" for t in parts):
        return ("dim", dim_join(t[1] for t in parts))
    return ("join",) + parts


def term_has_call(term: DimTerm) -> bool:
    """Does this term depend on any project function's return dimension?"""
    tag = term[0]
    if tag == "call":
        return True
    if tag == "dim":
        return False
    return any(term_has_call(sub) for sub in term[1:])


def eval_term(term: DimTerm, return_dim: Callable[[str, str], str]) -> str:
    """Evaluate a term to a concrete dimension name.

    ``return_dim(module, name)`` supplies the current return-dimension
    fact for project calls — the phase-2 fixpoint's read channel.
    Monotone in its inputs (``unknown`` absorbs everywhere), which is
    what lets the Kleene iteration in :class:`ProjectGraph` terminate.
    """
    tag = term[0]
    if tag == "dim":
        return term[1]
    if tag == "call":
        return return_dim(term[1], term[2])
    if tag == "mul":
        return dim_mul(
            eval_term(term[1], return_dim), eval_term(term[2], return_dim)
        )
    if tag == "div":
        return dim_div(
            eval_term(term[1], return_dim), eval_term(term[2], return_dim)
        )
    if tag == "join":
        return dim_join(eval_term(sub, return_dim) for sub in term[1:])
    return UNKNOWN


# ---------------------------------------------------------------------------
# heuristic seed tables
# ---------------------------------------------------------------------------

#: domain-model attribute names with a known dimension — applied to any
#: ``x.<attr>`` regardless of receiver (mirrors typeinfer.FLOAT_ATTRS)
DIM_ATTRS: Final[dict[str, str]] = {
    "wcet": WORK,
    "wcets": WORK,
    "period": TIME,
    "periods": TIME,
    "deadline": TIME,
    "deadlines": TIME,
    "d_min": TIME,
    "d_max": TIME,
    "speed": SPEED,
    "speeds": SPEED,
    "total_speed": SPEED,
    "fastest_speed": SPEED,
    "slowest_speed": SPEED,
    "utilization": RATE,
    "utilizations": RATE,
    "total_utilization": RATE,
    "max_utilization": RATE,
    "total_u": RATE,
    "density": RATE,
    "densities": RATE,
    "total_density": RATE,
    "heterogeneity_ratio": DIMENSIONLESS,
    "hit_ratio": DIMENSIONLESS,
}

#: parameter-name heuristics, bound once at scope construction; a local
#: *assignment* to one of these names replaces the heuristic entirely
PARAM_DIMS: Final[dict[str, str]] = {
    "t": TIME,
    "horizon": TIME,
    "deadline": TIME,
    "deadlines": TIME,
    "period": TIME,
    "periods": TIME,
    "interval": TIME,
    "due": TIME,
    "dt": TIME,
    "wcet": WORK,
    "wcets": WORK,
    "work": WORK,
    "demand": WORK,
    "speed": SPEED,
    "speeds": SPEED,
    "u": RATE,
    "util": RATE,
    "utilization": RATE,
    "utilizations": RATE,
    "density": RATE,
    "eps": DIMENSIONLESS,
    "alpha": DIMENSIONLESS,
    "n": DIMENSIONLESS,
    "m": DIMENSIONLESS,
}

#: free names (module constants, often imported) with known dimension
FREE_NAME_DIMS: Final[dict[str, str]] = {
    "EPS": DIMENSIONLESS,
    "LP_TOL": DIMENSIONLESS,
    "SQRT2": DIMENSIONLESS,
    "LN2": DIMENSIONLESS,
    "HAN_ZHAO_SPEEDUP": DIMENSIONLESS,
}

#: calls whose result joins the dimensions of their positional args.
#: ``tol_floor`` is the scale-aware floor helper: dimension-preserving
#: by construction.  Matched on the bare name or last attribute segment
#: (``math.floor``, ``np.maximum``).
_PASSTHROUGH_FUNCS: Final[frozenset[str]] = frozenset(
    {
        "abs",
        "fabs",
        "float",
        "floor",
        "ceil",
        "fsum",
        "max",
        "maximum",
        "min",
        "minimum",
        "round",
        "sorted",
        "sum",
        "tol_floor",
        "array",
        "asarray",
    }
)

#: calls whose result is a pure count/flag
_DIMENSIONLESS_FUNCS: Final[frozenset[str]] = frozenset({"len", "range", "bool"})


def _annotation_dimensionless(ann: ast.expr | None) -> bool:
    """``int``-annotated parameters are counts, not quantities."""
    return isinstance(ann, ast.Name) and ann.id == "int"


def param_dim_for(arg: ast.arg) -> str | None:
    """Heuristic dimension of one parameter, or ``None``."""
    dim = PARAM_DIMS.get(arg.arg)
    if dim is not None:
        return dim
    if _annotation_dimensionless(arg.annotation):
        return DIMENSIONLESS
    return None


def is_bare_epsilon_literal(node: ast.expr) -> bool:
    """A float literal small enough to be an absolute tolerance."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-3
    )


def _callee_name(call: ast.Call) -> str | None:
    """Bare name or last attribute segment of the called function."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------------
# the per-module inference pass
# ---------------------------------------------------------------------------


class UnitInference:
    """Scope-aware dimension-term inference for one parsed module.

    Build once per file (phase 1); query with :meth:`term_of`.  Needs
    parent links (``_repro_parent``) on the tree, and the builder's
    ``resolve_call`` to turn project calls into ``("call", ...)``
    leaves phase 2 can evaluate.
    """

    def __init__(
        self,
        tree: ast.Module,
        resolve_call: Callable[[ast.Call], tuple[str, str] | None],
    ) -> None:
        self._resolve_call = resolve_call
        self._envs: dict[ast.AST, dict[str, DimTerm]] = {}
        self._build_scope(tree, parent_env=None)

    # -- scope construction --------------------------------------------------

    def _build_scope(
        self, scope: ast.AST, parent_env: dict[str, DimTerm] | None
    ) -> None:
        env: dict[str, DimTerm] = dict(parent_env or {})
        self._envs[scope] = env
        args = getattr(scope, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                dim = param_dim_for(arg)
                # strict: a parameter with no heuristic is unknown, and
                # so is any local until assigned
                env[arg.arg] = ("dim", dim) if dim is not None else _DIM_UNKNOWN
        body = getattr(scope, "body", [])
        if isinstance(body, list):
            self._walk_statements(body, env)

    def _walk_statements(
        self, stmts: list[ast.stmt], env: dict[str, DimTerm]
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._build_scope(stmt, parent_env=env)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._walk_statements(stmt.body, dict(env))
                continue
            self._bind_expressions(stmt, env)
            if isinstance(stmt, ast.Assign):
                term = self.term_in_env(stmt.value, env)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = term
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if _annotation_dimensionless(stmt.annotation):
                    env[stmt.target.id] = _DIM_DIMENSIONLESS
                elif stmt.value is not None:
                    env[stmt.target.id] = self.term_in_env(stmt.value, env)
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                old = env.get(stmt.target.id, _DIM_UNKNOWN)
                value = self.term_in_env(stmt.value, env)
                if isinstance(stmt.op, (ast.Mult,)):
                    env[stmt.target.id] = term_mul(old, value)
                elif isinstance(stmt.op, (ast.Div, ast.FloorDiv)):
                    env[stmt.target.id] = term_div(old, value)
                elif isinstance(stmt.op, (ast.Add, ast.Sub)):
                    env[stmt.target.id] = term_join((old, value))
                else:
                    env[stmt.target.id] = _DIM_UNKNOWN
            elif isinstance(stmt, ast.For) and isinstance(
                stmt.target, ast.Name
            ):
                # elements of a dimension-carrying container share its
                # dimension (`for d in task.deadlines`)
                env[stmt.target.id] = self.term_in_env(stmt.iter, env)
            for field_name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field_name, None)
                if isinstance(inner, list):
                    self._walk_statements(
                        [s for s in inner if isinstance(s, ast.stmt)], env
                    )
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for handler in handlers:
                    self._walk_statements(handler.body, env)

    def _bind_expressions(
        self, stmt: ast.stmt, env: dict[str, DimTerm]
    ) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its own scope
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                env[node.target.id] = self.term_in_env(node.value, env)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                comp_env = dict(env)
                for gen in node.generators:
                    if isinstance(gen.target, ast.Name):
                        comp_env[gen.target.id] = self.term_in_env(
                            gen.iter, comp_env
                        )
                self._envs[node] = comp_env

    # -- queries -------------------------------------------------------------

    def env_for(self, node: ast.AST) -> dict[str, DimTerm]:
        cur: ast.AST | None = node
        while cur is not None:
            if cur in self._envs:
                return self._envs[cur]
            cur = getattr(cur, "_repro_parent", None)
        return {}

    def term_of(self, node: ast.expr) -> DimTerm:
        return self.term_in_env(node, self.env_for(node))

    def dim_of(self, node: ast.expr) -> str:
        """Locally foldable dimension (``unknown`` when calls intrude)."""
        term = self.term_of(node)
        return term[1] if term[0] == "dim" else UNKNOWN

    # -- expression inference ------------------------------------------------

    def term_in_env(
        self, node: ast.expr, env: dict[str, DimTerm]
    ) -> DimTerm:  # noqa: C901 - one dispatch table, clearer flat
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return _DIM_DIMENSIONLESS
            return _DIM_UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            dim = FREE_NAME_DIMS.get(node.id)
            return ("dim", dim) if dim is not None else _DIM_UNKNOWN
        if isinstance(node, ast.Attribute):
            dim = DIM_ATTRS.get(node.attr)
            return ("dim", dim) if dim is not None else _DIM_UNKNOWN
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return _DIM_UNKNOWN
            return self.term_in_env(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self.term_in_env(node.left, env)
            right = self.term_in_env(node.right, env)
            if isinstance(node.op, ast.Mult):
                return term_mul(left, right)
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                return term_div(left, right)
            if isinstance(node.op, (ast.Add, ast.Sub, ast.Mod)):
                return term_join((left, right))
            return _DIM_UNKNOWN
        if isinstance(node, ast.NamedExpr):
            return self.term_in_env(node.value, env)
        if isinstance(node, ast.IfExp):
            return term_join(
                (
                    self.term_in_env(node.body, env),
                    self.term_in_env(node.orelse, env),
                )
            )
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            if not node.elts:
                return _DIM_UNKNOWN
            return term_join(
                self.term_in_env(e, env) for e in node.elts
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.term_in_env(node.elt, self._envs.get(node, env))
        if isinstance(node, ast.Starred):
            return self.term_in_env(node.value, env)
        if isinstance(node, ast.Subscript):
            # containers carry their element dimension; slicing keeps it
            return self.term_in_env(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_term(node, env)
        return _DIM_UNKNOWN

    def _call_term(self, node: ast.Call, env: dict[str, DimTerm]) -> DimTerm:
        name = _callee_name(node)
        if name in _DIMENSIONLESS_FUNCS:
            return _DIM_DIMENSIONLESS
        if name in _PASSTHROUGH_FUNCS:
            args = node.args
            if not args:
                return _DIM_UNKNOWN
            return term_join(self.term_in_env(a, env) for a in args)
        if name == "where" and len(node.args) == 3:
            # np.where(cond, a, b): the condition carries no dimension
            return term_join(
                self.term_in_env(a, env) for a in node.args[1:]
            )
        resolved = self._resolve_call(node)
        if resolved is not None:
            return ("call", resolved[0], resolved[1])
        return _DIM_UNKNOWN
