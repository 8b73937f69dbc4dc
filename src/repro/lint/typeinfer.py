"""Heuristic per-scope type inference for the lint rules.

The rules need to answer "is this expression float-valued?" (REP001,
REP004) and "is this expression a set?" (REP005) without running the
code.  Full type inference is out of scope; instead a forward pass over
each lexical scope propagates three kinds through the obvious channels:

* ``FLOAT`` — float scalars: float literals, division, ``math.*``
  results, known float attributes of the domain model (``utilization``,
  ``speed``, ...), annotated ``float`` parameters, and names assigned
  from any of those;
* ``FLOAT_SEQ`` — sequences of floats: ``[0.0] * m``, list/tuple
  literals of floats, comprehensions with float elements,
  ``sorted(<floats>)``, ``np.zeros`` and friends — so that
  ``loads[j]`` infers ``FLOAT``;
* ``SET`` — ``set``/``frozenset`` values: literals, comprehensions,
  constructor calls, and annotated names.

The pass is deliberately conservative: an expression it cannot classify
gets ``None`` and the rules stay silent.  False negatives are the cost
of near-zero false positives — the same trade every production linter
makes.
"""

from __future__ import annotations

import ast
from typing import Final

__all__ = ["FLOAT", "FLOAT_SEQ", "SET", "TypeInference"]

FLOAT: Final = "float"
FLOAT_SEQ: Final = "float_seq"
SET: Final = "set"

#: Attributes of the domain model that are float-valued wherever they
#: appear (Task/TaskSet/Machine/Platform/report fields and aliases).
FLOAT_ATTRS: Final[frozenset[str]] = frozenset(
    {
        "utilization",
        "total_utilization",
        "max_utilization",
        "density",
        "total_density",
        "wcet",
        "period",
        "deadline",
        "speed",
        "total_speed",
        "fastest_speed",
        "slowest_speed",
        "heterogeneity_ratio",
        "load",
        "stress",
        "alpha",
        "slack",
        "total",
        "wall_time",
        "cpu_time",
        "hit_ratio",
    }
)

#: Module-level constant names that are floats in this codebase.
FLOAT_NAMES: Final[frozenset[str]] = frozenset(
    {"EPS", "LP_TOL", "SQRT2", "LN2"}
)

#: Bare-name calls returning floats.
FLOAT_FUNCS: Final[frozenset[str]] = frozenset({"float", "fsum", "hypot"})

#: ``math.<fn>`` calls returning floats (``floor``/``ceil``/``lcm``
#: return ints in Python 3 and are deliberately absent).
FLOAT_MATH_FUNCS: Final[frozenset[str]] = frozenset(
    {
        "fsum",
        "sqrt",
        "log",
        "log1p",
        "log2",
        "log10",
        "exp",
        "expm1",
        "fabs",
        "hypot",
        "pow",
        "copysign",
        "fmod",
        "dist",
    }
)

#: ``np.<fn>`` / ``numpy.<fn>`` calls returning float arrays.
FLOAT_SEQ_NUMPY_FUNCS: Final[frozenset[str]] = frozenset(
    {"zeros", "ones", "full", "linspace", "geomspace", "logspace", "array"}
)

#: min/max/abs/sum propagate floatness from their arguments.
_PROPAGATING_FUNCS: Final[frozenset[str]] = frozenset({"min", "max", "abs", "sum"})


def _func_name(call: ast.Call) -> str | None:
    """Bare name of the called function, if it is a plain ``Name``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _attr_call(call: ast.Call) -> tuple[str, str] | None:
    """``(base_name, attr)`` for single-dot calls like ``math.sqrt(x)``."""
    if isinstance(call.func, ast.Attribute) and isinstance(
        call.func.value, ast.Name
    ):
        return call.func.value.id, call.func.attr
    return None


def _annotation_kind(ann: ast.expr | None) -> str | None:
    """Kind implied by a type annotation, if any."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        if ann.id == "float":
            return FLOAT
        if ann.id in ("set", "frozenset"):
            return SET
    if isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name):
        base = ann.value.id
        if base in ("set", "frozenset", "Set", "FrozenSet", "MutableSet"):
            return SET
        if base in ("list", "tuple", "List", "Tuple", "Sequence"):
            inner = ann.slice
            if isinstance(inner, ast.Name) and inner.id == "float":
                return FLOAT_SEQ
            if isinstance(inner, ast.Tuple) and all(
                isinstance(e, ast.Name) and e.id == "float"
                for e in inner.elts
                if not isinstance(e, ast.Constant)
            ):
                return FLOAT_SEQ
    return None


class TypeInference:
    """Scope-aware kind inference for one parsed module.

    Build once per file; query with :meth:`kind_of` / :meth:`is_float` /
    :meth:`is_set`.  Requires parent links (``_repro_parent``) on the
    tree, which :mod:`repro.lint.engine` attaches before running rules.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._envs: dict[ast.AST, dict[str, str]] = {}
        self._build_scope(tree, parent_env=None)

    # -- scope construction -------------------------------------------------

    def _build_scope(
        self, scope: ast.AST, parent_env: dict[str, str] | None
    ) -> None:
        env: dict[str, str] = dict(parent_env or {})
        self._envs[scope] = env
        args = getattr(scope, "args", None)
        if args is not None:
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ]:
                kind = _annotation_kind(arg.annotation)
                if kind is not None:
                    env[arg.arg] = kind
        body = getattr(scope, "body", [])
        if isinstance(body, list):
            self._walk_statements(body, env)

    def _walk_statements(self, stmts: list[ast.stmt], env: dict[str, str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._build_scope(stmt, parent_env=env)
                continue
            if isinstance(stmt, ast.ClassDef):
                # class bodies share the enclosing env read-only; their
                # methods each get a child scope.
                self._walk_statements(stmt.body, dict(env))
                continue
            self._bind_expressions(stmt, env)
            if isinstance(stmt, ast.Assign):
                kind = self.kind_in_env(stmt.value, env)
                if kind is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = kind
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                kind = _annotation_kind(stmt.annotation)
                if kind is None and stmt.value is not None:
                    kind = self.kind_in_env(stmt.value, env)
                if kind is not None:
                    env[stmt.target.id] = kind
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # kind propagation: `x /= m` is float regardless of x,
                # `x += 0.5` promotes x, `count += 1` stays unknown
                if isinstance(stmt.op, ast.Div):
                    env[stmt.target.id] = FLOAT
                elif (
                    self.kind_in_env(stmt.value, env) == FLOAT
                    or env.get(stmt.target.id) == FLOAT
                ):
                    env[stmt.target.id] = FLOAT
            # recurse into compound statements (same lexical scope)
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
            items = getattr(stmt, "items", None)
            if items:  # with-statement: `as` targets stay unknown
                pass

    def _bind_expressions(self, stmt: ast.stmt, env: dict[str, str]) -> None:
        """Expression-level bindings inside one statement.

        Walrus targets bind in the enclosing scope; comprehensions get a
        child environment (registered in ``_envs``) carrying their loop
        targets, so ``loads[j]``-style element kinds survive into the
        comprehension body.  Nested function bodies are handled by their
        own scope and skipped here.
        """
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its own scope; _build_scope handles it
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                kind = self.kind_in_env(node.value, env)
                if kind is not None:
                    env[node.target.id] = kind
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                comp_env = dict(env)
                for gen in node.generators:
                    if (
                        isinstance(gen.target, ast.Name)
                        and self.kind_in_env(gen.iter, comp_env) == FLOAT_SEQ
                    ):
                        comp_env[gen.target.id] = FLOAT
                self._envs[node] = comp_env

    # -- queries ------------------------------------------------------------

    def env_for(self, node: ast.AST) -> dict[str, str]:
        """Environment of the nearest enclosing scope of ``node``."""
        cur: ast.AST | None = node
        while cur is not None:
            if cur in self._envs:
                return self._envs[cur]
            cur = getattr(cur, "_repro_parent", None)
        return {}

    def kind_of(self, node: ast.expr) -> str | None:
        return self.kind_in_env(node, self.env_for(node))

    def is_float(self, node: ast.expr) -> bool:
        return self.kind_of(node) == FLOAT

    def is_set(self, node: ast.expr) -> bool:
        return self.kind_of(node) == SET

    # -- expression inference -----------------------------------------------

    def kind_in_env(
        self, node: ast.expr, env: dict[str, str]
    ) -> str | None:  # noqa: C901 - one dispatch table, clearer flat
        if isinstance(node, ast.Constant):
            return FLOAT if isinstance(node.value, float) else None
        if isinstance(node, ast.Name):
            if node.id in FLOAT_NAMES:
                return FLOAT
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in FLOAT_ATTRS:
                return FLOAT
            if node.attr in ("inf", "nan", "pi", "e", "tau") and isinstance(
                node.value, ast.Name
            ):
                return FLOAT
            return None
        if isinstance(node, ast.UnaryOp):
            return self.kind_in_env(node.operand, env)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return FLOAT
            left = self.kind_in_env(node.left, env)
            right = self.kind_in_env(node.right, env)
            if FLOAT in (left, right):
                return FLOAT
            # [0.0] * m and friends
            if isinstance(node.op, (ast.Mult, ast.Add)) and FLOAT_SEQ in (
                left,
                right,
            ):
                return FLOAT_SEQ
            return None
        if isinstance(node, ast.NamedExpr):
            return self.kind_in_env(node.value, env)
        if isinstance(node, ast.IfExp):
            return self.kind_in_env(node.body, env) or self.kind_in_env(
                node.orelse, env
            )
        if isinstance(node, (ast.List, ast.Tuple)):
            kinds = [self.kind_in_env(e, env) for e in node.elts]
            if kinds and all(k == FLOAT for k in kinds):
                return FLOAT_SEQ
            return None
        if isinstance(node, ast.Set):
            return SET
        if isinstance(node, ast.SetComp):
            return SET
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # the comprehension's own env (with loop targets bound) when
            # the binding pass saw it; the enclosing env otherwise
            if self.kind_in_env(node.elt, self._envs.get(node, env)) == FLOAT:
                return FLOAT_SEQ
            return None
        if isinstance(node, ast.Subscript):
            base = self.kind_in_env(node.value, env)
            if base == FLOAT_SEQ and not isinstance(node.slice, ast.Slice):
                return FLOAT
            if base == FLOAT_SEQ and isinstance(node.slice, ast.Slice):
                return FLOAT_SEQ
            return None
        if isinstance(node, ast.Call):
            return self._call_kind(node, env)
        return None

    def _call_kind(self, node: ast.Call, env: dict[str, str]) -> str | None:
        name = _func_name(node)
        if name is not None:
            if name in FLOAT_FUNCS:
                return FLOAT
            if name in ("set", "frozenset"):
                return SET
            if name in _PROPAGATING_FUNCS:
                for arg in node.args:
                    kind = self.kind_in_env(arg, env)
                    if kind == FLOAT:
                        return FLOAT
                    if kind == FLOAT_SEQ:
                        return FLOAT
                return None
            if name in ("sorted", "list", "tuple", "reversed"):
                if node.args and self.kind_in_env(node.args[0], env) in (
                    FLOAT_SEQ,
                    SET,  # sorted(set-of-floats) → ordered list
                ):
                    return FLOAT_SEQ
                return None
            if name == "reduce":
                return self._reduce_kind(node, env)
            return None
        dotted = _attr_call(node)
        if dotted is not None:
            base, attr = dotted
            if base == "math" and attr in FLOAT_MATH_FUNCS:
                return FLOAT
            if base in ("np", "numpy") and attr in FLOAT_SEQ_NUMPY_FUNCS:
                return FLOAT_SEQ
            if base == "functools" and attr == "reduce":
                return self._reduce_kind(node, env)
        return None

    def _reduce_kind(self, node: ast.Call, env: dict[str, str]) -> str | None:
        """``reduce(op, floats[, initial])`` folds to a float."""
        if len(node.args) >= 2 and self.kind_in_env(node.args[1], env) == FLOAT_SEQ:
            return FLOAT
        if len(node.args) >= 3 and self.kind_in_env(node.args[2], env) == FLOAT:
            return FLOAT
        return None
