"""Phase 2's view of the project: import graph, call resolution, fixpoints.

Built from the :class:`~repro.lint.summaries.ModuleSummary` of every
analyzed file, never from ASTs — so the graph is cheap to rebuild each
run even when every module summary came out of the incremental cache.

The graph answers the three interprocedural questions the program rules
ask:

* does ``module.function`` produce a float on some return path
  (REP001), following ``return helper(...)`` chains across modules with
  a pessimistic fixpoint (cycles resolve to "not proven float");
* does ``module.function`` derive its return value from blessed seed
  material (REP008), with an optimistic fixpoint (a self-recursive
  derivation chain is innocent until a taint or unknown appears);
* which modules are reachable from a registry package's ``__init__``
  over project-internal import edges (REP009);
* what a function's **transitive effect set** is (REP011/REP012) — own
  effects plus everything reachable over resolved call edges, computed
  as a monotone set-once-per-tag fixpoint over the whole program;
* who calls ``module.function`` and from under which locks (REP006's
  caller-chain lock proof, REP013's fan-out provenance); and
* what **dimension** ``module.function`` returns (REP014-016) — a
  Kleene fixpoint from all-``unknown`` over every function's return
  dimension term.  The evaluator is monotone (``unknown`` absorbs), so
  each function's fact moves at most once and the iteration converges
  in at most ``#functions + 1`` deterministic rounds.
"""

from __future__ import annotations

from .summaries import CallSite, EffectSite, ModuleSummary, SeedProv, UnitSite
from .unitinfer import UNKNOWN, dims_clash, eval_term

__all__ = ["ProjectGraph"]


#: effect tags that make a function unsafe to memoize (REP011);
#: ``lock`` and ``memo-write`` are deliberately excluded — holding a
#: lock or writing a cache is not value-impurity
IMPURE_TAGS = frozenset(
    {
        "rng",
        "wall-clock",
        "io",
        "blocking",
        "process",
        "mutates-global",
        "mutates-param",
        "mutates-nonlocal",
    }
)

#: effect tags that stall the front end's event loop (REP012)
BLOCKING_TAGS = frozenset({"blocking", "process", "io", "lock"})


class ProjectGraph:
    """Whole-program facts derived from per-module summaries."""

    def __init__(
        self,
        summaries: list[ModuleSummary],
        registries: dict[str, str] | None = None,
    ) -> None:
        #: module name → summary, for every analyzed module
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in summaries
        }
        #: registry package → fnmatch pattern for member modules (REP009)
        self.registries: dict[str, str] = dict(registries or {})
        self._functions: dict[str, dict[str, object]] = {
            s.module: {fn.qualname: fn for fn in s.functions}
            for s in summaries
        }
        #: project-internal import edges (candidates filtered to members)
        self.import_edges: dict[str, tuple[str, ...]] = {
            s.module: tuple(
                m for m in s.imports if m in self.modules and m != s.module
            )
            for s in summaries
        }
        self._symbol_imports: dict[str, dict[str, tuple[str, str]]] = {
            s.module: {name: (mod, orig) for name, mod, orig in s.symbol_imports}
            for s in summaries
        }
        self._float_memo: dict[tuple[str, str], bool] = {}
        self._seed_memo: dict[tuple[str, str], tuple[bool, str]] = {}
        #: rounds the effect fixpoint took to converge (0 until computed;
        #: surfaced by ``repro lint --stats``)
        self.effect_iterations: int = 0
        self._effect_memo: dict[
            tuple[str, str], dict[str, tuple[str, tuple[str, ...]]]
        ] | None = None
        self._caller_index: dict[
            tuple[str, str], list[tuple[tuple[str, str], CallSite]]
        ] | None = None
        #: rounds the unit fixpoint took to converge (0 until computed;
        #: surfaced by ``repro lint --stats``)
        self.unit_iterations: int = 0
        self._return_dim_memo: dict[tuple[str, str], str] | None = None

    # -- symbol resolution ---------------------------------------------------

    def resolve(self, module: str, name: str) -> tuple[str, str] | None:
        """Follow re-export chains to the defining ``(module, function)``.

        ``from repro.core import dbf_bound`` re-exported through a
        package ``__init__`` resolves to the module that actually
        defines the function.  Returns ``None`` for external modules,
        unknown names, and re-export cycles.
        """
        seen: set[tuple[str, str]] = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if module not in self.modules:
                return None
            if name in self._functions[module]:
                return (module, name)
            origin = self._symbol_imports[module].get(name)
            if origin is None:
                # `from pkg import mod` style: the "symbol" may itself
                # be a submodule — nothing callable to resolve to
                return None
            module, name = origin
        return None

    def function(self, module: str, name: str):
        """The defining :class:`FunctionSummary`, or ``None``."""
        resolved = self.resolve(module, name)
        if resolved is None:
            return None
        return self._functions[resolved[0]][resolved[1]]

    # -- produces-float fixpoint (REP001) ------------------------------------

    def returns_float(self, module: str, name: str) -> bool:
        """Can a call to ``module.name`` produce a float?

        Pessimistic on cycles: a mutually recursive chain with no
        direct float evidence stays unproven, so REP001 never flags on
        speculation.
        """
        return self._returns_float((module, name), ())

    def _returns_float(
        self, key: tuple[str, str], stack: tuple[tuple[str, str], ...]
    ) -> bool:
        if key in self._float_memo:
            return self._float_memo[key]
        if key in stack:
            return False  # cycle: not proven
        resolved = self.resolve(*key)
        if resolved is None:
            return False
        fn = self._functions[resolved[0]][resolved[1]]
        result = fn.returns_float or any(
            self._returns_float(self.resolve(*dep) or dep, stack + (key,))
            for dep in fn.return_call_deps
        )
        self._float_memo[key] = result
        return result

    # -- derives-from-trial-seed fixpoint (REP008) ---------------------------

    def seed_ok(self, module: str, name: str) -> tuple[bool, str]:
        """Does every return of ``module.name`` derive from seed material?

        Returns ``(verdict, reason)`` where ``reason`` explains a
        ``False``.  Optimistic on cycles: recursion through the chain
        under test counts as derived, so only a genuine taint or
        unknown source breaks the verdict.
        """
        return self._seed_ok((module, name), ())

    def _seed_ok(
        self, key: tuple[str, str], stack: tuple[tuple[str, str], ...]
    ) -> tuple[bool, str]:
        if key in self._seed_memo:
            return self._seed_memo[key]
        if key in stack:
            return True, ""  # optimistic: the cycle alone is no taint
        resolved = self.resolve(*key)
        if resolved is None:
            return False, f"`{key[0]}.{key[1]}` is outside the analyzed program"
        fn = self._functions[resolved[0]][resolved[1]]
        if not fn.return_seed_provs:
            verdict = (
                False,
                f"`{key[0]}.{key[1]}` returns nothing seed-derived",
            )
            self._seed_memo[key] = verdict
            return verdict
        for prov in fn.return_seed_provs:
            ok, why = self.prov_verdict(prov, stack + (key,))
            if not ok:
                verdict = (False, why)
                self._seed_memo[key] = verdict
                return verdict
        self._seed_memo[key] = (True, "")
        return True, ""

    def prov_verdict(
        self,
        prov: SeedProv,
        _stack: tuple[tuple[str, str], ...] = (),
    ) -> tuple[bool, str]:
        """Judge one expression's provenance against the seed lattice."""
        if prov.taint:
            return False, prov.taint
        if prov.seed:
            return True, ""
        if prov.deps:
            for dep in prov.deps:
                ok, why = self._seed_ok(dep, _stack)
                if not ok:
                    return False, why
            return True, ""
        if prov.unknown:
            return False, prov.unknown
        return False, "value has no seed provenance"

    # -- transitive effects fixpoint (REP011-013) ----------------------------

    def effects(
        self, module: str, name: str
    ) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Transitive effect set of ``module.name``.

        Maps effect tag → ``(detail, chain)`` where ``chain`` is the
        ``module.qualname`` hops from this function to the one that
        exhibits the effect directly (empty for own effects).  Unknown
        or unresolvable functions have no proven effects (empty dict) —
        the rules stay silent rather than speculate.
        """
        if self._effect_memo is None:
            self._effect_memo = self._compute_effects()
        resolved = self.resolve(module, name)
        if resolved is None:
            return {}
        return self._effect_memo.get(resolved, {})

    def _compute_effects(
        self,
    ) -> dict[tuple[str, str], dict[str, tuple[str, tuple[str, ...]]]]:
        """One whole-program pass: propagate effects over call edges.

        Monotone and set-once per (function, tag), so the fixpoint
        converges in at most ``longest acyclic call chain`` rounds; the
        deterministic iteration order (sorted modules, definition order
        within each) makes the recorded chains reproducible across
        runs, jobs counts, and cache states.
        """
        facts: dict[
            tuple[str, str], dict[str, tuple[str, tuple[str, ...]]]
        ] = {}
        order: list[tuple[tuple[str, str], tuple[CallSite, ...]]] = []
        for module in sorted(self._functions):
            for qualname, fn in self._functions[module].items():
                key = (module, qualname)
                own: dict[str, tuple[str, tuple[str, ...]]] = {}
                for site in fn.effects:
                    assert isinstance(site, EffectSite)
                    own[site.tag] = (site.detail, ())
                facts[key] = own
                order.append((key, fn.calls))
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for key, calls in order:
                own = facts[key]
                for call in calls:
                    target = self.resolve(call.module, call.name)
                    if target is None or target == key:
                        continue
                    # a nested function's nonlocal mutation targets a
                    # local of the function it is nested in: from the
                    # enclosing function outward the effect is invisible
                    # (the classic `nodes += 1` search-budget closure)
                    nested_in_caller = target[0] == key[0] and target[
                        1
                    ].startswith(key[1] + ".")
                    for tag, (detail, chain) in facts[target].items():
                        if tag in own:
                            continue
                        if tag == "mutates-nonlocal" and nested_in_caller:
                            continue
                        own[tag] = (
                            detail,
                            (f"{target[0]}.{target[1]}",) + chain,
                        )
                        changed = True
        self.effect_iterations = rounds
        return facts

    # -- return-dimension fixpoint (REP014-016) ------------------------------

    def return_dim(self, module: str, name: str) -> str:
        """Dimension ``module.name`` returns (``unknown`` when unproven)."""
        if self._return_dim_memo is None:
            self._return_dim_memo = self._compute_return_dims()
        resolved = self.resolve(module, name)
        if resolved is None:
            return UNKNOWN
        return self._return_dim_memo.get(resolved, UNKNOWN)

    def eval_dim(self, term: tuple) -> str:
        """Evaluate a phase-1 dimension term against the fixpoint facts."""
        return eval_term(term, self.return_dim)

    def _compute_return_dims(self) -> dict[tuple[str, str], str]:
        """Kleene iteration from all-``unknown`` over return-dim terms.

        The term evaluator is monotone — ``unknown`` absorbs through
        every operator — so a function's fact moves at most once
        (``unknown`` → concrete) and never oscillates; cycles simply
        stay ``unknown``.  The deterministic order (sorted modules,
        definition order within each) makes the round count a pure
        function of the summaries, reproducible across ``--jobs``
        values and cache states.
        """
        dims: dict[tuple[str, str], str] = {}
        order: list[tuple[tuple[str, str], tuple]] = []
        for module in sorted(self._functions):
            for qualname, fn in self._functions[module].items():
                key = (module, qualname)
                dims[key] = UNKNOWN
                term = fn.return_dim_term  # type: ignore[attr-defined]
                if term is not None:
                    order.append((key, term))

        def lookup(mod: str, name: str) -> str:
            resolved = self.resolve(mod, name)
            if resolved is None:
                return UNKNOWN
            return dims.get(resolved, UNKNOWN)

        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for key, term in order:
                value = eval_term(term, lookup)
                if value != dims[key]:
                    dims[key] = value
                    changed = True
        self.unit_iterations = rounds
        return dims

    def unit_mismatches(
        self,
    ) -> list[tuple[ModuleSummary, UnitSite, str, str]]:
        """Every recorded unit site whose operand dimensions clash.

        Module order is sorted, site order is the deterministic phase-1
        walk order.
        """
        out: list[tuple[ModuleSummary, UnitSite, str, str]] = []
        for module in sorted(self.modules):
            summary = self.modules[module]
            for site in summary.unit_sites:
                left = self.eval_dim(site.left)
                right = self.eval_dim(site.right)
                if dims_clash(left, right):
                    out.append((summary, site, left, right))
        return out

    def param_expectations(
        self, module: str, name: str
    ) -> tuple[tuple[str, ...], dict[str, str]]:
        """``(positional order, name → expected dim)`` for a callee."""
        fn = self.function(module, name)
        if fn is None:
            return (), {}
        return fn.param_order, dict(fn.param_dims)  # type: ignore[attr-defined]

    # -- caller index (REP006, REP013) ---------------------------------------

    def callers_of(
        self, module: str, name: str
    ) -> list[tuple[tuple[str, str], CallSite]]:
        """Every resolved call site targeting ``module.name``.

        Returns ``((caller module, caller qualname), CallSite)`` pairs;
        the site's ``under_lock`` says whether the call is lexically
        inside a lock context in the caller.
        """
        if self._caller_index is None:
            index: dict[
                tuple[str, str], list[tuple[tuple[str, str], CallSite]]
            ] = {}
            for caller_module in sorted(self._functions):
                for qualname, fn in self._functions[caller_module].items():
                    for call in fn.calls:
                        target = self.resolve(call.module, call.name)
                        if target is None:
                            continue
                        index.setdefault(target, []).append(
                            ((caller_module, qualname), call)
                        )
            self._caller_index = index
        resolved = self.resolve(module, name)
        if resolved is None:
            return []
        return self._caller_index.get(resolved, [])

    # -- registry reachability (REP009) --------------------------------------

    def reachable_from(self, root: str) -> set[str]:
        """Modules reachable from ``root`` over project import edges."""
        if root not in self.modules:
            return set()
        seen = {root}
        frontier = [root]
        while frontier:
            module = frontier.pop()
            for dep in self.import_edges.get(module, ()):
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return seen

    # -- import-graph queries (incremental cache, pre-commit mode) -----------

    def importers_of(self, module: str) -> set[str]:
        """Transitive closure of modules that import ``module``."""
        reverse: dict[str, list[str]] = {}
        for src, deps in self.import_edges.items():
            for dep in deps:
                reverse.setdefault(dep, []).append(src)
        seen: set[str] = set()
        frontier = [module]
        while frontier:
            cur = frontier.pop()
            for importer in reverse.get(cur, ()):
                if importer not in seen:
                    seen.add(importer)
                    frontier.append(importer)
        return seen
