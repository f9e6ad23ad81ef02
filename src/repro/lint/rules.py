"""simlint rules SL01–SL05.

Each rule protects one leg of the simulator's determinism contract; the
class docstring is the rationale, mirrored in DESIGN.md §16.  Findings
are resolved by *fixing* the code, by wrapping the iteration in
``sorted()``, by an ``# simlint: ordered -- reason`` proof comment
(SL01), or — last resort — by ``# simlint: disable=RULE -- reason``.
"""

from __future__ import annotations

import ast
import re

from .engine import LintContext, Rule

__all__ = ["SL01", "SL02", "SL03", "SL04", "SL05", "all_rules"]


def _qualname(node: ast.AST, ctx: LintContext) -> str | None:
    """Resolve a Name/Attribute chain to a dotted module-qualified name."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = cur.id
    if base in ctx.module_aliases:
        root = ctx.module_aliases[base]
    elif base in ctx.from_imports:
        root = ctx.from_imports[base]
    else:
        return None
    return ".".join([root, *reversed(parts)]) if parts else root


class SL01(Rule):
    """No unordered ``set``/``dict``-view iteration feeding simulation state.

    Iteration order over dict views is insertion order and over sets is
    hash order; both are invisible inputs to the event schedule.  One
    such loop in a repair or eviction path silently invalidates every
    pinned golden digest.  Inside the state-bearing packages, every loop
    over ``.keys()``/``.values()``/``.items()`` or over a set must either
    go through ``sorted()`` or carry an ``# simlint: ordered -- reason``
    comment proving the order is deterministic by construction.
    """

    id = "SL01"

    def _check_iter(self, owner: ast.AST, it: ast.expr, ctx: LintContext) -> None:
        label = self._unordered_label(it, ctx)
        if label is None:
            return
        lines = set(ctx.node_lines(owner)) | set(ctx.node_lines(it))
        if ctx.pragmas.ordered(lines):
            return
        ctx.report(self.id, it,
                   f"iteration over {label} feeds simulation state; wrap in "
                   "sorted() or add `# simlint: ordered -- <why the order is "
                   "deterministic>`")

    # Wrappers that preserve their argument's iteration order — an
    # unordered source stays unordered through them.
    _TRANSPARENT = ("enumerate", "zip", "reversed", "iter", "chain")
    # Order-sensitive consumers: the result (or float accumulation
    # order) depends on iteration order.  min/max/any/all/len are
    # order-insensitive and deliberately not listed.
    _CONSUMERS = ("list", "tuple", "sum")

    @classmethod
    def _unordered_label(cls, it: ast.expr, ctx: LintContext) -> str | None:
        if isinstance(it, ast.Call) and not it.args and not it.keywords \
                and isinstance(it.func, ast.Attribute) \
                and it.func.attr in ("keys", "values", "items"):
            return f"a dict .{it.func.attr}() view"
        if isinstance(it, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id not in ctx.from_imports:
            if it.func.id in ("set", "frozenset"):
                return f"a {it.func.id}()"
            if it.func.id in cls._TRANSPARENT:
                for arg in it.args:
                    label = cls._unordered_label(arg, ctx)
                    if label is not None:
                        return f"{label} (through {it.func.id}())"
        return None

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        self._check_iter(node, node.iter, ctx)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Order-sensitive consumers applied directly to an unordered view
        (``list(d.values())``, ``sum(ages.values())``)."""
        if not (isinstance(node.func, ast.Name)
                and node.func.id in self._CONSUMERS
                and node.func.id not in ctx.from_imports):
            return
        for arg in node.args:
            self._check_iter(node, arg, ctx)

    def _visit_comp(self, node: ast.AST, ctx: LintContext) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iter(node, gen.iter, ctx)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock",
}
_DATETIME_AMBIENT = {
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
# numpy.random attributes that are *types/constructors*, not draws from
# the ambient global state.  default_rng is checked at the call site.
_NP_RANDOM_OK = {
    "Generator", "SeedSequence", "BitGenerator", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "default_rng",
}


class SL02(Rule):
    """No wall-clock or ambient randomness outside ``repro.sim.rng``.

    Wall-clock reads (``time.time``, ``datetime.now``) and ambient RNG
    state (bare ``random.*``, ``numpy.random.*`` module functions, or an
    unseeded ``default_rng()``) make results depend on when and in what
    process order the simulator runs.  All randomness must flow from
    :func:`repro.sim.rng.stream`-derived ``Generator`` objects threaded
    through constructors.
    """

    id = "SL02"

    def _flag(self, node: ast.AST, ctx: LintContext, qual: str, what: str) -> None:
        ctx.report(self.id, node,
                   f"{what} ({qual}) breaks run-to-run determinism; derive "
                   "randomness/time from repro.sim.rng streams or the sim clock")

    def visit_Attribute(self, node: ast.Attribute, ctx: LintContext) -> None:
        qual = _qualname(node, ctx)
        if qual is None:
            return
        self._check_qual(node, ctx, qual)

    def visit_Name(self, node: ast.Name, ctx: LintContext) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        qual = ctx.from_imports.get(node.id)
        if qual is not None:
            self._check_qual(node, ctx, qual)

    def _check_qual(self, node: ast.AST, ctx: LintContext, qual: str) -> None:
        if qual in _WALL_CLOCK:
            self._flag(node, ctx, qual, "wall-clock read")
        elif qual in _DATETIME_AMBIENT:
            self._flag(node, ctx, qual, "wall-clock read")
        elif qual.startswith("random.") or qual == "random":
            if isinstance(node, ast.Name) or qual.count(".") >= 1:
                self._flag(node, ctx, qual, "ambient randomness")
        elif qual.startswith("numpy.random."):
            suffix = qual[len("numpy.random."):]
            if suffix and "." not in suffix and suffix not in _NP_RANDOM_OK:
                self._flag(node, ctx, qual, "ambient randomness")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        qual = _qualname(node.func, ctx)
        if qual in ("numpy.random.default_rng", "numpy.random.RandomState") \
                and not node.args and not node.keywords:
            self._flag(node, ctx, qual,
                       "unseeded generator (no SeedSequence argument)")


# Identifier regexes that mark an operand as a simulated-time or byte
# quantity for SL03 (float == / != is the census-drift bug class).
_QUANTITY_RE = re.compile("|".join(f"(?:{p})" for p in (
    r"(^|_)(time|now|age|ages|when|deadline|latency|elapsed|duration)($|_)",
    r"(^|_)(kb|ms|bytes|size_kb|sizes_kb)($|s?_|s?$)",
    r"_kb$",
    r"_ms$",
)))


class SL03(Rule):
    """No float ``==``/``!=`` on simulated time or byte quantities.

    Simulated timestamps and KB tallies are accumulated floats; exact
    equality on them is how the ``-0.0 KB`` census-drift bug class
    enters (a sum that should be zero compares unequal, or two
    mathematically equal times differ in the last ulp after a different
    summation order).  Compare with ``math.isclose``/an epsilon, or keep
    the quantity integral (block counts, not KB).
    """

    id = "SL03"

    def _identifier(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call):
            return self._identifier(node.func)
        if isinstance(node, ast.Subscript):
            return self._identifier(node.value)
        return None

    def _is_quantity(self, node: ast.expr) -> str | None:
        ident = self._identifier(node)
        if ident is not None and _QUANTITY_RE.search(ident.lower()):
            return ident
        return None

    def visit_Compare(self, node: ast.Compare, ctx: LintContext) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            ident = self._is_quantity(left) or self._is_quantity(right)
            if ident is None:
                continue
            ctx.report(self.id, node,
                       f"exact float equality on quantity-like operand "
                       f"{ident!r} (the -0.0 KB census-drift bug class); use "
                       "math.isclose, an epsilon, or integral units")


# Protected cache internals (SL04): attribute name -> file suffixes that
# own it.  A non-``self`` access to one of these attributes anywhere
# else is a reach-in that bypasses the single census code path.
_PROTECTED_ATTRS: dict[str, tuple[str, ...]] = {
    "_masters": ("repro/cache/blockcache.py", "repro/cache/directory.py",
                 "repro/core/wholefile.py"),
    "_nonmasters": ("repro/cache/blockcache.py",),
    "_replicas": ("repro/core/wholefile.py",),
    "_dirty": ("repro/cache/blockcache.py",),
    "_ages": ("repro/cache/lru.py",),
    "_where": ("repro/press/filecache.py",),
    "_lru": ("repro/press/filecache.py",),
}


class SL04(Rule):
    """Cache-state mutations only through the census code path.

    ``BlockCache``/``FileCache`` residency accounting (and with it the
    CacheScope telemetry and the CC-KMC invariant checks) is correct
    only because every insert/remove/promote flows through one code
    path.  A direct poke at the backing dicts/sets from middleware or
    PRESS (``cache._dirty``, ``directory._masters[...] = n``) bypasses
    the census.  Non-``self`` access to a protected internal attribute
    outside its owning module is flagged; go through the public API
    (``masters()``, ``stats()``, ``dirty_blocks()``, ``census()``).
    """

    id = "SL04"

    def visit_Attribute(self, node: ast.Attribute, ctx: LintContext) -> None:
        owners = _PROTECTED_ATTRS.get(node.attr)
        if owners is None:
            return
        if any(ctx.path.endswith(owner.lstrip("/")) or ctx.path == owner
               for owner in owners):
            return
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            return
        ctx.report(self.id, node,
                   f"direct access to cache internal {node.attr!r} outside its "
                   f"owning module bypasses the census code path; use the "
                   "public view/mutation API")


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
_MUTABLE_QUALS = {
    "collections.defaultdict", "collections.deque", "collections.OrderedDict",
    "collections.Counter",
}


class SL05(Rule):
    """No mutable default arguments in ``src/repro``.

    A mutable default is shared across calls: state leaks between
    requests and between *runs within one process*, which is invisible
    to the golden-trace harness (each run constructs fresh objects) but
    corrupts long-lived deployments and batch sweeps.  Default to
    ``None`` and construct inside the function.
    """

    id = "SL05"

    def _check_defaults(self, node: ast.AST, args: ast.arguments,
                        ctx: LintContext) -> None:
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if self._is_mutable(default, ctx):
                ctx.report(self.id, default,
                           "mutable default argument is shared across calls; "
                           "use None and construct inside the function")

    @staticmethod
    def _is_mutable(node: ast.expr, ctx: LintContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _MUTABLE_CALLS:
                return True
            qual = _qualname(node.func, ctx)
            return qual in _MUTABLE_QUALS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        self._check_defaults(node, node.args, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               ctx: LintContext) -> None:
        self._check_defaults(node, node.args, ctx)

    def visit_Lambda(self, node: ast.Lambda, ctx: LintContext) -> None:
        self._check_defaults(node, node.args, ctx)


def all_rules() -> tuple[Rule, ...]:
    """Fresh instances of every registered per-file rule, in id order."""
    return (SL01(), SL02(), SL03(), SL04(), SL05())
