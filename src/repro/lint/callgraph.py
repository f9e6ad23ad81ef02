"""Project-wide def/use index and call resolution for simlint v2.

One :class:`Program` is built per lint run from every parsed file.  It
indexes, per module: top-level functions, classes and their methods,
import aliases, and module-level string constants (so an
``os.environ.get(WORKERS_ENV)`` read can be judged against the literal
behind the constant).  On top of the index it resolves call expressions
to :class:`FunctionInfo` targets:

* ``name(...)`` — a function defined in the same module, or imported
  via ``from pkg.mod import name``;
* ``alias.attr(...)`` — ``attr`` in the module bound to ``alias`` by
  ``import pkg.mod as alias``;
* ``Cls(...)`` — the class's ``__init__`` (and the call site is known
  to produce a ``Cls`` instance, which seeds method resolution);
* ``obj.meth(...)`` — resolved through a lightweight local type
  environment (parameter annotations, ``x = Cls(...)`` constructor
  assignments, annotated ``self.attr`` class attributes, ``self`` in a
  method body) via class-attribute lookup, following program-local base
  classes;
* calls *through a function-valued parameter* — resolved conservatively
  to every function reference ever passed for that parameter at any
  call site of the enclosing function (collected in a pre-pass).

Resolution is deliberately partial: an unresolvable call contributes no
call edge (the dataflow layer falls back to arg-taint union), which
keeps the analysis sound-for-self-hosting rather than drowning the
report in speculative edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "Program", "module_name_for"]


def module_name_for(path: str) -> str:
    """Dotted module name for a project-relative file path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``benchmarks/bench_fig_ring.py`` -> ``benchmarks.bench_fig_ring``;
    package ``__init__.py`` files name the package itself.
    """
    parts = path.replace("\\", "/").strip("/").split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str  # module.func or module.Cls.func
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: "ClassInfo | None" = None
    #: Positional-or-keyword parameter names in order (incl. self/cls).
    params: tuple[str, ...] = ()
    #: Parameter name -> annotation text (best effort).
    annotations: dict[str, str] = field(default_factory=dict)
    #: Parameter indices that are invoked as callables in the body.
    callable_params: frozenset[int] = frozenset()
    #: Conservative targets for calls through each callable param.
    param_targets: dict[int, "set[str]"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def param_index(self, name: str) -> int | None:
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def arg_param_index(self, call: ast.Call, pos: int | None = None,
                        keyword: str | None = None) -> int | None:
        """Map a call-site argument position/keyword to a param index.

        Skips the implicit ``self`` slot for bound-method calls (the
        caller passes one fewer positional than the def declares).
        """
        offset = 1 if self.cls is not None and self.params[:1] in (("self",), ("cls",)) else 0
        if keyword is not None:
            idx = self.param_index(keyword)
            return idx
        if pos is None:
            return None
        idx = pos + offset
        return idx if idx < len(self.params) else None


@dataclass
class ClassInfo:
    """One class definition: methods, bases, annotated attribute types."""

    qualname: str  # module.Cls
    module: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: tuple[str, ...] = ()  # unresolved textual base names
    #: Attribute name -> class qualname (from annotations/ctor assigns).
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """Index of one parsed source file."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool = False
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> module name ("np" -> "numpy")
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" origin (from-imports)
    from_imports: dict[str, str] = field(default_factory=dict)
    #: module-level NAME = "literal" string constants
    str_constants: dict[str, str] = field(default_factory=dict)


def _annotation_text(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return None
    # Normalize the common wrappers: Optional[X], "X", X | None.
    text = text.strip().strip("'\"")
    for prefix in ("Optional[", "optional["):
        if text.startswith(prefix) and text.endswith("]"):
            text = text[len(prefix):-1]
    if text.endswith("| None"):
        text = text[: -len("| None")].strip()
    return text or None


def _index_function(node: ast.FunctionDef | ast.AsyncFunctionDef, module: ModuleInfo,
                    cls: ClassInfo | None) -> FunctionInfo:
    owner = f"{cls.qualname}." if cls is not None else f"{module.name}."
    args = node.args
    ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params = tuple(a.arg for a in ordered)
    annotations = {a.arg: text for a in ordered
                   if (text := _annotation_text(a.annotation)) is not None}
    info = FunctionInfo(qualname=owner + node.name, module=module.name,
                        path=module.path, node=node, cls=cls,
                        params=params, annotations=annotations)
    called: set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            idx = info.param_index(sub.func.id)
            if idx is not None:
                called.add(idx)
    info.callable_params = frozenset(called)
    return info


class Program:
    """The whole-program index over every linted file."""

    def __init__(self, files: Iterable[tuple[str, ast.Module]]):
        self.modules: dict[str, ModuleInfo] = {}
        #: class simple name -> ClassInfo list (for unique-name fallback)
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        #: method simple name -> FunctionInfo list
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        for path, tree in files:
            self._index_module(path, tree)
        self._link_param_targets()

    # -- indexing -----------------------------------------------------------
    def _index_module(self, path: str, tree: ast.Module) -> None:
        is_package = path.replace("\\", "/").endswith("/__init__.py")
        mod = ModuleInfo(name=module_name_for(path), path=path, tree=tree,
                         is_package=is_package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = ""
                if node.level:
                    # level 1 is the containing package (the module itself
                    # for __init__.py); each extra level climbs one parent.
                    up = node.level - (1 if mod.is_package else 0)
                    base = mod.name.rsplit(".", up)[0] if up > 0 else mod.name
                origin = f"{base}.{node.module}" if base else node.module
                for alias in node.names:
                    mod.from_imports[alias.asname or alias.name] = f"{origin}.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _index_function(stmt, mod, None)
                mod.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, mod)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                mod.str_constants[stmt.targets[0].id] = stmt.value.value
        self.modules[mod.name] = mod

    def _index_class(self, node: ast.ClassDef, mod: ModuleInfo) -> None:
        cls = ClassInfo(qualname=f"{mod.name}.{node.name}", module=mod.name,
                        node=node,
                        base_names=tuple(b for base in node.bases
                                         if (b := _annotation_text(base))))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _index_function(stmt, mod, cls)
                cls.methods[stmt.name] = info
                self._methods_by_name.setdefault(stmt.name, []).append(info)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                text = _annotation_text(stmt.annotation)
                if text:
                    cls.attr_types[stmt.target.id] = text
        # self.<attr>: Cls annotations / self.<attr> = <param with annotation>
        init = cls.methods.get("__init__")
        if init is not None:
            for sub in ast.walk(init.node):
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Attribute) \
                        and isinstance(sub.target.value, ast.Name) \
                        and sub.target.value.id == "self":
                    text = _annotation_text(sub.annotation)
                    if text:
                        cls.attr_types.setdefault(sub.target.attr, text)
                elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Attribute) \
                        and isinstance(sub.targets[0].value, ast.Name) \
                        and sub.targets[0].value.id == "self" \
                        and isinstance(sub.value, ast.Name):
                    ann = init.annotations.get(sub.value.id)
                    if ann:
                        cls.attr_types.setdefault(sub.targets[0].attr, ann)
        mod.classes[node.name] = cls
        self._classes_by_name.setdefault(node.name, []).append(cls)

    def _link_param_targets(self) -> None:
        """Pre-pass: record functions passed for callable-valued params."""
        for mod in self.modules.values():
            for fn in self.iter_functions(mod):
                for sub in ast.walk(fn.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    targets = self.resolve_call(mod, sub, env=None, enclosing=fn)
                    for target in targets:
                        if not target.callable_params:
                            continue
                        for pos, arg in enumerate(sub.args):
                            idx = target.arg_param_index(sub, pos=pos)
                            if idx in target.callable_params:
                                passed = self._function_ref(mod, arg)
                                if passed is not None:
                                    target.param_targets.setdefault(
                                        idx, set()).add(passed.qualname)
                        for kw in sub.keywords:
                            if kw.arg is None:
                                continue
                            idx = target.arg_param_index(sub, keyword=kw.arg)
                            if idx in target.callable_params:
                                passed = self._function_ref(mod, kw.value)
                                if passed is not None:
                                    target.param_targets.setdefault(
                                        idx, set()).add(passed.qualname)

    # -- lookup -------------------------------------------------------------
    def iter_functions(self, mod: ModuleInfo | None = None) -> "list[FunctionInfo]":
        mods: Sequence[ModuleInfo] = (
            [mod] if mod is not None else list(self.modules.values()))
        out: list[FunctionInfo] = []
        for m in mods:
            out.extend(m.functions.values())
            for cls in m.classes.values():
                out.extend(cls.methods.values())
        return out

    def function(self, qualname: str) -> FunctionInfo | None:
        """Resolve ``module.func`` or ``module.Cls.meth`` against the index."""
        parts = qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            m = self.modules.get(".".join(parts[:cut]))
            if m is None:
                continue
            tail = parts[cut:]
            if len(tail) == 1:
                return m.functions.get(tail[0])
            if len(tail) == 2:
                c = m.classes.get(tail[0])
                return c.methods.get(tail[1]) if c else None
        return None

    def class_info(self, name: str, mod: ModuleInfo | None = None) -> ClassInfo | None:
        """Resolve a class by local name (module scope, imports, unique name)."""
        if mod is not None:
            if name in mod.classes:
                return mod.classes[name]
            origin = mod.from_imports.get(name)
            if origin:
                owner, _, cls_name = origin.rpartition(".")
                owner_mod = self.modules.get(owner)
                if owner_mod and cls_name in owner_mod.classes:
                    return owner_mod.classes[cls_name]
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def method_of(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Look a method up on a class, following program-local bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop()
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if name in cur.methods:
                return cur.methods[name]
            owner = self.modules.get(cur.module)
            for base in cur.base_names:
                resolved = self.class_info(base.split("[")[0], owner)
                if resolved is not None:
                    stack.append(resolved)
        return None

    #: Method names shared with builtin containers / file objects: a
    #: unique program-local definition of one of these is almost never
    #: the target of an unresolved ``obj.append(...)``-style call, so
    #: the unique-name fallback must not claim it.
    _COMMON_METHOD_NAMES = frozenset({
        "append", "add", "extend", "insert", "update", "pop", "popitem",
        "get", "setdefault", "clear", "copy", "remove", "discard", "sort",
        "keys", "values", "items", "count", "index",
        "write", "read", "readline", "close", "flush", "seek",
        "join", "split", "strip", "encode", "decode", "format",
        "put", "send", "recv", "acquire", "release",
    })

    def unique_method(self, name: str) -> FunctionInfo | None:
        """The only method with this name anywhere in the program, if unique.

        Names that collide with builtin container/file methods are never
        resolved this way — a false edge through ``list.append`` or
        ``io.write`` fabricates interprocedural flows out of thin air.
        """
        if name in self._COMMON_METHOD_NAMES:
            return None
        candidates = self._methods_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def function_ref(self, mod: ModuleInfo, expr: ast.expr) -> FunctionInfo | None:
        """Resolve a *reference* (not call) to a function, if possible."""
        return self._function_ref(mod, expr)

    def _function_ref(self, mod: ModuleInfo, expr: ast.expr) -> FunctionInfo | None:
        if isinstance(expr, ast.Name):
            if expr.id in mod.functions:
                return mod.functions[expr.id]
            origin = mod.from_imports.get(expr.id)
            if origin:
                return self.function(origin)
        elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = mod.module_aliases.get(expr.value.id)
            if owner:
                owner_mod = self.modules.get(owner)
                if owner_mod:
                    return owner_mod.functions.get(expr.attr)
        return None

    def resolve_call(self, mod: ModuleInfo, call: ast.Call,
                     env: "dict[str, str] | None" = None,
                     enclosing: FunctionInfo | None = None) -> "list[FunctionInfo]":
        """Targets of a call expression (possibly empty; rarely > 1).

        ``env`` maps local variable names to class qualnames (the caller's
        type environment); ``enclosing`` enables ``self`` resolution and
        calls through function-valued parameters.
        """
        func = call.func
        env = env or {}
        if isinstance(func, ast.Name):
            # call through a function-valued parameter
            if enclosing is not None:
                idx = enclosing.param_index(func.id)
                if idx is not None and idx in enclosing.callable_params:
                    out = []
                    for qual in sorted(enclosing.param_targets.get(idx, ())):
                        target = self.function(qual)
                        if target is not None:
                            out.append(target)
                    return out
            direct = self._function_ref(mod, func)
            if direct is not None:
                return [direct]
            cls = self.class_info(func.id, mod) if func.id not in mod.functions else None
            if cls is not None and (func.id in mod.classes
                                    or func.id in mod.from_imports):
                init = self.method_of(cls, "__init__")
                return [init] if init is not None else []
            return []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # module alias call: np.foo(...)
            direct = self._function_ref(mod, func)
            if direct is not None:
                return [direct]
            cls_qual: str | None = None
            if isinstance(receiver, ast.Name):
                if receiver.id in ("self", "cls") and enclosing is not None \
                        and enclosing.cls is not None:
                    cls_qual = enclosing.cls.qualname
                else:
                    cls_qual = env.get(receiver.id)
            elif isinstance(receiver, ast.Attribute) \
                    and isinstance(receiver.value, ast.Name) \
                    and receiver.value.id in ("self", "cls") \
                    and enclosing is not None and enclosing.cls is not None:
                attr_type = enclosing.cls.attr_types.get(receiver.attr)
                if attr_type:
                    resolved = self.class_info(attr_type.split("[")[0], mod)
                    cls_qual = resolved.qualname if resolved else None
            if cls_qual is not None:
                cls = self._class_by_qualname(cls_qual)
                if cls is not None:
                    target = self.method_of(cls, func.attr)
                    return [target] if target is not None else []
            unique = self.unique_method(func.attr)
            if unique is not None:
                return [unique]
        return []

    def _class_by_qualname(self, qualname: str) -> ClassInfo | None:
        mod_name, _, cls_name = qualname.rpartition(".")
        mod = self.modules.get(mod_name)
        if mod is not None:
            return mod.classes.get(cls_name)
        candidates = self._classes_by_name.get(qualname, [])
        return candidates[0] if len(candidates) == 1 else None
