"""Call-graph construction shared by the analysis passes.

One function flattening and reachability scheme for every pass that
needs a call graph (locks, lifecycle, hotpath):

* :func:`collect_functions` flattens a module AST into
  :class:`FunctionInfo` records keyed by dotted qualname
  (``Class.method`` / ``outer.nested``), with per-function local-name
  sets for shared-state classification;
* :func:`resolve_calls` links call sites to same-module callees —
  ``self.method()`` precisely, bare names to nested/module functions,
  and other attribute calls duck-typed to any same-module method of that
  name (how ``join_thread`` reaches ``StarJoinMapper.map``).

:class:`ProjectCallGraph` lifts the same scheme across modules for
interprocedural passes: attribute calls resolve to any method of that
name defined in the in-scope modules, which is exactly one level of
duck-typed indirection deep — deliberate, documented imprecision (see
DESIGN.md "Dataflow analysis").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analyze.framework import AnalysisContext, SourceModule


@dataclass
class FunctionInfo:
    """One function or method, flattened out of a module AST."""

    qualname: str                  # e.g. "MTMapRunner.run.join_thread"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None                # enclosing class name, if a method
    parent: str | None             # enclosing function qualname, if nested
    locals: set[str] = field(default_factory=set)
    global_decls: set[str] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)  # resolved qualnames
    module_path: str = ""          # repo-relative path, for project graphs


def own_statements(node: ast.AST) -> Iterable[ast.AST]:
    """Child nodes of ``node`` excluding nested function/class bodies
    (those are separate scopes/graph nodes)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        yield from own_statements(child)


def _collect_locals(func: FunctionInfo) -> None:
    args = func.node.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        func.locals.add(arg.arg)
    if args.vararg:
        func.locals.add(args.vararg.arg)
    if args.kwarg:
        func.locals.add(args.kwarg.arg)
    for stmt in own_statements(func.node):
        if isinstance(stmt, ast.Global):
            func.global_decls.update(stmt.names)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                func.locals.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.Name) and isinstance(stmt.ctx, ast.Store):
            func.locals.add(stmt.id)
        elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
            func.locals.add(stmt.name)
    for child in ast.iter_child_nodes(func.node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            func.locals.add(child.name)
    func.locals -= func.global_decls


def collect_functions(tree: ast.Module,
                      module_path: str = "") -> dict[str, FunctionInfo]:
    """Flatten every function/method in ``tree`` keyed by qualname."""
    funcs: dict[str, FunctionInfo] = {}

    def visit(node: ast.AST, cls: str | None, parent: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, parent)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                qual = (f"{parent}.{child.name}" if parent
                        else (f"{cls}.{child.name}" if cls
                              else child.name))
                func = FunctionInfo(qualname=qual, node=child, cls=cls,
                                    parent=parent,
                                    module_path=module_path)
                _collect_locals(func)
                funcs[qual] = func
                visit(child, cls, qual)
            else:
                visit(child, cls, parent)

    visit(tree, None, None)
    return funcs


def resolve_calls(funcs: dict[str, FunctionInfo]) -> None:
    """Populate each function's ``calls`` with same-module callees."""
    by_method: dict[str, list[str]] = {}
    for qual, func in funcs.items():
        by_method.setdefault(func.node.name, []).append(qual)
    for func in funcs.values():
        for stmt in own_statements(func.node):
            if not isinstance(stmt, ast.Call):
                continue
            target = stmt.func
            if isinstance(target, ast.Name):
                # Nested function or module-level function.
                nested = f"{func.qualname}.{target.id}"
                if nested in funcs:
                    func.calls.add(nested)
                elif target.id in funcs:
                    func.calls.add(target.id)
            elif isinstance(target, ast.Attribute):
                if (isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and func.cls is not None
                        and f"{func.cls}.{target.attr}" in funcs):
                    func.calls.add(f"{func.cls}.{target.attr}")
                else:
                    # Duck-typed: any same-module method of that name.
                    func.calls.update(by_method.get(target.attr, ()))


class ProjectCallGraph:
    """Cross-module call graph over a set of in-scope modules.

    Nodes are ``(module_path, qualname)`` pairs. Same-module edges come
    from :func:`resolve_calls`; attribute calls additionally resolve to
    every in-scope method of that name in *other* modules (one level of
    duck typing — enough to follow ``table.select_hits(...)`` from
    ``joinjob`` into ``hashtable`` without a type system).
    """

    def __init__(self, context: AnalysisContext,
                 scopes: tuple[str, ...] = ()):
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        self._by_name: dict[str, list[tuple[str, str]]] = {}
        modules = [mod for mod in context.modules
                   if mod.tree is not None
                   and (not scopes
                        or any(s in mod.path for s in scopes))]
        self.modules: list[SourceModule] = modules
        for mod in modules:
            funcs = collect_functions(mod.tree, module_path=mod.path)
            resolve_calls(funcs)
            for qual, func in funcs.items():
                key = (mod.path, qual)
                self.functions[key] = func
                self._by_name.setdefault(func.node.name, []).append(key)

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every in-scope function/method with this bare name."""
        return [self.functions[key] for key in self._by_name.get(name, ())]

    def reachable_from(self, entry_names: Iterable[str],
                       ) -> set[tuple[str, str]]:
        """Closure from every function whose name or qualname matches."""
        entries = set(entry_names)
        frontier = [key for key, func in self.functions.items()
                    if func.node.name in entries
                    or func.qualname in entries]
        seen: set[tuple[str, str]] = set()
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            frontier.extend(self._callees(key) - seen)
        return seen

    def _callees(self, key: tuple[str, str]) -> set[tuple[str, str]]:
        path, _ = key
        func = self.functions[key]
        out: set[tuple[str, str]] = set()
        for qual in func.calls:          # same-module, precisely resolved
            if (path, qual) in self.functions:
                out.add((path, qual))
        for stmt in own_statements(func.node):
            if not (isinstance(stmt, ast.Call)
                    and isinstance(stmt.func, ast.Attribute)):
                continue
            for other in self._by_name.get(stmt.func.attr, ()):
                if other[0] != path:     # cross-module duck typing
                    out.add(other)
        return out
