"""Hot-path allocation lint: no per-row allocation on the block kernels.

PR 1's ≥3x vectorization win rests on the block path doing O(columns)
allocations per block, not O(rows): selection vectors are reused,
probes fill preallocated lists, and emit builds one tuple per
*surviving* row. A per-row dict literal or f-string quietly reintroduced
inside a row loop erases the win without failing any correctness test.

This pass computes the set of functions reachable from the vectorized
entry points (:data:`ENTRIES`, matched by bare name across
``repro/core/`` and ``repro/storage/`` via the project call graph) and
flags, **inside loops** of those functions:

* ``HOT001`` — dict/list/set literals and comprehensions (generator
  expressions are lazy and exempt);
* ``HOT002`` — direct ``.append()``-family calls (the sanctioned idiom
  is prebinding ``add = out.append`` outside the loop, which this rule
  deliberately does not match);
* ``HOT003`` — string formatting (f-strings, ``%``, ``.format()``);
* ``HOT004`` — whole-column materialization of a typed buffer:
  ``list(...)`` calls and ``.tolist()`` / ``.to_list()`` / ``.take()``
  / ``.decode()`` calls. A :class:`~repro.storage.columnvector.
  ColumnVector` decoded per row pays the full O(rows) boxing cost per
  iteration — the exact tax the columnar memory model v2 removed; the
  sanctioned idioms are scalar ``vector[i]`` in the loop or one gather
  before it.

One level interprocedurally: a function *called from inside a loop* of
a hot function has its own straight-line allocations flagged too —
``select_hits`` runs per join per block, so a literal at its top is
still per-block-per-join work — except allocations inside a ``return``
expression (returning a fresh output list **is** the vectorized
calling convention).

Escape hatch: a trailing ``# analyze: allow-alloc`` on the flagged line
or on the function's ``def`` line suppresses the findings; use it for
deliberate allocations (tally dicts keyed per group, the scalar
fallback path) with a justifying comment.
"""

from __future__ import annotations

import ast

from repro.analyze.callgraph import (
    FunctionInfo,
    ProjectCallGraph,
    own_statements,
)
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import AnalysisContext, AnalysisPass

#: Bare names of the vectorized entry points (the block hot path).
ENTRIES = ("process_record", "_map_block", "probe_block",
           "evaluate_block")

SCOPES = ("repro/core/", "repro/storage/")

ANNOTATION = "analyze: allow-alloc"

_APPENDERS = frozenset({"append", "add", "extend", "insert", "setdefault",
                        "appendleft"})

#: Methods that materialize a whole typed column (or decode bytes) —
#: per-row calls to these defeat encoded execution (HOT004).
_DECODERS = frozenset({"tolist", "to_list", "take", "decode"})

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _alloc_kind(node: ast.AST) -> tuple[str, str] | None:
    """(code, description) when ``node`` is a per-row allocation site."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        label = type(node).__name__.lower().replace("comp", " comprehension")
        return "HOT001", f"{label} literal"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _APPENDERS:
            return "HOT002", f".{node.func.attr}() call"
        if node.func.attr == "format":
            return "HOT003", ".format() call"
        if node.func.attr in _DECODERS:
            return "HOT004", f".{node.func.attr}() materialization"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "list" and (node.args or node.keywords)):
        return "HOT004", "list(...) materialization"
    if isinstance(node, ast.JoinedStr):
        return "HOT003", "f-string"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)):
        return "HOT003", "%-formatting"
    return None


def _walk_expr(node: ast.AST):
    """Walk ``node`` skipping nested function/class bodies and the
    bodies of nested loops (handled as their own regions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield child
        yield from _walk_expr(child)


class HotPathPass(AnalysisPass):
    """Flags per-row allocation reachable from the vectorized kernels."""

    pass_id = "hotpath"
    description = ("functions reachable from the block kernels may not "
                   "allocate per row (annotate '# analyze: allow-alloc' "
                   "to opt out)")

    def __init__(self, entries: tuple[str, ...] | None = None,
                 scopes: tuple[str, ...] | None = None):
        self.entries = tuple(entries) if entries else ENTRIES
        self.scopes = tuple(scopes) if scopes else SCOPES

    def run(self, context: AnalysisContext) -> list[Finding]:
        graph = ProjectCallGraph(context, scopes=self.scopes)
        hot = graph.reachable_from(self.entries)
        lines_by_path = {mod.path: mod.text.splitlines()
                         for mod in graph.modules}
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()

        for key in sorted(hot):
            func = graph.functions[key]
            lines = lines_by_path[func.module_path]
            if self._allowed(lines, func.node.lineno):
                continue
            for loop in self._own_loops(func.node):
                self._check_region(
                    func, loop, lines, findings, seen,
                    context=f"row loop in {func.qualname}")
                for callee in self._loop_callees(graph, key, loop):
                    if callee.node.name in self.entries:
                        continue  # kernels dispatch to kernels per block
                    clines = lines_by_path[callee.module_path]
                    if self._allowed(clines, callee.node.lineno):
                        continue
                    self._check_callee(
                        callee, clines, findings, seen,
                        context=(f"{callee.qualname} called from a loop "
                                 f"in {func.qualname}"))
        return findings

    # ------------------------------------------------------------------ #

    @staticmethod
    def _own_loops(func_node: ast.AST) -> list[ast.AST]:
        """Outermost loops of the function (nested loops are inside)."""
        loops = []

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(child, _LOOPS):
                    loops.append(child)
                else:
                    visit(child)

        visit(func_node)
        return loops

    @staticmethod
    def _allowed(lines: list[str], lineno: int) -> bool:
        if 0 < lineno <= len(lines):
            return ANNOTATION in lines[lineno - 1]
        return False

    def _check_region(self, func: FunctionInfo, loop: ast.AST,
                      lines: list[str], findings: list[Finding],
                      seen: set, *, context: str) -> None:
        body = (loop.body + loop.orelse if isinstance(loop, _LOOPS)
                else [loop])
        for stmt in body:
            for node in [stmt] + list(_walk_expr(stmt)):
                kind = _alloc_kind(node)
                if kind is None:
                    continue
                code, what = kind
                lineno = getattr(node, "lineno", 0)
                if self._allowed(lines, lineno):
                    continue
                dedup = (func.module_path, lineno, code)
                if dedup in seen:
                    continue
                seen.add(dedup)
                findings.append(Finding(
                    path=func.module_path, line=lineno, code=code,
                    message=f"per-row {what} on the hot path ({context})",
                    severity=Severity.ERROR, pass_id=self.pass_id))

    def _check_callee(self, callee: FunctionInfo, lines: list[str],
                      findings: list[Finding], seen: set, *,
                      context: str) -> None:
        """Straight-line allocations of a function called per loop
        iteration; its own loops are covered by _check_region when the
        callee is itself hot. Allocations inside a return expression
        are the output-list calling convention and exempt."""
        returned: set[int] = set()
        for stmt in own_statements(callee.node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                for node in ast.walk(stmt.value):
                    returned.add(id(node))

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef,
                                      ast.Lambda)) or isinstance(child, _LOOPS):
                    continue
                kind = _alloc_kind(child)
                if kind is not None and id(child) not in returned:
                    code, what = kind
                    lineno = getattr(child, "lineno", 0)
                    if (not self._allowed(lines, lineno)
                            and (callee.module_path, lineno, code)
                            not in seen):
                        seen.add((callee.module_path, lineno, code))
                        findings.append(Finding(
                            path=callee.module_path, line=lineno,
                            code=code,
                            message=(f"per-row {what} on the hot path "
                                     f"({context})"),
                            severity=Severity.ERROR,
                            pass_id=self.pass_id))
                visit(child)

        visit(callee.node)

    def _loop_callees(self, graph: ProjectCallGraph,
                      caller_key: tuple[str, str],
                      loop: ast.AST) -> list[FunctionInfo]:
        path, _ = caller_key
        out: list[FunctionInfo] = []
        seen_keys: set[tuple[str, str]] = set()
        for node in _walk_expr(loop):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if not name or name in _APPENDERS:
                continue
            for callee in graph.functions_named(name):
                key = (callee.module_path, callee.qualname)
                if key not in seen_keys:
                    seen_keys.add(key)
                    out.append(callee)
        return out
