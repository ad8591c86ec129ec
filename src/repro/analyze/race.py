"""Shared-state race lint (paper section 4.2's "no locks needed" claim).

Clydesdale's join threads share one set of dimension hash tables and the
mapper object itself; correctness rests on two conventions the code
states only in comments: shared state is read-only on the hot path, and
per-thread tallies touch the mapper lock once at registration, never per
row. This pass machine-checks those conventions.

It builds a per-module call graph, computes the set of functions
reachable from the threaded entry points (``join_thread`` and the
``map``/``process_record`` hot path), and inside that set flags:

* ``RACE001`` — writes to module globals (via ``global`` declaration);
* ``RACE002`` — writes to ``self.`` attributes, including subscript
  stores and calls to mutating container methods;
* ``RACE003`` — mutating calls on closure variables of a thread body or
  on module globals.

A write is allowed when the lockset analysis
(:mod:`repro.analyze.locks`) proves a lock is held at the statement —
including locks acquired in a caller and propagated through the call
graph — or when the attribute chain routes through a *declared*
thread-local holder (an attribute assigned ``threading.local()`` in the
owning class). The pre-v2 lexical heuristics (context expression
containing the substring ``lock``, chain component containing
``local``) are gone: a ``with`` block only counts if it acquires a lock
the model can actually see declared.

The tracer (``repro/trace/tracer.py``) is a target too: join threads
open and finish spans concurrently, so its span/start/finish entry
points are scanned under the same rules — the per-thread span stacks
(``self._local.stack``) ride the thread-local allowance, and the shared
span list and id counter must stay behind the tracer's lock.
"""

from __future__ import annotations

import ast
import builtins

from repro.analyze.callgraph import FunctionInfo as _Func
from repro.analyze.findings import Finding
from repro.analyze.framework import AnalysisContext, AnalysisPass, SourceModule
from repro.analyze.locks import LocksetAnalysis, shared_analysis

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "appendleft", "extendleft",
})

_BUILTIN_NAMES = frozenset(dir(builtins))


def _attr_chain(node: ast.AST) -> list[str]:
    """["self", "_local", "tally"] for ``self._local.tally``; [] when the
    chain does not bottom out at a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class RaceLintPass(AnalysisPass):
    """Flags unguarded shared-state writes on threaded hot paths."""

    pass_id = "race"
    description = ("unguarded writes to shared state reachable from "
                   "join_thread/map hot paths")

    # The tracer is part of the threaded hot path: join threads open and
    # finish spans concurrently. Its per-thread span stacks ride the
    # thread-local allowance (``self._local.stack``); the shared span
    # list and id counter must stay behind ``self._lock``.
    DEFAULT_TARGETS = ("repro/core/joinjob.py", "repro/mapreduce/runtime.py",
                       "repro/trace/tracer.py", "repro/serve/store.py")
    DEFAULT_ENTRIES = ("join_thread", "map", "process_record",
                       "span", "start", "finish", "_finish",
                       "get", "put", "invalidate")

    def __init__(self, targets: tuple[str, ...] | None = None,
                 entries: tuple[str, ...] | None = None):
        self.targets = tuple(targets) if targets else self.DEFAULT_TARGETS
        self.entries = tuple(entries) if entries else self.DEFAULT_ENTRIES

    def run(self, context: AnalysisContext) -> list[Finding]:
        analysis = shared_analysis(context, self.targets, self.entries)
        findings: list[Finding] = []
        for target in self.targets:
            mod = context.module(target)
            if mod is not None and mod.tree is not None:
                findings.extend(self._check_module(mod, analysis))
        return findings

    # ------------------------------------------------------------------ #

    def _check_module(self, mod: SourceModule,
                      analysis: LocksetAnalysis) -> list[Finding]:
        module_globals = self._module_globals(mod.tree)
        # Same-module closure from the entry points (cross-module duck
        # edges would pull driver-side code into the hot set).
        funcs = {qual: func
                 for (path, qual), func in analysis.graph.functions.items()
                 if path == mod.path}
        entries = set(self.entries)
        frontier = [qual for qual, func in funcs.items()
                    if func.node.name in entries or qual in entries]
        hot: set[str] = set()
        while frontier:
            qual = frontier.pop()
            if qual in hot:
                continue
            hot.add(qual)
            frontier.extend(funcs[qual].calls - hot)
        findings: list[Finding] = []
        for qual in sorted(hot):
            findings.extend(self._check_function(
                mod, funcs[qual], module_globals, analysis))
        return findings

    @staticmethod
    def _module_globals(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (stmt.targets
                           if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            names.add(node.id)
        return names

    def _check_function(self, mod: SourceModule, func: _Func,
                        module_globals: set[str],
                        analysis: LocksetAnalysis) -> list[Finding]:
        findings: list[Finding] = []
        key = (mod.path, func.qualname)
        threadlocals = (analysis.model.threadlocal_attrs.get(
            (mod.path, func.cls), frozenset()) if func.cls else frozenset())

        def guarded_at(node: ast.AST) -> bool:
            """A lock is provably held when ``node`` executes."""
            return bool(analysis.lockset_at(key, node))

        def is_threadlocal(chain: list[str]) -> bool:
            """``self._local.x`` where ``_local`` is a declared
            ``threading.local()`` holder of this class."""
            return (len(chain) >= 3 and chain[0] == "self"
                    and chain[1] in threadlocals)

        def shared_base(name: str) -> str | None:
            """Classify a bare name as shared state, or None if local."""
            if name in func.locals or name == "self":
                return None
            if name in func.global_decls or name in module_globals:
                return "module global"
            if func.parent is not None and name not in _BUILTIN_NAMES:
                return "closure variable"
            return None

        def check_write(target: ast.AST, node: ast.AST):
            chain = _attr_chain(target)
            if isinstance(target, ast.Name):
                if target.id in func.global_decls and not guarded_at(node):
                    findings.append(self.finding(
                        mod, node, "RACE001",
                        f"{func.qualname} writes module global "
                        f"{target.id!r} without holding a lock"))
            elif chain and chain[0] == "self":
                if guarded_at(node) or is_threadlocal(chain):
                    return
                findings.append(self.finding(
                    mod, node, "RACE002",
                    f"{func.qualname} writes shared attribute "
                    f"{'.'.join(chain)!r} on the threaded hot path "
                    f"without holding a lock"))
            elif isinstance(target, ast.Subscript):
                check_write(target.value, node)

        def check_call(call: ast.Call):
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr in MUTATORS):
                return
            base = call.func.value
            chain = _attr_chain(base)
            if isinstance(base, ast.Name):
                kind = shared_base(base.id)
                if kind is not None and not guarded_at(call):
                    findings.append(self.finding(
                        mod, call, "RACE003",
                        f"{func.qualname} mutates {kind} {base.id!r} via "
                        f".{call.func.attr}() without holding a lock"))
            elif chain and chain[0] == "self":
                if guarded_at(call) or is_threadlocal(chain):
                    return
                findings.append(self.finding(
                    mod, call, "RACE002",
                    f"{func.qualname} mutates shared attribute "
                    f"{'.'.join(chain)!r} via .{call.func.attr}() on the "
                    f"threaded hot path without holding a lock"))

        def walk(node: ast.AST):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                if isinstance(child, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign)):
                    targets = (child.targets
                               if isinstance(child, ast.Assign)
                               else [child.target])
                    for target in targets:
                        check_write(target, child)
                elif isinstance(child, ast.Call):
                    check_call(child)
                walk(child)

        walk(func.node)
        return findings
