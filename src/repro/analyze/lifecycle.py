"""Resource-lifecycle (typestate) pass: every acquired reader/writer
must reach ``close()`` on every CFG path, including exception edges.

Clydesdale opens a column reader per split and a writer per output
partition; a reader leaked on the exception path only surfaces as fd
exhaustion once the fault injector starts killing datanodes mid-scan.
This pass runs a forward may-analysis over each function's CFG: the
state maps local names to the set of still-open acquisition sites, and
any site still live at the function's normal or exceptional exit is a
finding.

* ``LIFE001`` — resource may not be closed on some path out of the
  function (message says whether the normal or only the exception path
  leaks);
* ``LIFE002`` — name rebound while a previously acquired resource may
  still be open (the retry-loop pattern: each iteration acquires into
  the same variable without closing the last one).

Tracked acquisitions are ``x = <call>`` where the callee's bare name is
in :data:`ACQUIRERS` (``create_writer`` / ``get_writer`` /
``get_record_reader`` / builtin ``open``). Ownership *transfers* — and
tracking stops — when the value escapes the function: returned or
yielded, stored into an attribute/subscript/container, aliased to
another name, passed to a constructor (Capitalized callee), or passed
to a callee that the one-level interprocedural summary says closes or
stores its parameter. Passing to any other callee is a *borrow* and
keeps the obligation here (``runner.run(reader, ...)`` iterates but
does not close). ``with`` items are managed by ``__exit__`` and are
never obligations. ``x is None`` / ``x is not None`` tests refine the
branch state, so the ``writer = None ... finally: if writer is not
None: writer.close()`` rotation idiom in rcfile.py is path-precise
rather than a false positive.
"""

from __future__ import annotations

import ast

from repro.analyze.callgraph import ProjectCallGraph, own_statements
from repro.analyze.cfg import CFGNode, EXCEPTION, FALSE, TRUE, build_cfg
from repro.analyze.dataflow import DataflowProblem, solve
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import AnalysisContext, AnalysisPass, SourceModule

#: Bare callee names whose result is a resource that must be closed.
ACQUIRERS = frozenset({
    "create_writer", "get_writer", "get_record_reader", "open",
})

#: Method names that discharge the obligation on their receiver.
CLOSERS = frozenset({"close"})

#: Container methods that take ownership of an argument.
_SINKS = frozenset({"append", "add", "insert", "extend", "put", "push"})

# Parameter dispositions from the one-level interprocedural summary.
_BORROWS = 0
_CLOSES = 1
_ESCAPES = 2


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _names_in(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def param_dispositions(func_node: ast.FunctionDef | ast.AsyncFunctionDef,
                       ) -> dict[str, int]:
    """What a callee does with each named parameter: close it, make it
    escape (return / attribute or container store), or just borrow."""
    params = [a.arg for a in (func_node.args.posonlyargs
                              + func_node.args.args
                              + func_node.args.kwonlyargs)]
    out = {p: _BORROWS for p in params}
    for stmt in own_statements(func_node):
        if isinstance(stmt, ast.Call):
            name = _call_name(stmt)
            if (name in CLOSERS and isinstance(stmt.func, ast.Attribute)
                    and isinstance(stmt.func.value, ast.Name)
                    and stmt.func.value.id in out):
                out[stmt.func.value.id] = _CLOSES
        elif isinstance(stmt, (ast.Return, ast.Yield, ast.YieldFrom)):
            for name in _names_in(getattr(stmt, "value", None)):
                if name in out and out[name] == _BORROWS:
                    out[name] = _ESCAPES
        elif isinstance(stmt, ast.Assign):
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in stmt.targets):
                for name in _names_in(stmt.value):
                    if name in out and out[name] == _BORROWS:
                        out[name] = _ESCAPES
    return out


class _LifecycleProblem(DataflowProblem):
    """State: frozenset of (var, acquire_line) obligations; ``None`` is
    the unreached bottom."""

    direction = "forward"

    def __init__(self, summaries: dict[str, dict[int, int]]):
        #: callee name -> {positional index: disposition}, joined over
        #: every in-scope function of that name.
        self.summaries = summaries

    def initial(self):
        return frozenset()

    def bottom(self):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    # -- per-statement effects ----------------------------------------- #

    def transfer(self, node: CFGNode, state):
        if state is None or node.stmt is None:
            return state
        if node.kind == "with_enter":
            # The context manager's __exit__ owns everything named here.
            return self._clear(state, _names_in(node.stmt))
        if node.kind == "loop_head":
            if isinstance(node.stmt, (ast.For, ast.AsyncFor)):
                # Loop target rebinds names; iterating borrows the iter.
                return self._clear(state, _names_in(node.stmt.target))
            return state
        if node.kind == "test":
            return self._apply_effects(node.stmt, state)
        if node.kind == "stmt":
            state = self._apply_effects(node.stmt, state)
            acq = self._acquisition(node.stmt)
            if acq is not None:
                var, line = acq
                state = self._clear(state, {var}) | {(var, line)}
            return state
        return state

    def edge_state(self, kind, node: CFGNode, pre, post):
        if kind == EXCEPTION:
            # The *acquisition* did not happen if the statement raised,
            # but ownership transfers (attempted close, constructor/sink
            # escape) still count — ownership moves at the call site.
            if pre is None or node.stmt is None:
                return pre
            if node.kind in ("stmt", "test"):
                return self._apply_effects(node.stmt, pre)
            if node.kind == "with_enter":
                return self._clear(pre, _names_in(node.stmt))
            return pre  # loop_head/with_exit: node.stmt spans the body
        if post is not None and node.kind == "test" and kind in (TRUE, FALSE):
            refined = self._none_test(node.stmt)
            if refined is not None:
                var, none_branch = refined
                if kind == none_branch:
                    return self._clear(post, {var})
        return post

    # -- helpers -------------------------------------------------------- #

    @staticmethod
    def _clear(state, names: set[str]):
        if not names:
            return state
        return frozenset(t for t in state if t[0] not in names)

    @staticmethod
    def _acquisition(stmt: ast.AST) -> tuple[str, int] | None:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _call_name(stmt.value) in ACQUIRERS):
            return stmt.targets[0].id, stmt.lineno
        return None

    def _apply_closes(self, stmt: ast.AST, state):
        closed: set[str] = set()
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in CLOSERS
                    and isinstance(node.func.value, ast.Name)):
                closed.add(node.func.value.id)
        return self._clear(state, closed)

    def _apply_effects(self, stmt: ast.AST, state):
        state = self._apply_closes(stmt, state)
        released: set[str] = set()
        live = {t[0] for t in state}

        if isinstance(stmt, (ast.Return, ast.Yield, ast.YieldFrom)):
            released |= _names_in(getattr(stmt, "value", None)) & live
        if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)):
            released |= _names_in(stmt.value.value) & live

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript,
                                       ast.Tuple, ast.List)):
                    # Stored somewhere the caller can reach (or
                    # destructured): ownership transfers.
                    released |= _names_in(stmt.value) & live
            if (isinstance(stmt.value, ast.Name)
                    and stmt.value.id in live
                    and isinstance(stmt.targets[0], ast.Name)):
                released.add(stmt.value.id)   # plain alias: y = x

        for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
            released |= self._call_escapes(call, live)

        return self._clear(state, released)

    def _call_escapes(self, call: ast.Call, live: set[str]) -> set[str]:
        """Which live names lose their obligation by being passed to
        this call."""
        out: set[str] = set()
        name = _call_name(call)
        is_ctor = bool(name) and name[:1].isupper()
        is_sink = (isinstance(call.func, ast.Attribute)
                   and call.func.attr in _SINKS)
        summary = self.summaries.get(name or "", {})
        args = list(call.args) + [kw.value for kw in call.keywords]
        offset = 1 if isinstance(call.func, ast.Attribute) else 0
        for pos, arg in enumerate(args):
            if not (isinstance(arg, ast.Name) and arg.id in live):
                continue
            if is_ctor or is_sink:
                out.add(arg.id)
                continue
            disposition = summary.get(pos + offset, _BORROWS)
            if disposition in (_CLOSES, _ESCAPES):
                out.add(arg.id)
        return out

    @staticmethod
    def _none_test(expr: ast.AST) -> tuple[str, str] | None:
        """(var, branch-kind-where-var-is-None) for ``x is [not] None``."""
        if not (isinstance(expr, ast.Compare) and len(expr.ops) == 1
                and isinstance(expr.left, ast.Name)
                and isinstance(expr.comparators[0], ast.Constant)
                and expr.comparators[0].value is None):
            return None
        if isinstance(expr.ops[0], ast.Is):
            return expr.left.id, TRUE
        if isinstance(expr.ops[0], ast.IsNot):
            return expr.left.id, FALSE
        return None


class LifecyclePass(AnalysisPass):
    """Flags acquired resources that can escape their function open."""

    pass_id = "lifecycle"
    description = ("readers/writers acquired in storage//hdfs//mapreduce/"
                   "/hive/ must reach close() on every path")

    SCOPES = ("repro/storage/", "repro/hdfs/", "repro/mapreduce/",
              "repro/hive/")

    def __init__(self, scopes: tuple[str, ...] | None = None):
        self.scopes = tuple(scopes) if scopes else self.SCOPES

    def run(self, context: AnalysisContext) -> list[Finding]:
        graph = ProjectCallGraph(context, scopes=self.scopes)
        problem = _LifecycleProblem(self._summaries(graph))
        findings: list[Finding] = []
        for mod in graph.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    findings.extend(
                        self._check_function(mod, node, problem))
        return findings

    def _summaries(self, graph: ProjectCallGraph) -> dict[str, dict[int, int]]:
        """Join per-name parameter dispositions across the project: if
        any function of a name closes/stores parameter i, passing a
        resource there transfers the obligation."""
        out: dict[str, dict[int, int]] = {}
        for func in graph.functions.values():
            if func.node.name in ACQUIRERS:
                continue  # acquiring factories are handled at the assign
            by_pos = out.setdefault(func.node.name, {})
            for pos, (pname, disp) in enumerate(
                    param_dispositions(func.node).items()):
                if disp != _BORROWS:
                    by_pos[pos] = max(by_pos.get(pos, _BORROWS), disp)
        return out

    def _check_function(self, mod: SourceModule,
                        func: ast.FunctionDef | ast.AsyncFunctionDef,
                        problem: _LifecycleProblem) -> list[Finding]:
        cfg = build_cfg(func)
        result = solve(cfg, problem)
        findings: list[Finding] = []

        normal = result.input(cfg.exit) or frozenset()
        raised = result.input(cfg.raise_exit) or frozenset()
        for var, line in sorted(normal | raised):
            where = ("an exception path" if (var, line) not in normal
                     else "some path")
            findings.append(Finding(
                path=mod.path, line=line, code="LIFE001",
                message=(f"{func.name}: resource {var!r} acquired here "
                         f"may not be closed on {where} out of the "
                         f"function"),
                severity=Severity.ERROR, pass_id=self.pass_id))

        for node in cfg.nodes:
            if node.stmt is None or node.kind != "stmt":
                continue
            acq = problem._acquisition(node.stmt)
            if acq is None:
                continue
            state = result.input(node.index)
            if state is None:
                continue
            prior = sorted(l for v, l in state if v == acq[0])
            if prior:
                findings.append(Finding(
                    path=mod.path, line=node.stmt.lineno, code="LIFE002",
                    message=(f"{func.name}: {acq[0]!r} rebound while the "
                             f"resource acquired at line {prior[0]} may "
                             f"still be open"),
                    severity=Severity.ERROR, pass_id=self.pass_id))
        return findings
