"""Per-function control-flow graphs built from the Python AST.

One CFG node per *simple* statement (assignment, expression, return,
raise, pass, ...) plus synthetic nodes for branch tests, loop heads,
``with`` enter/exit, and exception dispatch. Compound statements
(``if``/``while``/``for``/``try``/``with``) contribute structure —
edges — rather than nodes of their own.

Edge kinds:

* ``normal`` — fallthrough;
* ``true`` / ``false`` — outcome of a test node. Boolean ``and``/``or``
  tests are decomposed into one test node per operand so short-circuit
  paths are distinct (``if a and b:`` has a path that never evaluates
  ``b``);
* ``exception`` — from any statement that can plausibly raise (contains
  a call, attribute access, subscript, or arithmetic) to the innermost
  enclosing handler/finally, or to the synthetic ``raise_exit`` node.

``try``/``finally`` is handled by *duplication-free routing*: the
``finally`` body is built once, and every abrupt jump out of the
``try`` body (``break``, ``continue``, ``return``, fallthrough,
exception) first flows through the finally body and then on to a
per-frame continuation node for its original target. This keeps the
graph linear in source size while still giving dataflow passes an
exception path *through* the finally — the pattern
``finally: writer.close()`` discharges an open resource on both the
normal and the exceptional exit, which the lifecycle pass depends on.

The builder is syntactic and intraprocedural; interprocedural glue
lives in :mod:`repro.analyze.callgraph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGNode", "Edge", "build_cfg"]

NORMAL = "normal"
TRUE = "true"
FALSE = "false"
EXCEPTION = "exception"


@dataclass
class Edge:
    target: int
    kind: str = NORMAL


@dataclass
class CFGNode:
    """One CFG node. ``stmt`` is the AST statement or expression the
    node represents (None for synthetic entry/exit/join nodes)."""

    index: int
    kind: str                      # entry/exit/raise_exit/stmt/test/join/...
    stmt: ast.AST | None = None
    edges: list[Edge] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0) if self.stmt else 0


class CFG:
    """Control-flow graph for one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")          # normal return / fallthrough
        self.raise_exit = self._new("raise_exit")  # escaped exception

    def _new(self, kind: str, stmt: ast.AST | None = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.index

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        node = self.nodes[src]
        for edge in node.edges:
            if edge.target == dst and edge.kind == kind:
                return
        node.edges.append(Edge(target=dst, kind=kind))

    def statements(self):
        """(node, stmt) pairs for nodes carrying a real statement."""
        for node in self.nodes:
            if node.stmt is not None:
                yield node


# Statements whose evaluation can plausibly raise: anything containing a
# call, attribute access, subscript, or arithmetic. Pure constant/name
# moves cannot (MemoryError-style asynchrony is out of scope).
_RAISING = (ast.Call, ast.Attribute, ast.Subscript, ast.BinOp,
            ast.UnaryOp, ast.Compare, ast.Raise, ast.Assert, ast.Await,
            ast.Yield, ast.YieldFrom, ast.Starred)


def _can_raise(stmt: ast.AST) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Compare):
            # Identity tests (``x is None``) cannot raise; rich
            # comparisons can (user __eq__ etc.).
            if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                continue
            return True
        if isinstance(node, _RAISING):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return False  # bodies are separate scopes; defining is safe
    return False


@dataclass
class _FinallyFrame:
    """One enclosing ``finally`` between a jump and its target.

    The finally body is built exactly once (on first routing) and every
    routed target fans out from its shared tail. Dataflow merges at the
    tail, which is the sound (conservative) reading of a shared finally.
    """

    builder: "_Builder"
    body: list[ast.stmt]
    outer_handler: int             # exception target outside this finally
    outer_frames: tuple = ()       # frames below the owning try statement
    head: int | None = None        # first node of the built finally body
    tail: int | None = None        # synthetic join after the finally body
    routed: set = field(default_factory=set)

    def route(self, target: int) -> int:
        """Entry point that runs the finally body then jumps to
        ``target``."""
        if self.head is None:
            self.head = self.builder.cfg._new("join")
            self.tail = self.builder.cfg._new("join")
            end = self.builder._build_body(
                self.body, self.head, handler=self.outer_handler,
                frames_below=self.outer_frames)
            self.builder.cfg.add_edge(end, self.tail)
        if target not in self.routed:
            self.routed.add(target)
            self.builder.cfg.add_edge(self.tail, target)
        return self.head


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.cfg = CFG(func)

    def build(self) -> CFG:
        end = self._build_body(self.cfg.func.body, self.cfg.entry,
                               handler=self.cfg.raise_exit,
                               frames_below=())
        self.cfg.add_edge(end, self.cfg.exit)
        return self.cfg

    # -- statement sequencing ------------------------------------------ #

    def _build_body(self, body: list[ast.stmt], pred: int, *,
                    handler: int,
                    frames_below: tuple,
                    loop: tuple[int, int] | None = None) -> int:
        """Wire ``body`` after ``pred``; return the last live node.

        ``handler`` is where exception edges go. ``frames_below`` are
        the _FinallyFrames between here and the function boundary,
        innermost last — abrupt jumps must thread through them.
        ``loop`` is (continue_target, break_target, frame_depth) of the
        innermost loop; frame_depth is len(frames_below) where the loop
        was established, so break/continue thread only through finallys
        opened *inside* the loop.
        """
        cur = pred
        for stmt in body:
            cur = self._build_stmt(stmt, cur, handler=handler,
                                   frames_below=frames_below, loop=loop)
        return cur

    def _through_finallys(self, target: int, frames: tuple,
                          upto: int = 0) -> int:
        """Route ``target`` through frames[upto:] innermost-first."""
        for frame in reversed(frames[upto:]):
            target = frame.route(target)
        return target

    def _build_stmt(self, stmt: ast.stmt, pred: int, *, handler: int,
                    frames_below: tuple,
                    loop: tuple[int, int] | None) -> int:
        cfg = self.cfg

        if isinstance(stmt, ast.If):
            after = cfg._new("join")
            true_head = cfg._new("join")
            false_head = cfg._new("join")
            self._build_test(stmt.test, pred, true_head, false_head,
                             handler=handler)
            t_end = self._build_body(stmt.body, true_head, handler=handler,
                                     frames_below=frames_below, loop=loop)
            cfg.add_edge(t_end, after)
            f_end = self._build_body(stmt.orelse, false_head,
                                     handler=handler,
                                     frames_below=frames_below, loop=loop)
            cfg.add_edge(f_end, after)
            return after

        if isinstance(stmt, ast.While):
            head = cfg._new("loop_head", stmt)
            cfg.add_edge(pred, head)
            body_head = cfg._new("join")
            else_head = cfg._new("join")
            after = cfg._new("join")
            self._build_test(stmt.test, head, body_head, else_head,
                             handler=handler)
            # break jumps to ``after``, skipping the else clause;
            # normal loop exit (test false) runs it.
            b_end = self._build_body(stmt.body, body_head, handler=handler,
                                     frames_below=frames_below,
                                     loop=(head, after, len(frames_below)))
            cfg.add_edge(b_end, head)
            e_end = self._build_body(stmt.orelse, else_head,
                                     handler=handler,
                                     frames_below=frames_below, loop=loop)
            cfg.add_edge(e_end, after)
            return after

        if isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            head = cfg._new("loop_head", stmt)  # iterator advance + bind
            cfg.add_edge(pred, head)
            if _can_raise(stmt.iter) or _can_raise(stmt.target):
                cfg.add_edge(head, handler, EXCEPTION)
            body_head = cfg._new("join")
            else_head = cfg._new("join")
            after = cfg._new("join")
            cfg.add_edge(head, body_head, TRUE)    # next item exists
            cfg.add_edge(head, else_head, FALSE)   # exhausted
            b_end = self._build_body(stmt.body, body_head, handler=handler,
                                     frames_below=frames_below,
                                     loop=(head, after, len(frames_below)))
            cfg.add_edge(b_end, head)
            e_end = self._build_body(stmt.orelse, else_head,
                                     handler=handler,
                                     frames_below=frames_below, loop=loop)
            cfg.add_edge(e_end, after)
            return after

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # Enter nodes acquire each context manager; a single exit
            # node releases them on both the normal and exception path
            # (__exit__ runs either way — that is the point of with).
            cur = pred
            for item in stmt.items:
                enter = cfg._new("with_enter", item.context_expr)
                cfg.add_edge(cur, enter)
                cfg.add_edge(enter, handler, EXCEPTION)
                cur = enter
            exit_node = cfg._new("with_exit", stmt)
            after = cfg._new("join")
            b_end = self._build_body(stmt.body, cur, handler=exit_node,
                                     frames_below=frames_below, loop=loop)
            cfg.add_edge(b_end, exit_node)
            cfg.add_edge(exit_node, after)
            cfg.add_edge(exit_node, handler, EXCEPTION)  # re-raise path
            return after

        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, pred, handler=handler,
                                   frames_below=frames_below, loop=loop)

        if isinstance(stmt, (ast.Break, ast.Continue)):
            node = cfg._new("stmt", stmt)
            cfg.add_edge(pred, node)
            if loop is not None:
                target = loop[1] if isinstance(stmt, ast.Break) else loop[0]
                cfg.add_edge(node, self._through_finallys(
                    target, frames_below, upto=loop[2]))
            # A break/continue outside any tracked loop (malformed code)
            # just dead-ends; nothing follows it either way.
            return cfg._new("join")  # unreachable successor

        if isinstance(stmt, ast.Return):
            node = cfg._new("stmt", stmt)
            cfg.add_edge(pred, node)
            if stmt.value is not None and _can_raise(stmt.value):
                cfg.add_edge(node, handler, EXCEPTION)
            cfg.add_edge(node,
                         self._through_finallys(cfg.exit, frames_below))
            return cfg._new("join")  # unreachable successor

        if isinstance(stmt, ast.Raise):
            node = cfg._new("stmt", stmt)
            cfg.add_edge(pred, node)
            cfg.add_edge(node, handler, EXCEPTION)
            return cfg._new("join")  # unreachable successor

        # Simple statement: one node, optional exception edge.
        node = cfg._new("stmt", stmt)
        cfg.add_edge(pred, node)
        if _can_raise(stmt):
            cfg.add_edge(node, handler, EXCEPTION)
        return node

    # -- try/except/else/finally --------------------------------------- #

    def _build_try(self, stmt: ast.Try, pred: int, *, handler: int,
                   frames_below: tuple,
                   loop: tuple[int, int] | None) -> int:
        cfg = self.cfg
        after = cfg._new("join")

        if stmt.finalbody:
            frame = _FinallyFrame(builder=self, body=stmt.finalbody,
                                  outer_handler=handler,
                                  outer_frames=frames_below)
            inner_frames = frames_below + (frame,)
            # An exception escaping the try (or its handlers) runs the
            # finally and then propagates to the outer handler. Break/
            # continue/return inside the body thread the frame via
            # frames_below; no eager loop routing needed.
            escape = frame.route(handler)
        else:
            frame = None
            inner_frames = frames_below
            escape = handler

        if stmt.handlers:
            dispatch = cfg._new("except_dispatch", stmt)
            # A handler body that raises, or an unmatched exception
            # type, escapes past this try.
            body_handler = dispatch
        else:
            dispatch = None
            body_handler = escape

        t_end = self._build_body(stmt.body, pred, handler=body_handler,
                                 frames_below=inner_frames, loop=loop)
        e_end = self._build_body(stmt.orelse, t_end, handler=body_handler,
                                 frames_below=inner_frames, loop=loop)
        normal_exit = frame.route(after) if frame else after
        cfg.add_edge(e_end, normal_exit)

        if dispatch is not None:
            cfg.add_edge(dispatch, escape, EXCEPTION)  # no handler matches
            for h in stmt.handlers:
                h_head = cfg._new("except_bind", h)
                cfg.add_edge(dispatch, h_head, EXCEPTION)
                h_end = self._build_body(h.body, h_head, handler=escape,
                                         frames_below=inner_frames,
                                         loop=loop)
                cfg.add_edge(h_end, normal_exit)

        return after

    # -- boolean short-circuit ----------------------------------------- #

    def _build_test(self, test: ast.expr, pred: int, true_t: int,
                    false_t: int, *, handler: int) -> None:
        """Wire ``test`` after ``pred`` with distinct true/false exits,
        decomposing ``and``/``or``/``not`` so each operand is its own
        test node (short-circuit paths stay distinct)."""
        cfg = self.cfg
        if isinstance(test, ast.BoolOp):
            cur = pred
            for i, value in enumerate(test.values):
                last = i == len(test.values) - 1
                if last:
                    self._build_test(value, cur, true_t, false_t,
                                     handler=handler)
                else:
                    nxt = cfg._new("join")
                    if isinstance(test.op, ast.And):
                        # next operand only if this one is truthy
                        self._build_test(value, cur, nxt, false_t,
                                         handler=handler)
                    else:
                        # Or: next operand only if this one is falsy
                        self._build_test(value, cur, true_t, nxt,
                                         handler=handler)
                    cur = nxt
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._build_test(test.operand, pred, false_t, true_t,
                             handler=handler)
            return
        node = cfg._new("test", test)
        cfg.add_edge(pred, node)
        if _can_raise(test):
            cfg.add_edge(node, handler, EXCEPTION)
        cfg.add_edge(node, true_t, TRUE)
        cfg.add_edge(node, false_t, FALSE)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph for one function definition."""
    return _Builder(func).build()
