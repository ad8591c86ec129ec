"""Interprocedural lockset analysis: races (RACE001-003, RACE101-103)
and lock order (LOCK001-002), in one pass over one analysis.

Paper section 4.2 lets join threads share state with no locks; that
holds only while shared state is read-only on the hot path and every
write sits behind a lock. This module checks it with facts, not
lexical heuristics (a ``with`` whose expression merely *contains* the
substring ``lock`` guards nothing):

* a **lock model** (:func:`build_lock_model`): every lock in the
  in-scope modules, discovered from its construction site
  (``self._lock = threading.Lock()``, local ``queue_lock = Lock()``,
  module-level locks) plus every declared ``threading.local()`` holder;
* a **lockset dataflow analysis** (:class:`LocksetAnalysis`): a forward
  must-analysis on :mod:`repro.analyze.cfg`/:mod:`~repro.analyze.
  dataflow` computing the set of locks held at every statement —
  ``with`` enter/exit and explicit ``.acquire()``/``.release()`` are the
  transfer functions, exception edges out of a ``with`` exit carry the
  *post* state (``__exit__`` ran before the re-raise) — propagated
  interprocedurally through the project call graph: each function gets
  per-callee acquire/release summaries, and a private (``_``-prefixed)
  function's entry lockset is the intersection of the locksets at its
  call sites, so a helper that is only ever called under the server
  lock analyzes as holding it. A companion may-analysis (union join)
  detects locks held on *some* path;
* an **acquisition-order graph**: an edge A → B wherever B is acquired
  (directly or through a call chain) while A is held.

Finding codes:

* ``RACE001`` — a write to a module global (``global`` declaration)
  with no lock held, in code reachable from a thread entry point;
* ``RACE003`` — a mutating call (``.append()``, ``.update()``, ...) on
  a closure variable or module global with no lock held, ditto;
* ``RACE101`` — a field is accessed under inconsistent locksets across
  its sites (Eraser-style: the intersection of the locksets at all
  reachable reads/writes is empty);
* ``RACE102`` — a write to a ``self`` field (or to a field of a
  lock-owning class through another name) with *no* lock held, in code
  reachable from a thread entry point;
* ``RACE103`` — an explicitly ``.acquire()``-d lock that is released on
  some paths but not others (early return), or that leaks through an
  exception edge (no ``try/finally``/``with``);
* ``LOCK001`` — a cycle in the acquisition-order graph (potential
  deadlock), including self-cycles on non-reentrant locks;
* ``LOCK002`` — a nested acquisition that violates the declared
  hierarchy in :data:`repro.common.keys.LOCK_HIERARCHY`, or that
  involves a lock with no declared rank at all.

Shared-state inventory: the RACE codes examine functions reachable from
the thread entry points (``join_thread`` bodies, the map hot path, the
tracer span APIs, the serving layer's public surface) through
same-module call edges. ``__init__`` writes (pre-publication), declared
thread-local holders, the lock attributes themselves, and writes to
locals freshly constructed in the same function are exempt. Deliberate
exceptions are annotated ``# analyze: allow-unlocked`` on the access
line or the ``def`` line.

Documented imprecision: attribute calls resolve by duck typing (every
in-scope method of that name), so acquisition-order edges can include
infeasible chains — ranks are declared for never-nested lock pairs too,
which keeps phantom edges consistent instead of suppressing them.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.analyze.callgraph import (
    FunctionInfo,
    ProjectCallGraph,
    own_statements,
)
from repro.analyze.cfg import CFG, EXCEPTION, build_cfg
from repro.analyze.dataflow import DataflowProblem, solve
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import AnalysisContext, AnalysisPass
from repro.common.keys import lock_ranks_by_site

__all__ = [
    "ANNOTATION", "LockDisciplinePass", "LockModel", "LocksetAnalysis",
    "build_lock_model", "attr_chain",
]

ANNOTATION = "analyze: allow-unlocked"

#: Constructors that create a lock object (``threading.X()``, the
#: sanitizer's tracked wrapper, or ``repro.common.locking``'s helper
#: that picks between the two).
_LOCK_CTORS = frozenset({"Lock", "RLock", "TrackedRLock", "guarded_lock",
                         "Condition", "Semaphore", "BoundedSemaphore"})
_REENTRANT_CTORS = frozenset({"RLock", "TrackedRLock", "guarded_lock"})

#: Method names that are lock protocol, not ordinary calls.
_LOCK_METHODS = frozenset({"acquire", "release", "locked", "held",
                           "__enter__", "__exit__"})

#: Mutating container methods: ``self.x.append(...)`` writes field x.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "appendleft", "extendleft",
})

_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

_BUILTIN_NAMES = frozenset(dir(builtins))

_FuncKey = tuple[str, str]          # (module_path, qualname)


def attr_chain(node: ast.AST) -> list[str]:
    """["self", "_local", "tally"] for ``self._local.tally``; [] when
    the chain does not bottom out at a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


# --------------------------------------------------------------------- #
# Lock model: where locks and thread-local holders are declared.
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class LockDecl:
    """One lock, identified by its construction site."""

    lock_id: str                   # "<path>:<owner>.<attr>"
    path: str
    owner: str                     # class name, function qualname, or ""
    attr: str                      # attribute / variable name
    line: int
    reentrant: bool                # RLock-family constructor

    @property
    def display(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


@dataclass
class LockModel:
    """Every lock and thread-local declaration in the analyzed scope."""

    decls: dict[str, LockDecl] = field(default_factory=dict)
    #: (path, class) -> attr -> lock_id for ``self.attr = Lock()``.
    class_locks: dict[tuple[str, str], dict[str, str]] = \
        field(default_factory=dict)
    #: (path, func qualname) -> name -> lock_id for local locks.
    local_locks: dict[_FuncKey, dict[str, str]] = field(default_factory=dict)
    #: path -> name -> lock_id for module-level locks.
    module_locks: dict[str, dict[str, str]] = field(default_factory=dict)
    #: (path, class) -> attrs assigned ``threading.local()``.
    threadlocal_attrs: dict[tuple[str, str], set[str]] = \
        field(default_factory=dict)
    #: (path, class) -> every attr the class assigns on self.
    class_fields: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: lock attr name -> lock_ids (for duck-typed resolution).
    attr_locks: dict[str, list[str]] = field(default_factory=dict)

    def reentrant(self, lock_id: str) -> bool:
        decl = self.decls.get(lock_id)
        return decl.reentrant if decl else True

    def display(self, lock_id: str) -> str:
        decl = self.decls.get(lock_id)
        return decl.display if decl else lock_id


def _lock_ctor(value: ast.AST) -> str | None:
    """The lock constructor name used in ``value``, if any (handles
    conditional expressions like ``TrackedRLock(n) if s else RLock()``)."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] in _LOCK_CTORS:
                return chain[-1]
    return None


def _is_threadlocal_ctor(value: ast.AST) -> bool:
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] == "local":
                return True
    return False


def build_lock_model(graph: ProjectCallGraph) -> LockModel:
    """Scan the in-scope modules for lock and thread-local declarations."""
    model = LockModel()

    def declare(path: str, owner: str, attr: str, line: int,
                ctor: str) -> str:
        lock_id = f"{path}:{owner}.{attr}" if owner else f"{path}:{attr}"
        if lock_id not in model.decls:
            model.decls[lock_id] = LockDecl(
                lock_id=lock_id, path=path, owner=owner, attr=attr,
                line=line, reentrant=ctor in _REENTRANT_CTORS)
        return lock_id

    for mod in graph.modules:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                value = stmt.value
                if value is None:
                    continue
                ctor = _lock_ctor(value)
                if ctor is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        lock_id = declare(mod.path, "", target.id,
                                          stmt.lineno, ctor)
                        model.module_locks.setdefault(
                            mod.path, {})[target.id] = lock_id

    for (path, qualname), func in sorted(graph.functions.items()):
        cls_key = (path, func.cls) if func.cls else None
        for stmt in own_statements(func.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                continue
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            value = getattr(stmt, "value", None)
            for target in targets:
                chain = attr_chain(target)
                if cls_key and len(chain) >= 2 and chain[0] == "self":
                    model.class_fields.setdefault(
                        cls_key, set()).add(chain[1])
                if value is None:
                    continue
                ctor = _lock_ctor(value)
                if (cls_key and chain[:1] == ["self"] and len(chain) == 2):
                    if ctor is not None:
                        lock_id = declare(path, func.cls, chain[1],
                                          stmt.lineno, ctor)
                        model.class_locks.setdefault(
                            cls_key, {})[chain[1]] = lock_id
                        locks = model.attr_locks.setdefault(chain[1], [])
                        if lock_id not in locks:
                            locks.append(lock_id)
                    elif _is_threadlocal_ctor(value):
                        model.threadlocal_attrs.setdefault(
                            cls_key, set()).add(chain[1])
                elif isinstance(target, ast.Name) and ctor is not None:
                    lock_id = declare(path, qualname, target.id,
                                      stmt.lineno, ctor)
                    model.local_locks.setdefault(
                        (path, qualname), {})[target.id] = lock_id

    # A subclass of a lock-owning class shares the base's locks and
    # fields (one level: ``AggStore(GenerationalStore)``), so its own
    # ``with self._lock`` and field accesses are checked, not skipped.
    owners = {cls: (path, cls) for path, cls in model.class_locks}
    for mod in graph.modules:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_key = owners.get((attr_chain(base) or [""])[-1])
                if base_key is not None:
                    key = (mod.path, node.name)
                    model.class_locks.setdefault(key, {}).update(
                        model.class_locks[base_key])
                    model.class_fields.setdefault(key, set()).update(
                        model.class_fields.get(base_key, ()))
    return model


# --------------------------------------------------------------------- #
# Per-function facts: CFG + lock effects + field accesses per node.
# --------------------------------------------------------------------- #

@dataclass
class _Op:
    kind: str                      # "acquire" | "release" | "call"
    lock: str | None = None
    callees: tuple = ()
    line: int = 0
    explicit: bool = False         # via .acquire(), not ``with``


@dataclass
class _Access:
    owner: tuple[str, str]         # (path, class) owning the field
    base: str                      # the name it is reached through
    attr: str
    write: bool
    node_index: int
    line: int
    func_key: _FuncKey


@dataclass
class _Facts:
    cfg: CFG
    effects: dict[int, list[_Op]] = field(default_factory=dict)
    accesses: list[_Access] = field(default_factory=list)
    node_of: dict[int, int] = field(default_factory=dict)  # id(ast)->node
    explicit: dict[str, int] = field(default_factory=dict)  # lock->line
    acquires: set[str] = field(default_factory=set)
    callees: set[_FuncKey] = field(default_factory=set)


def _walk_expr(node: ast.AST):
    """``node`` and descendants, skipping lambda bodies (deferred)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Lambda, ast.FunctionDef,
                              ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _walk_expr(child)


def _node_exprs(node) -> list[ast.AST]:
    """The AST the CFG node evaluates (per the builder's node kinds)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "stmt":
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []
        return [stmt]
    if node.kind in ("test", "with_enter"):
        return [stmt]
    if node.kind == "loop_head" and isinstance(stmt, (ast.For,
                                                      ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    return []                      # with_exit/except_* handled elsewhere


class LocksetAnalysis:
    """Interprocedural lockset facts over one :class:`ProjectCallGraph`.

    Call :meth:`solve` once; afterwards ``must``/``may`` hold per-node
    fixpoint states per function, ``order_edges`` the acquisition-order
    graph, and :meth:`lockset_at` answers "which locks are definitely
    held at this AST node".
    """

    _ROUNDS = 6                    # entry-lockset/summary fixpoint bound

    def __init__(self, graph: ProjectCallGraph, model: LockModel,
                 entries: tuple[str, ...] = ()):
        self.graph = graph
        self.model = model
        self.entries = tuple(entries)
        self.facts: dict[_FuncKey, _Facts] = {}
        self.entry_locksets: dict[_FuncKey, frozenset] = {}
        #: key -> (released-from-caller, acquired-at-exit) summaries.
        self.summaries: dict[_FuncKey, tuple[frozenset, frozenset]] = {}
        #: locks acquired anywhere inside a function or its callees.
        self.acq_within: dict[_FuncKey, frozenset] = {}
        #: (held, acquired) -> (path, line, qualname) first witness.
        self.order_edges: dict[tuple[str, str], tuple[str, int, str]] = {}
        self.must: dict[_FuncKey, object] = {}
        self.may: dict[_FuncKey, object] = {}
        self._callsites: dict[_FuncKey, list[frozenset]] = {}

    # -- fact construction --------------------------------------------- #

    def _resolve_lock(self, func: FunctionInfo,
                      expr: ast.AST) -> str | None:
        chain = attr_chain(expr)
        if not chain:
            return None
        path = func.module_path
        if len(chain) == 1:
            name = chain[0]
            qual = func.qualname
            while qual:                       # this scope, then closures
                locks = self.model.local_locks.get((path, qual))
                if locks and name in locks:
                    return locks[name]
                parent = self.graph.functions.get((path, qual))
                qual = parent.parent if parent else None
            return self.model.module_locks.get(path, {}).get(name)
        if chain[0] == "self" and len(chain) == 2 and func.cls:
            locks = self.model.class_locks.get((path, func.cls))
            if locks and chain[1] in locks:
                return locks[chain[1]]
        # Duck-typed: the attribute name declares exactly one lock.
        candidates = self.model.attr_locks.get(chain[-1], ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _callees_of(self, func: FunctionInfo,
                    call: ast.Call) -> tuple[_FuncKey, ...]:
        target = call.func
        path = func.module_path
        if isinstance(target, ast.Name):
            nested = f"{func.qualname}.{target.id}"
            if (path, nested) in self.graph.functions:
                return ((path, nested),)
            if (path, target.id) in self.graph.functions:
                return ((path, target.id),)
            return ()
        if isinstance(target, ast.Attribute):
            name = target.attr
            if name in _LOCK_METHODS or name.startswith("__"):
                return ()
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and func.cls
                    and (path, f"{func.cls}.{name}") in self.graph.functions):
                return ((path, f"{func.cls}.{name}"),)
            return tuple(sorted(self.graph._by_name.get(name, ())))
        return ()

    def _fresh_locals(self, func: FunctionInfo) -> set[str]:
        """Locals assigned from a call in this function: writes to their
        attributes are writes to an object this function constructed
        (``span = Span(...); span.start_s = ...``), not shared state."""
        fresh: set[str] = set()
        for stmt in own_statements(func.node):
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        fresh.add(target.id)
        return fresh

    def _field_owner(self, func: FunctionInfo, base: str,
                     attr: str) -> tuple[str, str] | None:
        """The class whose field ``attr`` this access hits: the method's
        own class through ``self``, else the one lock-owning class that
        has such a field."""
        path = func.module_path
        if base == "self":
            return (path, func.cls) if func.cls else None
        owners = [key for key in self.model.class_locks
                  if attr in self.model.class_fields.get(key, ())]
        return owners[0] if len(owners) == 1 else None

    def _record_accesses(self, key: _FuncKey, func: FunctionInfo,
                         facts: _Facts, node_index: int,
                         top: ast.AST, fresh: set[str]) -> None:
        if func.node.name in _INIT_METHODS:
            return

        def record(base: str, attr: str, write: bool, line: int):
            if base != "self" and (base in fresh or base == "cls"):
                return
            owner = self._field_owner(func, base, attr)
            if owner is None:
                return
            if attr in self.model.class_locks.get(owner, ()):
                return
            if attr in self.model.threadlocal_attrs.get(owner, ()):
                return
            facts.accesses.append(_Access(
                owner=owner, base=base, attr=attr, write=write,
                node_index=node_index, line=line, func_key=key))

        for sub in _walk_expr(top):
            if isinstance(sub, ast.Attribute):
                chain = attr_chain(sub)
                write = isinstance(sub.ctx, (ast.Store, ast.Del))
                # ``self.a.b = v`` writes into field ``a``'s object.
                if len(chain) == 2 or (write and len(chain) > 2):
                    record(chain[0], chain[1], write, sub.lineno)
            elif (isinstance(sub, ast.Subscript)
                    and isinstance(sub.ctx, (ast.Store, ast.Del))):
                chain = attr_chain(sub.value)
                if len(chain) >= 2:
                    record(chain[0], chain[1], True, sub.lineno)
            elif (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATORS):
                chain = attr_chain(sub.func.value)
                if len(chain) >= 2:
                    record(chain[0], chain[1], True, sub.lineno)

    def _build_facts(self, key: _FuncKey) -> _Facts:
        func = self.graph.functions[key]
        facts = _Facts(cfg=build_cfg(func.node))
        fresh = self._fresh_locals(func)
        for node in facts.cfg.nodes:
            ops: list[_Op] = []
            if node.kind == "with_enter":
                lock = self._resolve_lock(func, node.stmt)
                if lock is not None:
                    ops.append(_Op("acquire", lock=lock,
                                   line=node.stmt.lineno))
                    facts.acquires.add(lock)
            if node.kind == "with_exit":
                for item in node.stmt.items:
                    lock = self._resolve_lock(func, item.context_expr)
                    if lock is not None:
                        ops.append(_Op("release", lock=lock,
                                       line=node.stmt.lineno))
            for top in _node_exprs(node):
                for sub in _walk_expr(top):
                    facts.node_of.setdefault(id(sub), node.index)
                    if not isinstance(sub, ast.Call):
                        continue
                    op = self._call_op(func, sub)
                    if op is not None:
                        ops.append(op)
                        if op.kind == "acquire":
                            facts.acquires.add(op.lock)
                            facts.explicit.setdefault(op.lock, op.line)
                        elif op.kind == "call":
                            facts.callees.update(op.callees)
                self._record_accesses(key, func, facts, node.index, top,
                                      fresh)
            if ops:
                facts.effects[node.index] = ops
        return facts

    def _call_op(self, func: FunctionInfo, call: ast.Call) -> _Op | None:
        target = call.func
        if isinstance(target, ast.Attribute):
            if target.attr in ("acquire", "release"):
                lock = self._resolve_lock(func, target.value)
                if lock is not None:
                    kind = ("acquire" if target.attr == "acquire"
                            else "release")
                    return _Op(kind, lock=lock, line=call.lineno,
                               explicit=True)
                # Unresolved .acquire()/.release(): not a known lock,
                # and not a call edge either (lock protocol names are
                # excluded from duck typing).
                return None
            if target.attr in _LOCK_METHODS:
                return None
        callees = self._callees_of(func, call)
        if callees:
            return _Op("call", callees=callees, line=call.lineno)
        return None

    # -- dataflow ------------------------------------------------------- #

    def _apply(self, ops: list[_Op], state: frozenset) -> frozenset:
        for op in ops:
            if op.kind == "acquire":
                state = state | {op.lock}
            elif op.kind == "release":
                state = state - {op.lock}
            else:
                for callee in op.callees:
                    summary = self.summaries.get(callee)
                    if summary is None:
                        continue
                    released, acquired = summary
                    if released:
                        state = state - released
                    if acquired:
                        state = state | acquired
        return state

    def _solve_function(self, key: _FuncKey, facts: _Facts,
                        entry: frozenset, must: bool):
        analysis = self

        class _Problem(DataflowProblem):
            def initial(self):
                return entry

            def bottom(self):
                return None

            def join(self, a, b):
                if a is None:
                    return b
                if b is None:
                    return a
                return (a & b) if must else (a | b)

            def transfer(self, node, state):
                if state is None:
                    return None
                ops = facts.effects.get(node.index)
                return analysis._apply(ops, state) if ops else state

            def edge_state(self, kind, node, pre, post):
                if kind != EXCEPTION:
                    return super().edge_state(kind, node, pre, post)
                # __exit__ runs before the re-raise: the exception
                # edge out of a with_exit carries the released state.
                if node.kind == "with_exit":
                    return post
                # An explicit .release() is atomic in the model: even
                # when the surrounding statement raises, the release
                # itself does not leave the lock held.
                if pre is not None:
                    ops = facts.effects.get(node.index)
                    if ops:
                        for op in ops:
                            if op.kind == "release":
                                pre = pre - {op.lock}
                return pre

        return solve(facts.cfg, _Problem())

    def _entry_for(self, key: _FuncKey) -> frozenset:
        func = self.graph.functions[key]
        name = func.node.name
        if (not name.startswith("_") or name.startswith("__")
                or name in self.entries or func.qualname in self.entries):
            return frozenset()
        sites = self._callsites.get(key)
        if not sites:
            return frozenset()
        entry = sites[0]
        for state in sites[1:]:
            entry = entry & state
        return entry

    def _collect(self, key: _FuncKey, facts: _Facts, result,
                 callsites, edges) -> tuple[frozenset, frozenset]:
        """Replay effects over the must solution: call-site locksets,
        order edges, and the (released, acquired) summary."""
        func = self.graph.functions[key]
        path, qualname = key
        entry = self.entry_locksets.get(key, frozenset())
        released_up: set[str] = set()

        def note_acquire(cur: frozenset, lock: str, line: int):
            if lock in cur:
                if not self.model.reentrant(lock):
                    edges.setdefault((lock, lock), (path, line, qualname))
                return
            for held in sorted(cur):
                edges.setdefault((held, lock), (path, line, qualname))

        for node in facts.cfg.nodes:
            ops = facts.effects.get(node.index)
            if not ops:
                continue
            cur = result.input(node.index)
            if cur is None:
                continue
            for op in ops:
                if op.kind == "acquire":
                    note_acquire(cur, op.lock, op.line)
                    cur = cur | {op.lock}
                elif op.kind == "release":
                    if op.lock not in cur or op.lock in entry:
                        released_up.add(op.lock)
                    cur = cur - {op.lock}
                else:
                    for callee in op.callees:
                        callsites.setdefault(callee, []).append(cur)
                        if cur:
                            for lock in sorted(
                                    self.acq_within.get(callee, ())):
                                note_acquire(cur, lock, op.line)
                    cur = self._apply([op], cur)

        exit_state = result.input(facts.cfg.exit)
        acquired = (frozenset() if exit_state is None
                    else exit_state - entry)
        return frozenset(released_up), acquired

    def solve(self) -> "LocksetAnalysis":
        for key in sorted(self.graph.functions):
            self.facts[key] = self._build_facts(key)

        # Transitive closure of "locks acquired within": static, so it
        # converges independently of the lockset rounds.
        acq = {key: frozenset(facts.acquires)
               for key, facts in self.facts.items()}
        for _ in range(len(self.model.decls) + 2):
            changed = False
            for key, facts in self.facts.items():
                merged = acq[key]
                for callee in facts.callees:
                    extra = acq.get(callee)
                    if extra and not extra <= merged:
                        merged = merged | extra
                if merged != acq[key]:
                    acq[key] = merged
                    changed = True
            if not changed:
                break
        self.acq_within = acq

        for _ in range(self._ROUNDS):
            self.entry_locksets = {key: self._entry_for(key)
                                   for key in self.facts}
            callsites: dict[_FuncKey, list[frozenset]] = {}
            edges: dict[tuple[str, str], tuple[str, int, str]] = {}
            summaries: dict[_FuncKey, tuple[frozenset, frozenset]] = {}
            for key in sorted(self.facts):
                facts = self.facts[key]
                entry = self.entry_locksets[key]
                must = self._solve_function(key, facts, entry, must=True)
                self.must[key] = must
                self.may[key] = self._solve_function(key, facts, entry,
                                                     must=False)
                summaries[key] = self._collect(key, facts, must,
                                               callsites, edges)
            stable = (summaries == self.summaries
                      and callsites == self._callsites)
            self.summaries = summaries
            self._callsites = callsites
            self.order_edges = edges
            if stable:
                break
        return self

    # -- queries ---------------------------------------------------------- #

    def lockset_at(self, key: _FuncKey, node: ast.AST) -> frozenset:
        """Locks definitely held when ``node`` executes (∅ if unknown)."""
        facts = self.facts.get(key)
        if facts is None:
            return frozenset()
        index = facts.node_of.get(id(node))
        if index is None:
            return frozenset()
        state = self.must[key].input(index)
        return state if state is not None else frozenset()

    def checked_functions(self) -> set[_FuncKey]:
        """Functions reachable from the thread entry points through
        same-module call edges — the shared-state inventory scope.
        (Cross-module duck edges are deliberately not followed here:
        they would pull driver-side setup like ``initialize`` into the
        concurrent set through infeasible chains.)"""
        entries = set(self.entries)
        frontier = [key for key, func in self.graph.functions.items()
                    if func.node.name in entries
                    or func.qualname in entries]
        seen: set[_FuncKey] = set()
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            path = key[0]
            for qual in self.graph.functions[key].calls:
                callee = (path, qual)
                if callee in self.graph.functions and callee not in seen:
                    frontier.append(callee)
        return seen


#: Modules that own or touch threading locks.
SCOPES = ("repro/serve/", "repro/trace/", "repro/mapreduce/",
          "repro/core/")

#: Thread entry points: code that runs concurrently by design. Bare
#: names match nested thread bodies; qualnames pin class methods so a
#: name like ``close`` does not pull unrelated driver-side code in.
THREAD_ENTRIES = (
    "join_thread", "JoinThreadPool.fan_out", "JoinThreadPool._serve",
    "StarJoinMapper.map", "StarJoinMapper.process_record",
    "Tracer.span", "Tracer.start", "Tracer._finish", "Span.finish",
    "NullTracer.span", "NullTracer.start", "NullSpan.finish",
    "GenerationalStore.get", "GenerationalStore.put",
    "GenerationalStore.invalidate", "GenerationalStore.stats",
    "GenerationalStore.current_generation", "GenerationalStore.__len__",
    "ResultCache.lookup", "ResultCache.store",
    "AggStore.fetch", "AggStore.peek", "AggStore.admit", "AggStore.stats",
    "Frontend.session", "Frontend.stats", "Frontend.close",
    "Frontend.reload_catalog", "Frontend.invalidate_caches",
    "Frontend.worker_stats", "Frontend.explain",
    "Frontend._execute", "Frontend._serve", "Frontend._admit",
    "Frontend._recover_worker", "Frontend._detach",
    "FrontendSession.execute",
    "ShapeRouter.route", "ShapeRouter.forget_worker",
    "ShapeRouter.add_worker", "ShapeRouter.workers",
    "ShapeRouter.assignments", "ShapeRouter.loads",
    "WorkerHandle.request", "WorkerHandle.post", "WorkerHandle.alive",
    "WorkerHandle.mark_dead", "WorkerHandle.ensure_respawned",
    "WorkerHandle.kill", "WorkerHandle.shutdown",
    "WorkerHandle.execute_count",
)


def _allowed(lines: list[str], lineno: int) -> bool:
    if 0 < lineno <= len(lines):
        return ANNOTATION in lines[lineno - 1]
    return False


def _module_globals(tree: ast.Module) -> set[str]:
    """Names a module binds at top level."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                names.update(node.id for node in ast.walk(target)
                             if isinstance(node, ast.Name))
    return names


class LockDisciplinePass(AnalysisPass):
    """RACE001-003, RACE101-103 and LOCK001-002 over one
    :class:`LocksetAnalysis`."""

    pass_id = "locks"
    description = ("shared state reachable from thread entry points is "
                   "written only under a lock, fields keep one lockset, "
                   "and nested acquisitions follow the rank order in "
                   "repro.common.keys.LOCK_HIERARCHY (annotate "
                   "'# analyze: allow-unlocked' to opt out)")

    def __init__(self, scopes: tuple[str, ...] | None = None,
                 entries: tuple[str, ...] | None = None,
                 hierarchy: dict[str, tuple[str, int]] | None = None):
        self.scopes = tuple(scopes) if scopes else SCOPES
        self.entries = tuple(entries) if entries else THREAD_ENTRIES
        #: lock declaration site -> (symbolic name, rank).
        self.hierarchy = (dict(hierarchy) if hierarchy is not None
                          else {site: (rank.name, rank.rank)
                                for site, rank
                                in lock_ranks_by_site().items()})

    def run(self, context: AnalysisContext) -> list[Finding]:
        graph = ProjectCallGraph(context, scopes=self.scopes)
        analysis = LocksetAnalysis(graph, build_lock_model(graph),
                                   self.entries).solve()
        lines_by_path = {mod.path: mod.text.splitlines()
                         for mod in graph.modules}
        checked = analysis.checked_functions()
        findings: list[Finding] = []
        findings.extend(self._check_names(analysis, checked, lines_by_path))
        findings.extend(self._check_fields(analysis, checked,
                                           lines_by_path))
        findings.extend(self._check_leaks(analysis, lines_by_path))
        edges = analysis.order_edges
        in_cycle = self._report_cycles(analysis, edges, findings)
        self._report_rank_violations(analysis, edges, in_cycle, findings)
        return findings

    def _error(self, path: str, line: int, code: str,
               message: str) -> Finding:
        return Finding(path=path, line=line, code=code, message=message,
                       severity=Severity.ERROR, pass_id=self.pass_id)

    # -- RACE001/003 ---------------------------------------------------- #

    def _check_names(self, analysis: LocksetAnalysis, checked,
                     lines_by_path) -> list[Finding]:
        """Unlocked writes to module globals and mutations of closure
        variables or module globals."""
        module_globals = {mod.path: _module_globals(mod.tree)
                          for mod in analysis.graph.modules}
        findings: list[Finding] = []
        for key in sorted(checked):
            path = key[0]
            func = analysis.graph.functions[key]
            lines = lines_by_path.get(path, [])
            if _allowed(lines, func.node.lineno):
                continue

            def report(node, code, message):
                if not (analysis.lockset_at(key, node)
                        or _allowed(lines, node.lineno)):
                    findings.append(self._error(path, node.lineno, code,
                                                message))

            for node in own_statements(func.node):
                if isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        while isinstance(target, ast.Subscript):
                            target = target.value
                        if (isinstance(target, ast.Name)
                                and target.id in func.global_decls):
                            report(node, "RACE001",
                                   f"{func.qualname} writes module global "
                                   f"{target.id!r} without holding a lock")
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS
                        and isinstance(node.func.value, ast.Name)):
                    name = node.func.value.id
                    if name in func.locals or name == "self":
                        continue
                    if (name in func.global_decls
                            or name in module_globals[path]):
                        kind = "module global"
                    elif (func.parent is not None
                            and name not in _BUILTIN_NAMES):
                        kind = "closure variable"
                    else:
                        continue
                    report(node, "RACE003",
                           f"{func.qualname} mutates {kind} {name!r} via "
                           f".{node.func.attr}() without holding a lock")
        return findings

    # -- RACE101/102 ---------------------------------------------------- #

    def _check_fields(self, analysis: LocksetAnalysis, checked,
                      lines_by_path) -> list[Finding]:
        groups: dict[tuple[tuple[str, str], str], list] = {}
        for key in sorted(checked):
            facts = analysis.facts.get(key)
            if facts is None:
                continue
            must = analysis.must[key]
            for access in facts.accesses:
                state = must.input(access.node_index)
                lockset = state if state is not None else frozenset()
                groups.setdefault((access.owner, access.attr), []).append(
                    (access, lockset))

        findings: list[Finding] = []
        for (owner, attr), sites in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            path, cls = owner
            writes = [(a, s) for a, s in sites if a.write]
            if not writes:
                continue
            sites = sorted(sites, key=lambda pair: pair[0].line)
            if self._report_unlocked_writes(analysis, findings,
                                            lines_by_path, cls, attr,
                                            writes):
                continue
            common = sites[0][1]
            for _, lockset in sites[1:]:
                common = common & lockset
            if common or len(sites) < 2:
                continue
            self._report_inconsistent(analysis, findings, lines_by_path,
                                      cls, attr, sites)
        return findings

    def _report_unlocked_writes(self, analysis, findings, lines_by_path,
                                cls, attr, writes) -> bool:
        reported = False
        seen_lines: set[tuple[str, int]] = set()
        for access, lockset in writes:
            if lockset:
                continue
            func = analysis.graph.functions[access.func_key]
            lines = lines_by_path.get(access.func_key[0], [])
            if (_allowed(lines, access.line)
                    or _allowed(lines, func.node.lineno)):
                reported = True     # deliberately waived, not RACE101 fodder
                continue
            dedup = (access.func_key[0], access.line)
            if dedup in seen_lines:
                continue
            seen_lines.add(dedup)
            findings.append(self._error(
                access.func_key[0], access.line, "RACE102",
                f"{func.qualname} writes shared field {cls}.{attr} "
                f"({access.base}.{attr}) with no lock held (reachable "
                f"from a thread entry point)"))
            reported = True
        return reported

    def _report_inconsistent(self, analysis, findings, lines_by_path,
                             cls, attr, sites) -> None:
        counts: dict[str, int] = {}
        for _, lockset in sites:
            for lock in lockset:
                counts[lock] = counts.get(lock, 0) + 1
        majority = max(sorted(counts), key=lambda lock: counts[lock])
        anchor = next((a for a, s in sites if majority not in s),
                      sites[0][0])
        func = analysis.graph.functions[anchor.func_key]
        lines = lines_by_path.get(anchor.func_key[0], [])
        if _allowed(lines, anchor.line) or _allowed(lines,
                                                    func.node.lineno):
            return
        findings.append(self._error(
            anchor.func_key[0], anchor.line, "RACE101",
            f"field {cls}.{attr} is accessed under inconsistent "
            f"locksets: {analysis.model.display(majority)} held at "
            f"{counts[majority]} of {len(sites)} sites, but not in "
            f"{func.qualname}"))

    # -- RACE103 -------------------------------------------------------- #

    def _check_leaks(self, analysis: LocksetAnalysis,
                     lines_by_path) -> list[Finding]:
        findings: list[Finding] = []
        for key in sorted(analysis.facts):
            func = analysis.graph.functions[key]
            if func.node.name in _LOCK_METHODS:
                continue            # lock wrappers hold by design
            facts = analysis.facts[key]
            if not facts.explicit:
                continue
            entry = analysis.entry_locksets.get(key, frozenset())
            must = analysis.must[key]
            may = analysis.may[key]
            exit_must = must.input(facts.cfg.exit)
            exit_may = may.input(facts.cfg.exit)
            raise_may = may.input(facts.cfg.raise_exit)
            lines = lines_by_path.get(key[0], [])
            for lock, line in sorted(facts.explicit.items()):
                if lock in entry:
                    continue
                if _allowed(lines, line) or _allowed(lines,
                                                     func.node.lineno):
                    continue
                display = analysis.model.display(lock)
                if exit_may is not None and lock in exit_may:
                    if exit_must is not None and lock in exit_must:
                        what = "is still held at every return"
                    else:
                        what = ("is released on some return paths but "
                                "not others (early return leaks it)")
                elif raise_may is not None and lock in raise_may:
                    what = ("can leak through an exception path "
                            "(acquire/release without try/finally)")
                else:
                    continue
                findings.append(self._error(
                    key[0], line, "RACE103",
                    f"{func.qualname} acquires {display} which {what}"))
        return findings

    # -- LOCK001 -------------------------------------------------------- #

    def _report_cycles(self, analysis, edges, findings) -> set[str]:
        adjacency: dict[str, set[str]] = {}
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())
        in_cycle: set[str] = set()
        for component in _tarjan_sccs(adjacency):
            self_loop = (len(component) == 1
                         and (component[0], component[0]) in edges)
            if len(component) < 2 and not self_loop:
                continue
            component = sorted(component)
            in_cycle.update(component)
            witness = min(
                ((a, b) for a in component for b in component
                 if (a, b) in edges),
                key=lambda ab: edges[ab])
            path, line, qualname = edges[witness]
            names = [analysis.model.display(lock) for lock in component]
            if self_loop:
                message = (f"potential self-deadlock: non-reentrant lock "
                           f"{names[0]} is acquired while already held "
                           f"(in {qualname})")
            else:
                cycle = " -> ".join(names + [names[0]])
                message = (f"potential deadlock: lock acquisition cycle "
                           f"{cycle} ({analysis.model.display(witness[1])}"
                           f" acquired while holding "
                           f"{analysis.model.display(witness[0])} in "
                           f"{qualname})")
            findings.append(self._error(path, line, "LOCK001", message))
        return in_cycle

    # -- LOCK002 -------------------------------------------------------- #

    def _report_rank_violations(self, analysis, edges, in_cycle,
                                findings) -> None:
        undeclared_seen: set[str] = set()
        for (held, acquired) in sorted(edges):
            if held == acquired:
                continue            # self-cycles are LOCK001's
            if held in in_cycle and acquired in in_cycle:
                continue            # the cycle finding covers these
            path, line, qualname = edges[(held, acquired)]
            held_rank = self.hierarchy.get(held)
            acq_rank = self.hierarchy.get(acquired)
            if held_rank is not None and acq_rank is not None:
                if acq_rank[1] <= held_rank[1]:
                    findings.append(self._error(
                        path, line, "LOCK002",
                        f"{qualname} acquires {acq_rank[0]} (rank "
                        f"{acq_rank[1]}) while holding {held_rank[0]} "
                        f"(rank {held_rank[1]}); the declared hierarchy "
                        f"requires strictly increasing rank"))
                continue
            for lock, rank in ((held, held_rank), (acquired, acq_rank)):
                if rank is not None or lock in undeclared_seen:
                    continue
                undeclared_seen.add(lock)
                findings.append(self._error(
                    path, line, "LOCK002",
                    f"nested acquisition involves lock "
                    f"{analysis.model.display(lock)} which has no "
                    f"declared rank; add it to "
                    f"repro.common.keys.LOCK_HIERARCHY"))


def _tarjan_sccs(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components, iteratively (no recursion limit)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, iter(sorted(adjacency[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                sccs.append(component)
    return sccs
