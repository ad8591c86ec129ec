"""Runtime shared-state sanitizer (enabled by ``clydesdale.sanitizer``).

The static lockset pass (:mod:`repro.analyze.locks`) proves the *code
it can see* follows the read-only-after-build convention; this module
enforces it at runtime for the code it cannot. When the flag is on, :class:`StarJoinMapper` freezes
its dimension hash tables the moment they are published to the join
threads: any later mutation — of the underlying dict or of the table
object's attributes — raises :class:`~repro.common.errors.SanitizerError`
at the mutation site instead of corrupting a concurrent probe.

Read paths are untouched: the frozen dict is a real ``dict`` subclass,
so the key-index lookups of ``probe``, ``select_hits`` and
``entries_at`` run at full speed.

Concurrency v2 adds the *lock-discipline* half: :class:`TrackedRLock`
is a drop-in reentrant lock that records per-thread acquisition order
and raises :class:`~repro.common.errors.SanitizerError` on a rank
inversion against the hierarchy declared in
:data:`repro.common.keys.LOCK_HIERARCHY` — the dynamic companion to the
static lock-order check (``LOCK001/002``), catching orderings the
analyzer cannot see (locks taken through callbacks, data-dependent
paths). Pairing it with
:func:`guard_fields` additionally rejects writes to named fields while
the guarding lock is *not* held — a check the frozen-table sanitizer
cannot express, because guarded state is mutable *under* its lock.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.common.errors import SanitizerError
from repro.common.keys import LOCK_HIERARCHY


class FrozenTableDict(dict):
    """A dict whose mutators raise ``SanitizerError``.

    Lookups (``get``, ``in``, ``[]``, iteration) behave exactly like the
    dict it was built from; only mutation is blocked.
    """

    __slots__ = ()

    def _blocked(self, method: str) -> SanitizerError:
        return SanitizerError(
            f"hash table mutated after publish: dict.{method}() on a "
            f"frozen dimension table (clydesdale.sanitizer is on)")

    def __setitem__(self, key, value):
        raise self._blocked("__setitem__")

    def __delitem__(self, key):
        raise self._blocked("__delitem__")

    def clear(self):
        raise self._blocked("clear")

    def pop(self, *args, **kwargs):
        raise self._blocked("pop")

    def popitem(self):
        raise self._blocked("popitem")

    def setdefault(self, *args, **kwargs):
        raise self._blocked("setdefault")

    def update(self, *args, **kwargs):
        raise self._blocked("update")

    def __ior__(self, other):
        raise self._blocked("__ior__")


_frozen_classes: dict[type, type] = {}


def _frozen_class(cls: type) -> type:
    """A subclass of ``cls`` whose attribute writes raise."""
    frozen = _frozen_classes.get(cls)
    if frozen is None:
        def _setattr(self, name: str, value: Any):
            raise SanitizerError(
                f"attribute {name!r} assigned on a published "
                f"{cls.__name__} (clydesdale.sanitizer is on)")

        def _delattr(self, name: str):
            raise SanitizerError(
                f"attribute {name!r} deleted from a published "
                f"{cls.__name__} (clydesdale.sanitizer is on)")

        frozen = type(f"Frozen{cls.__name__}", (cls,), {
            "__setattr__": _setattr,
            "__delattr__": _delattr,
        })
        _frozen_classes[cls] = frozen
    return frozen


def freeze_table(table: Any) -> Any:
    """Freeze one hash-table object in place and return it.

    The backing ``_table`` dict is replaced by a
    :class:`FrozenTableDict` and the instance is re-classed so attribute
    assignment raises too. Idempotent.
    """
    if isinstance(getattr(table, "_table", None), dict) \
            and not isinstance(table._table, FrozenTableDict):
        # Swap the dict before re-classing, while __setattr__ still works.
        table._table = FrozenTableDict(table._table)
    if "Frozen" not in type(table).__name__:
        object.__setattr__(table, "__class__", _frozen_class(type(table)))
    return table


def freeze_hash_tables(tables) -> None:
    """Freeze every table in a published hash-table list in place."""
    for table in tables:
        freeze_table(table)


# --------------------------------------------------------------------- #
# Lock-discipline sanitizer (concurrency v2).
# --------------------------------------------------------------------- #

_held_stacks = threading.local()


def _held_stack() -> list:
    stack = getattr(_held_stacks, "stack", None)
    if stack is None:
        stack = []
        _held_stacks.stack = stack
    return stack


class TrackedRLock:
    """A reentrant lock that enforces the declared acquisition order.

    ``name`` must be a lock declared in
    :data:`repro.common.keys.LOCK_HIERARCHY` (or an explicit ``rank``
    must be given, for tests). Acquiring a lock whose rank is not
    strictly greater than every *other* lock this thread already holds
    raises :class:`SanitizerError` — the runtime mirror of the static
    ``LOCK002`` rule. Re-acquiring a lock already held by this thread
    is fine (it is an RLock).

    Use it exactly like ``threading.RLock``: ``with lock: ...`` or
    ``acquire()``/``release()``.
    """

    __slots__ = ("name", "rank", "_lock")

    def __init__(self, name: str, rank: int | None = None):
        if rank is None:
            declared = LOCK_HIERARCHY.get(name)
            if declared is None:
                raise SanitizerError(
                    f"lock {name!r} has no declared rank; add it to "
                    f"repro.common.keys.LOCK_HIERARCHY or pass rank=")
            rank = declared.rank
        self.name = name
        self.rank = rank
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        stack = _held_stack()
        if not any(held is self for held in stack):
            for held in stack:
                if held.rank >= self.rank:
                    raise SanitizerError(
                        f"lock-order inversion: acquiring "
                        f"{self.name!r} (rank {self.rank}) while "
                        f"holding {held.name!r} (rank {held.rank}); "
                        f"the declared hierarchy requires strictly "
                        f"increasing rank")
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        else:
            raise SanitizerError(
                f"lock {self.name!r} released by a thread that does "
                f"not hold it")
        self._lock.release()

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def held(self) -> bool:
        """Whether the *current thread* holds this lock."""
        return any(held is self for held in _held_stack())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedRLock({self.name!r}, rank={self.rank})"


_guarded_classes: dict[type, type] = {}


def _guarded_class(cls: type) -> type:
    """A subclass of ``cls`` that rejects unguarded writes to the
    fields named in the instance's ``_sanitizer_guard`` spec."""
    guarded = _guarded_classes.get(cls)
    if guarded is None:
        def _setattr(self, name: str, value: Any):
            spec = self.__dict__.get("_sanitizer_guard")
            if spec is not None:
                lock, fields = spec
                if name in fields and not lock.held():
                    raise SanitizerError(
                        f"unguarded write: {cls.__name__}.{name} "
                        f"assigned without holding {lock.name!r} "
                        f"(clydesdale.sanitizer is on)")
            object.__setattr__(self, name, value)

        guarded = type(f"Guarded{cls.__name__}", (cls,),
                       {"__setattr__": _setattr})
        _guarded_classes[cls] = guarded
    return guarded


def guard_fields(obj: Any, lock: TrackedRLock,
                 fields: Iterable[str]) -> Any:
    """Re-class ``obj`` so assigning any of ``fields`` without holding
    ``lock`` raises :class:`SanitizerError`. Returns ``obj``.

    This is the check :func:`freeze_table` cannot express: frozen
    objects reject *every* write, but lock-guarded state is mutable —
    just only under its lock.
    """
    object.__setattr__(obj, "_sanitizer_guard",
                       (lock, frozenset(fields)))
    if "Guarded" not in type(obj).__name__:
        object.__setattr__(obj, "__class__", _guarded_class(type(obj)))
    return obj
