"""Predicate and value expressions for star queries.

Predicates filter rows of a single table (dimension predicates are
evaluated during hash-table build; fact predicates during the scan).
Value expressions compute aggregate inputs such as
``lo_extendedprice * lo_discount``.

Both kinds serialize to plain dicts so a whole query can travel through a
``JobConf`` the way the paper's Figure 4 passes ``queryParams``.

A predicate has two forms: the row-at-a-time ``evaluate(get)`` and the
whole-block ``evaluate_mask``; ``evaluate_block`` chooses between them.

* ``evaluate_mask(columns, num_rows)`` — the whole-block verdict mask.
  ``columns`` maps column name to a whole column (a typed
  :class:`~repro.storage.columnvector.ColumnVector` or a plain list).
  Returns one boolean numpy array over all ``num_rows`` positions, or
  ``None`` when the predicate cannot run on the block's buffers (plain
  lists, mixed-type literals). On dictionary-encoded columns the
  literal is translated to code space once — an ``=`` against a value
  absent from the dictionary short-circuits to an all-False mask
  without touching a single row.
* ``evaluate_block(columns, selection)`` — filter an ordered selection
  of candidate row positions to those whose rows satisfy the predicate:
  through the mask when there is one, else row by row through
  ``evaluate`` (exact Python semantics on any sequence).
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.storage.columnvector import (
    DictionaryVector,
    NumericVector,
    as_index_array,
)

Getter = Callable[[str], Any]

#: Column vectors for one block: name -> plain list or ColumnVector.
Columns = Mapping[str, Sequence[Any]]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# --------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------- #

class Predicate(ABC):
    """Boolean expression over one table's row."""

    @abstractmethod
    def evaluate(self, get: Getter) -> bool:
        """Evaluate against ``get(column_name) -> value``."""

    def evaluate_block(self, columns: Columns,
                       selection: Sequence[int]) -> Sequence[int]:
        """Filter ``selection`` to the positions satisfying the predicate
        (order kept): one gather from :meth:`evaluate_mask` when the
        block's buffers allow it, else each selected row through
        :meth:`evaluate`."""
        num_rows = max(map(len, columns.values()), default=0)
        mask = self.evaluate_mask(columns, num_rows)
        if mask is not None:
            sel = as_index_array(selection)
            return sel[mask[sel]]
        getter = _ColumnsRowGetter(columns)
        out = []
        append = out.append
        evaluate = self.evaluate
        for i in selection:
            getter.row = i
            if evaluate(getter):
                append(i)
        return out

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        """One boolean verdict per block position, or ``None`` when the
        predicate cannot run on these buffers (see the module docstring).
        The block kernel ANDs the masks of the whole pipeline before any
        survivor materializes."""
        return None

    @abstractmethod
    def columns(self) -> set[str]:
        """Column names this predicate reads."""

    @abstractmethod
    def to_dict(self) -> dict:
        ...

    @abstractmethod
    def to_sql(self) -> str:
        ...

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])


class _ColumnsRowGetter:
    """Reusable ``get(name)`` over column vectors at a settable row.

    One instance serves a whole block: kernels assign ``row`` and call,
    instead of allocating a closure per row.
    """

    __slots__ = ("columns", "row")

    def __init__(self, columns: Columns, row: int = 0):
        self.columns = columns
        self.row = row

    def __call__(self, name: str) -> Any:
        return self.columns[name][self.row]


class TruePredicate(Predicate):
    """Matches every row (the absent-WHERE-clause predicate)."""

    def evaluate(self, get: Getter) -> bool:
        return True

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        return np.ones(num_rows, dtype=bool)

    def columns(self) -> set[str]:
        return set()

    def to_dict(self) -> dict:
        return {"kind": "true"}

    def to_sql(self) -> str:
        return "TRUE"


class Comparison(Predicate):
    """``column <op> literal``."""

    def __init__(self, column: str, op: str, literal: Any):
        if op not in _OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.column = column
        self.op = op
        self.literal = literal

    def evaluate(self, get: Getter) -> bool:
        return _OPS[self.op](get(self.column), self.literal)

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        """Whole-column verdicts on a typed buffer; ``None`` when the
        literal cannot be compared in the buffer's domain (the row-wise
        loop then reproduces exact Python semantics)."""
        vector = columns[self.column]
        literal = self.literal
        if isinstance(vector, NumericVector):
            if not isinstance(literal, (int, float)):
                return None
            try:
                return _OPS[self.op](vector.data, literal)
            except (TypeError, OverflowError):
                return None
        if isinstance(vector, DictionaryVector):
            dictionary = vector.dictionary
            codes = vector.codes
            # Code-space comparison: translate the literal once. An
            # equality against a value absent from the dictionary can
            # match no row — the whole-block short-circuit.
            if self.op == "=":
                code = dictionary.code_of(literal)
                return (np.zeros(len(codes), dtype=bool) if code is None
                        else codes == code)
            if self.op == "!=":
                code = dictionary.code_of(literal)
                return (np.ones(len(codes), dtype=bool) if code is None
                        else codes != code)
            op = _OPS[self.op]
            verdict = dictionary.predicate_mask(
                ("cmp", self.op, literal),
                lambda entry: op(entry, literal))
            return verdict[codes]
        return None

    def columns(self) -> set[str]:
        return {self.column}

    def to_dict(self) -> dict:
        return {"kind": "cmp", "column": self.column, "op": self.op,
                "literal": self.literal}

    def to_sql(self) -> str:
        lit = (f"'{self.literal}'" if isinstance(self.literal, str)
               else str(self.literal))
        return f"{self.column} {self.op} {lit}"


class Between(Predicate):
    """``column BETWEEN lo AND hi`` (inclusive, SQL semantics)."""

    def __init__(self, column: str, low: Any, high: Any):
        self.column = column
        self.low = low
        self.high = high

    def evaluate(self, get: Getter) -> bool:
        value = get(self.column)
        return self.low <= value <= self.high

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        vector = columns[self.column]
        low, high = self.low, self.high
        if isinstance(vector, NumericVector):
            if not (isinstance(low, (int, float))
                    and isinstance(high, (int, float))):
                return None
            try:
                data = vector.data
                return (data >= low) & (data <= high)
            except (TypeError, OverflowError):
                return None
        if isinstance(vector, DictionaryVector):
            verdict = vector.dictionary.predicate_mask(
                ("between", low, high),
                lambda entry: low <= entry <= high)
            return verdict[vector.codes]
        return None

    def columns(self) -> set[str]:
        return {self.column}

    def to_dict(self) -> dict:
        return {"kind": "between", "column": self.column,
                "low": self.low, "high": self.high}

    def to_sql(self) -> str:
        def lit(x):
            return f"'{x}'" if isinstance(x, str) else str(x)
        return f"{self.column} BETWEEN {lit(self.low)} AND {lit(self.high)}"


class InList(Predicate):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Sequence[Any]):
        if not values:
            raise QueryError("IN list cannot be empty")
        self.column = column
        self.values = frozenset(values)
        self._ordered = list(values)
        # Non-numeric members can never equal a numeric value (frozenset
        # membership is equality-based), so a numeric buffer is probed
        # with the numeric members only — they would otherwise poison
        # the array compare.
        self._numeric = [v for v in self._ordered
                         if isinstance(v, (int, float))]

    def evaluate(self, get: Getter) -> bool:
        return get(self.column) in self.values

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        vector = columns[self.column]
        if isinstance(vector, NumericVector):
            if not self._numeric:
                return np.zeros(len(vector), dtype=bool)
            try:
                return np.isin(vector.data, self._numeric)
            except (TypeError, OverflowError):
                return None
        if isinstance(vector, DictionaryVector):
            members = self.values
            verdict = vector.dictionary.predicate_mask(
                ("in", members), lambda entry: entry in members)
            return verdict[vector.codes]
        return None

    def columns(self) -> set[str]:
        return {self.column}

    def to_dict(self) -> dict:
        return {"kind": "in", "column": self.column,
                "values": self._ordered}

    def to_sql(self) -> str:
        rendered = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v)
            for v in self._ordered)
        return f"{self.column} IN ({rendered})"


class And(Predicate):
    def __init__(self, parts: Sequence[Predicate]):
        if not parts:
            raise QueryError("AND needs at least one operand")
        self.parts = list(parts)

    def evaluate(self, get: Getter) -> bool:
        return all(p.evaluate(get) for p in self.parts)

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        mask = None
        for part in self.parts:
            part_mask = part.evaluate_mask(columns, num_rows)
            if part_mask is None:
                return None
            mask = part_mask if mask is None else mask & part_mask
        return mask

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def to_dict(self) -> dict:
        return {"kind": "and", "parts": [p.to_dict() for p in self.parts]}

    def to_sql(self) -> str:
        return " AND ".join(f"({p.to_sql()})" for p in self.parts)


class Or(Predicate):
    def __init__(self, parts: Sequence[Predicate]):
        if not parts:
            raise QueryError("OR needs at least one operand")
        self.parts = list(parts)

    def evaluate(self, get: Getter) -> bool:
        return any(p.evaluate(get) for p in self.parts)

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        mask = None
        for part in self.parts:
            part_mask = part.evaluate_mask(columns, num_rows)
            if part_mask is None:
                return None
            mask = part_mask if mask is None else mask | part_mask
        return mask

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def to_dict(self) -> dict:
        return {"kind": "or", "parts": [p.to_dict() for p in self.parts]}

    def to_sql(self) -> str:
        return " OR ".join(f"({p.to_sql()})" for p in self.parts)


class Not(Predicate):
    def __init__(self, inner: Predicate):
        self.inner = inner

    def evaluate(self, get: Getter) -> bool:
        return not self.inner.evaluate(get)

    def evaluate_mask(self, columns: Columns,
                      num_rows: int) -> np.ndarray | None:
        inner = self.inner.evaluate_mask(columns, num_rows)
        return None if inner is None else ~inner

    def columns(self) -> set[str]:
        return self.inner.columns()

    def to_dict(self) -> dict:
        return {"kind": "not", "inner": self.inner.to_dict()}

    def to_sql(self) -> str:
        return f"NOT ({self.inner.to_sql()})"


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    """Inverse of ``Predicate.to_dict``."""
    kind = data.get("kind")
    if kind == "true":
        return TruePredicate()
    if kind == "cmp":
        return Comparison(data["column"], data["op"], data["literal"])
    if kind == "between":
        return Between(data["column"], data["low"], data["high"])
    if kind == "in":
        return InList(data["column"], data["values"])
    if kind == "and":
        return And([predicate_from_dict(p) for p in data["parts"]])
    if kind == "or":
        return Or([predicate_from_dict(p) for p in data["parts"]])
    if kind == "not":
        return Not(predicate_from_dict(data["inner"]))
    raise QueryError(f"unknown predicate kind {kind!r}")


# --------------------------------------------------------------------- #
# Value expressions (aggregate inputs)
# --------------------------------------------------------------------- #

_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

#: Integer results whose magnitude stays below this are exact in int64,
#: with room for one more addition; past it a numpy kernel declines to
#: exact Python ints. The one int64-safety bound of the code base.
_INT64_SAFE = 2 ** 62


def int64_safe(magnitude: int) -> bool:
    """True when an integer result no larger than ``magnitude`` in
    absolute value is exact in int64 (see :data:`_INT64_SAFE`)."""
    return magnitude < _INT64_SAFE


def magnitude(values: Any) -> int:
    """The largest absolute value of an integer array or scalar, as a
    Python int (0 for an empty array) — the input of
    :func:`int64_safe`."""
    if isinstance(values, np.ndarray):
        if values.size == 0:
            return 0
        return max(int(values.max()), -int(values.min()))
    return abs(int(values))


def is_integral(value: Any) -> bool:
    """An integer numpy array or a plain Python int (bools excluded)."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return type(value) is int


class ValueExpr(ABC):
    """Scalar expression over one (fact) row."""

    @abstractmethod
    def evaluate(self, get: Getter) -> Any:
        ...

    def evaluate_vector(self, columns: Columns, selection: Sequence[int]):
        """Values at the selected positions as one numpy array (or one
        scalar, broadcast by the caller); ``None`` when the expression
        cannot run on these buffers — the caller then falls back to the
        per-row ``evaluate``. Used by the vectorized emit to gather
        measures for final survivors only."""
        return None

    @abstractmethod
    def columns(self) -> set[str]:
        ...

    @abstractmethod
    def to_dict(self) -> dict:
        ...

    @abstractmethod
    def to_sql(self) -> str:
        ...

    def __add__(self, other: "ValueExpr") -> "ValueExpr":
        return BinaryOp("+", self, other)

    def __sub__(self, other: "ValueExpr") -> "ValueExpr":
        return BinaryOp("-", self, other)

    def __mul__(self, other: "ValueExpr") -> "ValueExpr":
        return BinaryOp("*", self, other)


class Col(ValueExpr):
    """A column reference."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, get: Getter) -> Any:
        return get(self.name)

    def evaluate_vector(self, columns: Columns, selection: Sequence[int]):
        values = columns.get(self.name)
        if isinstance(values, NumericVector):
            return values.gather(selection)
        return None

    def columns(self) -> set[str]:
        return {self.name}

    def to_dict(self) -> dict:
        return {"kind": "col", "name": self.name}

    def to_sql(self) -> str:
        return self.name


class Lit(ValueExpr):
    """A literal constant."""

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, get: Getter) -> Any:
        return self.value

    def evaluate_vector(self, columns: Columns, selection: Sequence[int]):
        if isinstance(self.value, (int, float)):
            return self.value  # scalar; the caller broadcasts
        return None

    def columns(self) -> set[str]:
        return set()

    def to_dict(self) -> dict:
        return {"kind": "lit", "value": self.value}

    def to_sql(self) -> str:
        return (f"'{self.value}'" if isinstance(self.value, str)
                else str(self.value))


class BinaryOp(ValueExpr):
    """``left <op> right`` for + - * /."""

    def __init__(self, op: str, left: ValueExpr, right: ValueExpr):
        if op not in _ARITH:
            raise QueryError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, get: Getter) -> Any:
        return _ARITH[self.op](self.left.evaluate(get),
                               self.right.evaluate(get))

    def evaluate_vector(self, columns: Columns, selection: Sequence[int]):
        if self.op == "/":
            # Python raises ZeroDivisionError where numpy yields inf;
            # keep division on the exact scalar path.
            return None
        left = self.left.evaluate_vector(columns, selection)
        if left is None:
            return None
        right = self.right.evaluate_vector(columns, selection)
        if right is None:
            return None
        if is_integral(left) and is_integral(right):
            # Python ints never wrap; int64 does, silently. Decline to
            # the exact row path when the result could leave int64.
            bound = (magnitude(left) * magnitude(right) if self.op == "*"
                     else magnitude(left) + magnitude(right))
            if not int64_safe(bound):
                return None
        return _ARITH[self.op](left, right)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_dict(self) -> dict:
        return {"kind": "binop", "op": self.op,
                "left": self.left.to_dict(), "right": self.right.to_dict()}

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"


def value_from_dict(data: Mapping[str, Any]) -> ValueExpr:
    kind = data.get("kind")
    if kind == "col":
        return Col(data["name"])
    if kind == "lit":
        return Lit(data["value"])
    if kind == "binop":
        return BinaryOp(data["op"], value_from_dict(data["left"]),
                        value_from_dict(data["right"]))
    raise QueryError(f"unknown value expression kind {kind!r}")
