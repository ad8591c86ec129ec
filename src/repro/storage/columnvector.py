"""Typed column buffers — the columnar memory model v2.

CIF readers historically decoded every column into a plain Python list,
paying a per-value boxing (and, for dictionary-encoded strings, a full
decode) tax before the kernels saw a single row. This module gives the
scan → probe → aggregate pipeline typed contiguous buffers instead:

* :class:`NumericVector` — a read-only numpy view over the column's
  packed little-endian bytes (zero-copy from the CIF file contents);
* :class:`DictionaryVector` — the on-disk code array (zero-copy) plus a
  shared :class:`StringDictionary`; predicates translate their literals
  into code space once and compare fixed-width codes, never strings.

Both are *sequence-compatible*: ``len()``, integer indexing, slicing,
and iteration behave exactly like the list they replace, and every
scalar that escapes a vector is a plain Python ``int``/``float``/``str``
(never a numpy scalar), so results stay byte-identical to list
execution. Slices are views — a :class:`~repro.storage.cif.RowBlock`
cut from a row group shares the group's buffers.

The handoff contract for kernels: batch access goes through ``data`` /
``codes`` / :meth:`ColumnVector.take`; per-row access through
``vector[i]``. Materializing a whole vector per row (``list(v)``,
``v.to_list()``) inside a kernel loop defeats the model and is flagged
by the hotpath lint (HOT004).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.errors import StorageError


def as_index_array(selection: Sequence[int]) -> np.ndarray:
    """A selection vector as an index array (no copy when already one)."""
    if isinstance(selection, np.ndarray):
        return selection
    if isinstance(selection, range):
        return np.arange(selection.start, selection.stop, selection.step,
                         dtype=np.intp)
    return np.asarray(selection, dtype=np.intp)


class ColumnVector:
    """Base of the typed column buffers (see the module docstring)."""

    __slots__ = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index):
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        raise NotImplementedError

    def take(self, selection: Sequence[int]) -> list:
        """Plain Python values at the selected positions (one gather)."""
        raise NotImplementedError

    def to_list(self) -> list:
        """The whole column as plain Python values (tests/debugging)."""
        raise NotImplementedError

    def __eq__(self, other):
        """Value equality with any sequence of the same Python values —
        a vector column *is* the list it replaces."""
        if isinstance(other, ColumnVector):
            other = other.to_list()
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    # Value-equal but mutable-adjacent (backed by shared buffers):
    # vectors are unhashable, like the lists they stand in for.
    __hash__ = None


class NumericVector(ColumnVector):
    """A fixed-width int/float column over a (read-only) numpy array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return NumericVector(self.data[index])
        return self.data[index].item()

    def __iter__(self) -> Iterator[Any]:
        return iter(self.data.tolist())

    def take(self, selection: Sequence[int]) -> list:
        return self.data[as_index_array(selection)].tolist()

    def gather(self, selection: Sequence[int]) -> np.ndarray:
        """Selected values as a numpy array (stays in the typed domain)."""
        return self.data[as_index_array(selection)]

    def to_list(self) -> list:
        return self.data.tolist()

    def __repr__(self) -> str:
        return (f"NumericVector({len(self)} x {self.data.dtype}, "
                f"zero-copy={not self.data.flags.writeable})")


class StringDictionary:
    """The distinct values of a dictionary-encoded column.

    Shared by every :class:`DictionaryVector` sliced from one row
    group, so per-dictionary work — the value→code map, memoized
    predicate verdict masks — is paid once per group, not per block.
    """

    __slots__ = ("entries", "_code_map", "_mask_cache")

    def __init__(self, entries: Sequence[str]):
        self.entries = list(entries)
        self._code_map: dict[str, int] | None = None
        # Semantic predicate key -> per-entry verdict mask. Keyed on
        # operator + literal content (never object identity) so equal
        # predicates share one mask.
        self._mask_cache: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def code_of(self, value: Any) -> int | None:
        """The code for ``value``, or None when absent (the equality
        short-circuit: no row of the column can equal it)."""
        code_map = self._code_map
        if code_map is None:
            code_map = {entry: code
                        for code, entry in enumerate(self.entries)}
            self._code_map = code_map
        return code_map.get(value)

    def predicate_mask(self, key: tuple, verdict) -> np.ndarray:
        """Per-entry boolean verdicts for a predicate, memoized by its
        semantic ``key``; ``verdict(entry)`` is called once per distinct
        value — the code-space predicate compilation step."""
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = np.fromiter((bool(verdict(entry))
                                for entry in self.entries),
                               dtype=bool, count=len(self.entries))
            self._mask_cache[key] = mask
        return mask


class DictionaryVector(ColumnVector):
    """A dictionary-encoded string column kept in code space.

    ``codes`` is the on-disk fixed-width code array (u1/u2/u4, zero-copy
    from the column file); ``dictionary`` maps codes back to strings
    only when a scalar actually escapes the vector.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: StringDictionary):
        self.codes = np.asarray(codes)
        self.dictionary = dictionary

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DictionaryVector(self.codes[index], self.dictionary)
        return self.dictionary.entries[self.codes[index]]

    def __iter__(self) -> Iterator[str]:
        entries = self.dictionary.entries
        return iter([entries[code] for code in self.codes.tolist()])

    def take(self, selection: Sequence[int]) -> list:
        entries = self.dictionary.entries
        codes = self.codes[as_index_array(selection)]
        return [entries[code] for code in codes.tolist()]

    def to_list(self) -> list:
        entries = self.dictionary.entries
        return [entries[code] for code in self.codes.tolist()]

    def __repr__(self) -> str:
        return (f"DictionaryVector({len(self)} codes x "
                f"{self.codes.dtype}, {len(self.dictionary)} entries)")


def gather_values(column: Sequence[Any], selection: Sequence[int]) -> list:
    """Plain Python values at selected positions of a column of either
    representation (typed vector or plain list)."""
    if isinstance(column, ColumnVector):
        return column.take(selection)
    return [column[i] for i in selection]


def ensure_vector(column: Sequence[Any], dtype_kind: str) -> ColumnVector:
    """Wrap a plain list as a typed vector (test/bench helper).

    ``dtype_kind`` is a numpy dtype string for numerics (``"<i8"`` …)
    or ``"dict"`` to dictionary-encode a string column in memory.
    """
    if isinstance(column, ColumnVector):
        return column
    if dtype_kind == "dict":
        entries: list[str] = []
        codes: dict[str, int] = {}
        out = np.empty(len(column), dtype=np.uint32)
        for position, value in enumerate(column):
            code = codes.get(value)
            if code is None:
                code = codes[value] = len(entries)
                entries.append(value)
            out[position] = code
        return DictionaryVector(out, StringDictionary(entries))
    try:
        data = np.asarray(column, dtype=np.dtype(dtype_kind))
    except (ValueError, TypeError, OverflowError) as exc:
        raise StorageError(
            f"cannot build a {dtype_kind} vector: {exc}") from exc
    return NumericVector(data)
