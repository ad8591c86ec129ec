"""Column data types used by schemas and the storage formats.

The type system is intentionally small — the star schema benchmark only
needs integers, floats, and strings — but every type carries enough
metadata (fixed width, serializer pairing, comparison semantics) to drive
the binary storage formats and the cost model's bytes-per-value estimates.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.common.errors import SchemaError


class DataType(enum.Enum):
    """Supported column types.

    ``INT32``/``INT64`` are fixed width, ``FLOAT64`` is an 8-byte double,
    ``STRING`` is variable width (length-prefixed in binary formats).
    """

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"

    @property
    def fixed_width(self) -> int | None:
        """Bytes per value for fixed-width types, ``None`` for STRING."""
        return _FIXED_WIDTHS[self]

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type's canonical Python representation.

        Raises :class:`SchemaError` when the value cannot represent the type
        (e.g. a non-numeric string for INT32).
        """
        if value is None:
            raise SchemaError(f"NULL not supported for type {self.value}")
        try:
            if self in (DataType.INT32, DataType.INT64):
                coerced = int(value)
            elif self is DataType.FLOAT64:
                coerced = float(value)
            else:
                coerced = value if isinstance(value, str) else str(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot coerce {value!r} to {self.value}") from exc
        if self is DataType.INT32 and not -(2**31) <= coerced < 2**31:
            raise SchemaError(f"{coerced} out of range for int32")
        return coerced

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` already has the canonical type."""
        if self in (DataType.INT32, DataType.INT64):
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT64:
            return isinstance(value, float)
        return isinstance(value, str)

    def estimate_width(self, sample: Any = None) -> int:
        """Estimated on-disk bytes per value (used by the cost model)."""
        if self.fixed_width is not None:
            return self.fixed_width
        if isinstance(sample, str):
            return 4 + len(sample.encode("utf-8"))
        return 16  # default assumption for strings with no sample


_FIXED_WIDTHS = {
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.STRING: None,
}

def type_from_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its lowercase name.

    >>> type_from_name("int32") is DataType.INT32
    True
    """
    try:
        return DataType(name.lower())
    except ValueError as exc:
        raise SchemaError(f"unknown data type {name!r}") from exc
