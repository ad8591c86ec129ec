"""Job counters, Hadoop style: named integer counters in groups."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.common import keys


class Counters:
    """Hierarchical (group, name) -> int counters.

    >>> c = Counters()
    >>> c.increment("map", "records", 5)
    >>> c.get("map", "records")
    5
    """

    # Well-known counter groups used by the runtime, registered in
    # the repro.common.keys counter registry.
    GROUP_MAP = keys.COUNTER_GROUP_MAP
    GROUP_REDUCE = keys.COUNTER_GROUP_REDUCE
    GROUP_HDFS = keys.COUNTER_GROUP_HDFS
    GROUP_SHUFFLE = keys.COUNTER_GROUP_SHUFFLE
    GROUP_JOB = keys.COUNTER_GROUP_JOB

    def __init__(self) -> None:
        self._data: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        self._data[group][name] += amount

    def get(self, group: str, name: str) -> int:
        return self._data.get(group, {}).get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Add ``other``'s counts into this one.

        Goes through the public :meth:`items` iteration so subclasses
        (and counters backed by other stores) merge correctly instead of
        having their ``_data`` reached into.
        """
        for group, name, value in other.items():
            self.increment(group, name, value)

    def groups(self) -> list[str]:
        return sorted(self._data)

    def items(self) -> Iterator[tuple[str, str, int]]:
        for group in sorted(self._data):
            for name in sorted(self._data[group]):
                yield group, name, self._data[group][name]

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {g: dict(names) for g, names in self._data.items()}

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._data.values())
        return f"Counters({total} counters in {len(self._data)} groups)"
