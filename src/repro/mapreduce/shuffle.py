"""Partitioning, map-side combining, and the shuffle/sort phase.

Hadoop's shuffle hash-partitions map output by key, sorts each partition,
and presents each reducer with (key, iterator-of-values) groups in key
order. Combiners run on each map task's output before it crosses the
network — the paper notes Clydesdale uses them for partial aggregation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import ValidationError


class Partitioner:
    """Maps a key to a reduce partition."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Hadoop's default: hash(key) mod partitions.

    Python's randomized string hashing would break run-to-run determinism,
    so string-bearing keys are hashed with a stable FNV-1a.
    """

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValidationError("num_partitions must be positive")
        return _stable_hash(key) % num_partitions


def _stable_hash(key: Any) -> int:
    if isinstance(key, tuple):
        value = 2166136261
        for item in key:
            value = (value ^ _stable_hash(item)) * 16777619 % (2**32)
        return value
    if isinstance(key, str):
        return _fnv1a(key)
    if isinstance(key, float):
        return hash(key) & 0x7FFFFFFF
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    return hash(key) & 0x7FFFFFFF


@lru_cache(maxsize=1 << 16)
def _fnv1a(text: str) -> int:
    """32-bit FNV-1a of ``text``'s UTF-8 bytes. Group keys repeat a few
    hundred strings across every task and query, so the byte loop runs
    once per distinct string; the bound keeps the memo small."""
    value = 2166136261
    for byte in text.encode("utf-8"):
        value = (value ^ byte) * 16777619 % (2**32)
    return value


def run_combiner(pairs: Sequence[tuple[Any, Any]],
                 combine: Callable[[Any, Iterable[Any]], list],
                 ) -> list[tuple[Any, Any]]:
    """Apply a combiner to one map task's output.

    ``combine(key, values)`` returns the list of (key, value) pairs to
    forward. Input order is not assumed sorted; we sort per Hadoop's
    spill-time combine.
    """
    out: list[tuple[Any, Any]] = []
    for key, group in groupby(sorted(pairs, key=itemgetter(0)),
                              key=itemgetter(0)):
        out.extend(combine(key, (value for _, value in group)))
    return out


def partition_output(pairs: Iterable[tuple[Any, Any]],
                     partitioner: Partitioner,
                     num_partitions: int) -> list[list[tuple[Any, Any]]]:
    """Split one task's output into per-reducer buckets."""
    buckets: list[list[tuple[Any, Any]]] = [[] for _ in
                                            range(num_partitions)]
    for key, value in pairs:
        buckets[partitioner.partition(key, num_partitions)].append(
            (key, value))
    return buckets


def merge_and_group(per_task_buckets: Sequence[Sequence[tuple[Any, Any]]],
                    ) -> list[tuple[Any, list[Any]]]:
    """Merge one partition's buckets from every map task, sort, group.

    Returns ``[(key, [values...]), ...]`` in ascending key order — the
    exact contract a Hadoop reducer sees.
    """
    merged: list[tuple[Any, Any]] = []
    for bucket in per_task_buckets:
        merged.extend(bucket)
    merged.sort(key=itemgetter(0))
    grouped: list[tuple[Any, list[Any]]] = []
    for key, group in groupby(merged, key=itemgetter(0)):
        grouped.append((key, [value for _, value in group]))
    return grouped
