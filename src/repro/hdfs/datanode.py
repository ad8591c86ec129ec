"""Datanodes: per-node replica storage plus node-local scratch space.

A datanode stores block replicas (HDFS data) and, separately, a *local
scratch* area modeling the node's local disks outside HDFS. Clydesdale
caches dimension tables on local storage (paper section 4), and Hadoop's
distributed cache materializes files locally once per node per job — both
use the scratch area.
"""

from __future__ import annotations

from repro.common.errors import BlockCorruptionError, HdfsError
from repro.hdfs.blocks import BlockId


class DataNode:
    """One worker node's storage."""

    def __init__(self, node_id: str, capacity_bytes: int | None = None):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.alive = True
        self._replicas: dict[BlockId, bytes] = {}
        self._scratch: dict[str, bytes] = {}

    # -- HDFS replica storage ------------------------------------------- #

    @property
    def used_bytes(self) -> int:
        return sum(len(data) for data in self._replicas.values())

    def store_replica(self, block_id: BlockId, data: bytes) -> None:
        if not self.alive:
            raise HdfsError(f"{self.node_id} is dead; cannot store replica")
        if (self.capacity_bytes is not None
                and self.used_bytes + len(data) > self.capacity_bytes):
            raise HdfsError(f"{self.node_id} is out of capacity")
        self._replicas[block_id] = data

    def read_replica(self, block_id: BlockId) -> bytes:
        if not self.alive:
            raise HdfsError(f"{self.node_id} is dead; cannot read replica")
        try:
            return self._replicas[block_id]
        except KeyError as exc:
            raise BlockCorruptionError(
                f"{self.node_id} holds no replica of {block_id}") from exc

    def has_replica(self, block_id: BlockId) -> bool:
        return self.alive and block_id in self._replicas

    def drop_replica(self, block_id: BlockId) -> None:
        self._replicas.pop(block_id, None)

    def fail(self) -> None:
        """Simulate the node dying: all replicas become unreachable."""
        self.alive = False

    def recover_empty(self) -> None:
        """Bring the node back with blank disks (post-replacement)."""
        self._replicas.clear()
        self._scratch.clear()
        self.alive = True

    # -- Node-local scratch (outside HDFS) ------------------------------- #

    def scratch_write(self, name: str, data: bytes) -> None:
        if not self.alive:
            raise HdfsError(f"{self.node_id} is dead; cannot write scratch")
        self._scratch[name] = data

    def scratch_read(self, name: str) -> bytes:
        if not self.alive:
            raise HdfsError(f"{self.node_id} is dead; cannot read scratch")
        try:
            return self._scratch[name]
        except KeyError as exc:
            raise HdfsError(
                f"{self.node_id} has no local file {name!r}") from exc

    def scratch_has(self, name: str) -> bool:
        return self.alive and name in self._scratch

    def scratch_names(self) -> list[str]:
        return sorted(self._scratch)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (f"DataNode({self.node_id}, {state}, "
                f"{len(self._replicas)} replicas)")
