"""Hardware models for the simulated clusters.

The paper evaluates on two physical clusters:

* **Cluster A** — 9 nodes (8 workers + 1 master): 2x quad-core AMD Opteron
  (8 cores), 16 GB RAM, 8x 250 GB SATA disks, 1 Gbit ethernet.
* **Cluster B** — 42 nodes (40 workers + 2 masters): 2x quad-core Intel
  Xeon (8 cores), 32 GB RAM, 5x 500 GB SATA disks, 1 Gbit ethernet.

Both run 6 map slots and 1 reduce slot per node. The paper measures each
disk supplying 70-100 MB/s; we use the paper's own conservative 70 MB/s
per disk, which yields its quoted 560 MB/s (A) and 280 MB/s (B, four data
disks) aggregate raw read bandwidth per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import GB, MB


@dataclass(frozen=True)
class DiskSpec:
    """A node's disk subsystem."""

    count: int
    bandwidth_mb_s: float = 70.0
    capacity_gb: int = 250
    #: Disks usable for HDFS data (the OS disk may be excluded).
    data_disks: int | None = None

    @property
    def usable_disks(self) -> int:
        return self.data_disks if self.data_disks is not None else self.count

    @property
    def raw_read_bandwidth(self) -> float:
        """Aggregate raw sequential read bandwidth in bytes/s."""
        return self.usable_disks * self.bandwidth_mb_s * MB


@dataclass(frozen=True)
class NodeSpec:
    """A worker node: cores, memory, disks, and configured task slots."""

    cores: int = 8
    memory_bytes: int = 16 * GB
    disks: DiskSpec = field(default_factory=lambda: DiskSpec(count=8))
    map_slots: int = 6
    reduce_slots: int = 1

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / GB

    @property
    def total_slots(self) -> int:
        return self.map_slots + self.reduce_slots

    @property
    def memory_per_slot(self) -> float:
        """Bytes of memory available to each task slot's JVM."""
        return self.memory_bytes / self.total_slots


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of worker nodes plus dedicated masters."""

    name: str
    workers: int
    node: NodeSpec
    masters: int = 1
    network_bandwidth_mb_s: float = 110.0  # effective 1 GbE payload rate
    #: Fraction of node memory realistically available to task heaps
    #: (the rest goes to the OS, the datanode, and the tasktracker).
    heap_fraction: float = 0.85
    #: Single-thread CPU speed relative to cluster A's Opterons. The
    #: paper's Q2.1 hash build takes 27 s on A but 16 s per task on B
    #: (section 6.4), implying B's Xeons are ~1.7x faster per thread.
    cpu_speed: float = 1.0

    @property
    def total_map_slots(self) -> int:
        return self.workers * self.node.map_slots

    @property
    def total_reduce_slots(self) -> int:
        return self.workers * self.node.reduce_slots

    @property
    def heap_budget_per_node(self) -> float:
        """Bytes of memory available across all task heaps on one node."""
        return self.node.memory_bytes * self.heap_fraction

    @property
    def network_bandwidth(self) -> float:
        """Per-node effective network bandwidth in bytes/s."""
        return self.network_bandwidth_mb_s * MB

    def describe(self) -> str:
        node = self.node
        return (f"{self.name}: {self.workers} workers + {self.masters} "
                f"master(s); {node.cores} cores, {node.memory_gb:.0f} GB, "
                f"{node.disks.count}x{node.disks.capacity_gb} GB disks, "
                f"{node.map_slots} map + {node.reduce_slots} reduce slots "
                f"per node")


def cluster_a() -> ClusterSpec:
    """The paper's 9-node cluster A (memory constrained: 2 GB/core)."""
    return ClusterSpec(
        name="cluster-A",
        workers=8,
        masters=1,
        node=NodeSpec(
            cores=8,
            memory_bytes=16 * GB,
            disks=DiskSpec(count=8, bandwidth_mb_s=70.0, capacity_gb=250),
            map_slots=6,
            reduce_slots=1,
        ),
    )


def cluster_b() -> ClusterSpec:
    """The paper's 42-node cluster B (4 GB/core, fewer disks per node)."""
    return ClusterSpec(
        name="cluster-B",
        workers=40,
        masters=2,
        cpu_speed=1.7,
        node=NodeSpec(
            cores=8,
            memory_bytes=32 * GB,
            disks=DiskSpec(count=5, bandwidth_mb_s=70.0, capacity_gb=500,
                           data_disks=4),
            map_slots=6,
            reduce_slots=1,
        ),
    )


def tiny_cluster(workers: int = 4, map_slots: int = 2,
                 memory_gb: int = 4) -> ClusterSpec:
    """A small cluster used by the functional engine in tests/examples."""
    return ClusterSpec(
        name=f"tiny-{workers}",
        workers=workers,
        masters=1,
        node=NodeSpec(
            cores=max(2, map_slots),
            memory_bytes=memory_gb * GB,
            disks=DiskSpec(count=2, bandwidth_mb_s=100.0, capacity_gb=100),
            map_slots=map_slots,
            reduce_slots=1,
        ),
    )
