"""Job configuration, in the spirit of Hadoop's ``JobConf``.

A :class:`JobConf` is a :class:`~repro.common.config.Configuration` (all
scalar parameters travel as strings, exactly as in the paper's Figure 4
``main``) plus direct references to the Python classes that implement the
job's pluggable pieces — input/output format, mapper, reducer, combiner,
``MapRunner`` and partitioner.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from typing import Any

from repro.common.config import Configuration
from repro.common.errors import ConfigError

# Well-known configuration keys (kept Hadoop-flavored on purpose),
# re-exported from the central registry in repro.common.keys.
from repro.common.keys import (
    KEY_INPUT_PATHS,
    KEY_JOB_NAME,
    KEY_JVM_REUSE,
    KEY_NUM_REDUCES,
    KEY_OUTPUT_PATH,
    KEY_TASK_MEMORY,
)


class JobConf(Configuration):
    """Everything needed to launch one MapReduce job."""

    def __init__(self, name: str = "job"):
        super().__init__()
        self.set(KEY_JOB_NAME, name)
        self.input_format: Any = None      # InputFormat instance
        self.output_format: Any = None     # OutputFormat instance (optional)
        self.mapper_class: Any = None      # Mapper subclass
        self.reducer_class: Any = None     # Reducer subclass or None
        self.combiner_class: Any = None    # Reducer subclass or None
        self.map_runner_class: Any = None  # MapRunner subclass or None
        self.partitioner: Any = None       # Partitioner instance or None
        self.scheduler: Any = None         # TaskScheduler instance or None
        self.distcache_files: list[str] = []
        #: The input splits when whoever runs the job already holds
        #: them (a prepared job); None asks the input format.
        self.splits: list | None = None

    def copy(self) -> "JobConf":
        """Another run of this job: its own values and cache-file list;
        the pluggable pieces and every other attached object (the
        parsed query and its plans among them) are shared."""
        clone = shallow_copy(self)
        clone._data = dict(self._data)
        clone.distcache_files = list(self.distcache_files)
        return clone

    # -- fluent setters -------------------------------------------------- #

    @property
    def name(self) -> str:
        return self.get(KEY_JOB_NAME, "job") or "job"

    def set_input_paths(self, paths: list[str] | str) -> "JobConf":
        if isinstance(paths, str):
            paths = [paths]
        self.set(KEY_INPUT_PATHS, ",".join(paths))
        return self

    def input_paths(self) -> list[str]:
        raw = self.get(KEY_INPUT_PATHS, "")
        if not raw:
            raise ConfigError("job has no input paths configured")
        return raw.split(",")

    def set_output_path(self, path: str) -> "JobConf":
        self.set(KEY_OUTPUT_PATH, path)
        return self

    def output_path(self) -> str | None:
        return self.get(KEY_OUTPUT_PATH)

    def set_num_reduce_tasks(self, count: int) -> "JobConf":
        if count < 0:
            raise ConfigError("reduce task count cannot be negative")
        self.set(KEY_NUM_REDUCES, count)
        return self

    def num_reduce_tasks(self) -> int:
        return self.get_int(KEY_NUM_REDUCES, 1)

    def enable_jvm_reuse(self, enabled: bool = True) -> "JobConf":
        """Let consecutive map tasks on a node share one JVM (section 3)."""
        self.set(KEY_JVM_REUSE, -1 if enabled else 1)
        return self

    def jvm_reuse_enabled(self) -> bool:
        return self.get_int(KEY_JVM_REUSE, 1) != 1

    def set_task_memory_mb(self, mem_mb: int) -> "JobConf":
        """Declare per-map-task memory needs.

        Clydesdale marks its join tasks as requiring (nearly) a whole
        node's memory so the capacity scheduler runs only one per node
        (paper section 5.2).
        """
        self.set(KEY_TASK_MEMORY, mem_mb)
        return self

    def task_memory_mb(self) -> int | None:
        raw = self.get(KEY_TASK_MEMORY)
        return int(raw) if raw is not None else None

    def add_cache_file(self, path: str) -> "JobConf":
        """Register an HDFS file for distributed-cache broadcast."""
        self.distcache_files.append(path)
        return self

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an unlaunchable job."""
        if self.input_format is None:
            raise ConfigError(f"job {self.name!r} has no input format")
        if self.mapper_class is None and self.map_runner_class is None:
            raise ConfigError(f"job {self.name!r} has no mapper or runner")
        if self.num_reduce_tasks() > 0 and self.reducer_class is None:
            raise ConfigError(
                f"job {self.name!r} requests reducers but has no reducer "
                f"class; set_num_reduce_tasks(0) for a map-only job")
