"""Prepared jobs: a warm query pays for its kernel, not its set-up.

Paper section 5's JVM reuse lets consecutive map tasks keep what they
set up. A caching session already keeps the built hash tables across
queries (:class:`~repro.serve.cache.HashTableCache`); a
:class:`PreparedJob` keeps the rest of a single-pass star join's set-up,
once per (canonical query, features, generation):

* the planned ``JobConf`` — the template every run copies, so
  :func:`~repro.core.planner.plan_join_passes` runs once;
* the splits, so ``get_splits`` runs once;
* each split's decoded column buffers (``CIFSplit.decoded``: zero-copy
  views of the MiniDFS bytes);
* the mapper's per-job plans (the job's ``_JobTables``: table keys, the
  group-key plan, the aggregate functions).

Nothing kept is trusted. Every run re-reads the fact table's metadata
and re-derives the splits — without re-planning — unless the read
returned the very bytes object the splits were derived from (an
identity test: a roll-in, a roll-out or a direct ``append_fact_rows``
rewrites the file) and every row group is still anchored on the same
hosts (a failed node or a re-replication moves them). Readers still
read every column file through MiniDFS, so a dead node or a lost
replica fails the attempt and every byte is charged as read; a decoded
buffer is reused only for the bytes object it was decoded from.

Each run gets its own copy of the template (for its tracer, hash-table
cache and scheduler), its own output collector and build memo, and its
own readers and mappers. Several sessions may run one prepared job at
once: the splits are swapped as one immutable pair, and concurrent
decodes of one file store equivalent entries.
"""

from __future__ import annotations

from repro.core.joinjob import job_tables
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.types import InputSplit
from repro.storage.cif import anchor_hosts
from repro.storage.tablemeta import META_FILE

#: Why a run's plan or splits were not all prepared ones (the ``plan``
#: span's ``reason``).
NO_CACHE = "no cache"
MULTI_PASS = "multi-pass"
FIRST_RUN = "first run"
META_CHANGED = "meta changed"
PLACEMENT_CHANGED = "placement changed"


class PreparedJob:
    """One planned single-pass star-join job, kept for its next runs."""

    __slots__ = ("template", "_meta_path", "_scan")

    def __init__(self, template: JobConf) -> None:
        job_tables(template)
        self.template = template
        (directory,) = template.input_paths()
        self._meta_path = f"{directory.rstrip('/')}/{META_FILE}"
        #: (metadata bytes, splits derived from them, their row groups).
        self._scan: tuple[bytes, list[InputSplit], list] | None = None

    def run_conf(self) -> tuple[JobConf, CollectingOutputFormat]:
        """A conf for one more run, and the collector of its answer."""
        conf = self.template.copy()
        conf.output_format = output = CollectingOutputFormat()
        conf.job_builds = {}
        return conf, output

    def splits(self, fs: MiniDFS) -> tuple[list[InputSplit], str | None]:
        """This run's splits, and why they had to be derived again
        (None: the kept ones still describe the table)."""
        path = self._meta_path
        raw = fs.read_file(path) if fs.exists(path) else None
        scan = self._scan
        if scan is None:
            reason = FIRST_RUN
        elif scan[0] is not raw:
            reason = META_CHANGED
        elif any(anchor_hosts(fs, s.directory, s.group, s.columns)
                 != s.locations() for s in scan[2]):
            reason = PLACEMENT_CHANGED
        else:
            return scan[1], None
        splits = self.template.input_format.get_splits(fs, self.template)
        groups = [child for split in splits
                  for child in getattr(split, "splits", (split,))]
        self._scan = (raw, splits, groups)
        return splits, reason

    @property
    def nbytes(self) -> int:
        """What the kept buffers pin: the projected bytes of every row
        group the splits cover."""
        scan = self._scan
        return sum(group.length for group in scan[2]) if scan else 0
