"""Central registry of configuration keys, counters, and feature flags.

Every tuning knob in the reproduction travels through a Hadoop-style
string configuration (:class:`repro.common.config.Configuration`) and
every runtime statistic through string-named
:class:`~repro.mapreduce.counters.Counters` — which means a typo in any
literal silently turns a knob or a counter into a no-op.  This module is
the single source of truth the rest of the code imports its key strings
from, and the machine-readable registry ``repro.analyze``'s string-key
lint checks call sites against:

* :data:`CONFIG_KEYS` — every configuration key, with its value kind,
  default, and one-line doc; entries with ``flag=True`` are boolean
  feature flags and must additionally be documented in ``DESIGN.md``
  (enforced by the feature-flag lint).
* :data:`COUNTER_GROUPS` — the valid counter group names.
* :data:`COUNTERS` / :data:`COUNTER_PREFIXES` — the valid
  ``(group, name)`` pairs; prefixes cover counters whose names embed a
  runtime value (``ht_entries:<dimension>``).

The module deliberately imports nothing from the rest of ``repro`` so
any layer — including ``repro.common`` itself — can depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ConfigKey:
    """One registered configuration key."""

    name: str
    kind: str            # "str" | "int" | "float" | "bool" | "json"
    default: Any         # None when call sites must supply one / require()
    doc: str
    flag: bool = False   # boolean feature flag (must appear in DESIGN.md)


#: name -> ConfigKey for every key the code base may read or write.
CONFIG_KEYS: dict[str, ConfigKey] = {}

#: group name -> one-line description.
COUNTER_GROUPS: dict[str, str] = {}

#: every valid literal (group, counter-name) pair.
COUNTERS: set[tuple[str, str]] = set()

#: (group, prefix) pairs for counters with runtime-formatted suffixes.
COUNTER_PREFIXES: set[tuple[str, str]] = set()


def _config(name: str, kind: str = "str", default: Any = None,
            doc: str = "", flag: bool = False) -> str:
    CONFIG_KEYS[name] = ConfigKey(name=name, kind=kind, default=default,
                                  doc=doc, flag=flag)
    return name


def _flag(name: str, default: bool, doc: str) -> str:
    return _config(name, kind="bool", default=default, doc=doc, flag=True)


def _group(name: str, doc: str = "") -> str:
    COUNTER_GROUPS[name] = doc
    return name


def _counter(group: str, name: str) -> str:
    COUNTERS.add((group, name))
    return name


def _counter_prefix(group: str, prefix: str) -> str:
    COUNTER_PREFIXES.add((group, prefix))
    return prefix


# --------------------------------------------------------------------- #
# Configuration keys (kept Hadoop-flavored on purpose).
# --------------------------------------------------------------------- #

# -- generic MapReduce job keys --------------------------------------- #
KEY_JOB_NAME = _config(
    "mapred.job.name", doc="Human-readable job name.", default="job")
KEY_INPUT_PATHS = _config(
    "mapred.input.dir", doc="Comma-separated HDFS input directories.")
KEY_OUTPUT_PATH = _config(
    "mapred.output.dir", doc="HDFS output directory.")
KEY_NUM_REDUCES = _config(
    "mapred.reduce.tasks", kind="int", default=1,
    doc="Number of reduce tasks (0 = map-only job).")
KEY_JVM_REUSE = _config(
    "mapred.job.reuse.jvm.num.tasks", kind="int", default=1,
    doc="Tasks per JVM; -1 reuses one JVM for the whole job (section 3).")
KEY_TASK_MEMORY = _config(
    "mapred.job.map.memory.mb", kind="int",
    doc="Per-map-task memory request used by the capacity scheduler.")
KEY_SPLIT_SIZE = _config(
    "mapred.max.split.size", kind="int",
    doc="Upper bound on input split length in bytes.")
KEY_MAP_MAX_ATTEMPTS = _config(
    "mapred.map.max.attempts", kind="int", default=4,
    doc="Attempts per map task before the job fails (task retry).")

# -- scheduler keys ---------------------------------------------------- #
KEY_GRANTED_THREADS = _config(
    "scheduler.granted.threads", kind="int", default=0,
    doc="Fair-share CPU grant: max threads a task may use (paper 5.2).")
KEY_SLOT_SHARE = _config(
    "scheduler.slot.share", kind="float", default=1.0,
    doc="Fraction of the cluster's map slots granted to this job.")

# -- storage-format keys ----------------------------------------------- #
KEY_RCFILE_COLUMNS = _config(
    "rcfile.columns", kind="json",
    doc="Column projection pushed into the RCFile reader.")
KEY_CIF_COLUMNS = _config(
    "cif.columns", kind="json",
    doc="Column projection pushed into the CIF reader.")
KEY_BLOCK_ITERATION = _flag(
    "cif.block.iteration", default=False,
    doc="B-CIF: readers return each row group as one RowBlock of "
        "column buffers instead of one Record per row.")
KEY_SPLITS_PER_MULTI = _config(
    "multicif.splits.per.multisplit", kind="int",
    doc="Constituent splits packed into one MultiCIF multi-split.")

# -- Clydesdale star-join keys ----------------------------------------- #
KEY_QUERY = _config(
    "clydesdale.query", kind="json",
    doc="Serialized StarQuery (the paper's queryParams, Figure 4).")
KEY_FACT_SCHEMA = _config(
    "clydesdale.fact.schema", kind="json",
    doc="Serialized fact-table schema.")
KEY_DIM_SCHEMAS = _config(
    "clydesdale.dim.schemas", kind="json",
    doc="Serialized dimension-table schemas, keyed by table name.")
KEY_PROBE_RATE = _config(
    "clydesdale.rate.probe.rows.per.s.per.thread", kind="float",
    default=762_000.0,
    doc="Calibrated probe throughput per join thread (cost model).")
KEY_BUILD_RATE = _config(
    "clydesdale.rate.build.rows.per.s", kind="float", default=160_000.0,
    doc="Calibrated hash-table build throughput (cost model).")
KEY_HT_BYTES_PER_ENTRY = _config(
    "clydesdale.ht.bytes.per.entry", kind="float", default=64.0,
    doc="Per-entry hash-table footprint for the memory model.")
KEY_PASS_OUTPUT_SCHEMA = _config(
    "clydesdale.pass.output.schema", kind="json",
    doc="Intermediate schema between multipass join passes.")
KEY_SANITIZER = _flag(
    "clydesdale.sanitizer", default=False,
    doc="Runtime shared-state sanitizer: freezes published dimension "
        "hash tables and enforces merge-at-close for thread tallies.")
KEY_TRACE = _flag(
    "clydesdale.trace", default=False,
    doc="Hierarchical span tracing (repro.trace): job/task/thread/phase "
        "span tree with JSON, chrome://tracing, and flame exporters. "
        "Off = the no-op tracer; trace points cost nothing.")

# -- serving-layer keys (repro.serve) ----------------------------------- #
KEY_CACHE_ENABLED = _flag(
    "clydesdale.cache.enabled", default=True,
    doc="Session-level cross-query dimension hash-table cache (the "
        "per-query analog of the paper's JVM reuse). Off = every "
        "execute() rebuilds its hash tables from the local dim cache.")
KEY_CACHE_HT_BYTES = _config(
    "clydesdale.cache.ht_bytes", kind="int", default=128 * 1024 * 1024,
    doc="Per-node memory budget for cached dimension hash tables; "
        "least-recently-used tables are evicted past the budget.")
KEY_SERVE_MAX_CONCURRENT = _config(
    "clydesdale.serve.max.concurrent", kind="int", default=4,
    doc="Queries each frontend worker runs concurrently (worker slots).")
KEY_SERVE_QUEUE_DEPTH = _config(
    "clydesdale.serve.queue.depth", kind="int", default=8,
    doc="Admitted-but-waiting queries a server holds before rejecting "
        "submissions with AdmissionError.")
KEY_SERVE_SESSION_QUOTA = _config(
    "clydesdale.serve.session.quota", kind="int", default=2,
    doc="In-flight queries one server session may hold; submissions "
        "past the quota are rejected with AdmissionError.")
KEY_SERVE_WORKERS = _config(
    "clydesdale.serve.workers.count", kind="int", default=2,
    doc="Worker processes behind the scale-out serving frontend; each "
        "owns its own engine and hash-table cache shard.")
KEY_SERVE_WORKER_RETRIES = _config(
    "clydesdale.serve.workers.retries", kind="int", default=1,
    doc="Times the frontend re-routes a query to a healthy worker "
        "after the routed worker dies mid-query.")
KEY_SERVE_WORKER_RESPAWN = _flag(
    "clydesdale.serve.workers.respawn", default=True,
    doc="Respawn a dead worker process with the frontend's current "
        "catalog and cache generation; off = the pool just shrinks.")
KEY_SERVE_RESULT_CACHE = _flag(
    "clydesdale.serve.result_cache.enabled", default=True,
    doc="Frontend-level result cache: byte-identical repeat queries "
        "are answered without reaching a worker. Entries are "
        "generation-stamped and die on reload_catalog.")
KEY_SERVE_RESULT_CACHE_BYTES = _config(
    "clydesdale.serve.result_cache.bytes", kind="int",
    default=32 * 1024 * 1024,
    doc="Byte budget for the frontend result cache; least-recently-"
        "used results are evicted past the budget.")
KEY_SERVE_AGGSTORE = _flag(
    "clydesdale.serve.aggstore.enabled", default=True,
    doc="Materialized aggregate store: repeat and subsumed (strictly "
        "coarser group-by) queries are answered by in-memory rollup "
        "instead of a fact-table scan. Rides the hash-table cache's "
        "enablement and generation stamps; off = every execute scans.")
KEY_SERVE_AGGSTORE_BYTES = _config(
    "clydesdale.serve.aggstore.bytes", kind="int",
    default=64 * 1024 * 1024,
    doc="Byte budget for the materialized aggregate store; entries "
        "with the lowest reuse benefit are evicted past the budget.")

# -- Hive baseline keys ------------------------------------------------ #
KEY_HIVE_FACT_SIDE_FK = _config(
    "hive.repartition.fact.fk", doc="Repartition join: fact-side FK.")
KEY_HIVE_DIM_PK = _config(
    "hive.repartition.dim.pk", doc="Repartition join: dimension PK.")
KEY_HIVE_DIM_TABLE_DIR = _config(
    "hive.repartition.dim.dir",
    doc="Repartition join: dimension table directory.")
KEY_HIVE_DIM_SCHEMA = _config(
    "hive.repartition.dim.schema", kind="json",
    doc="Repartition join: serialized dimension schema.")
KEY_HIVE_DIM_PREDICATE = _config(
    "hive.repartition.dim.predicate", kind="json",
    doc="Repartition join: serialized dimension predicate.")
KEY_HIVE_DIM_AUX = _config(
    "hive.repartition.dim.aux", kind="json",
    doc="Repartition join: auxiliary columns kept from the dimension.")
KEY_HIVE_FACT_PREDICATE = _config(
    "hive.repartition.fact.predicate", kind="json",
    doc="Repartition join: serialized fact predicate.")
KEY_HIVE_INPUT_SCHEMA = _config(
    "hive.repartition.input.schema", kind="json",
    doc="Repartition join: serialized input schema.")
KEY_HIVE_ROWS_RATE = _config(
    "hive.rate.rows.per.s.per.slot", kind="float",
    doc="Calibrated Hive per-slot row throughput (cost model).")
KEY_HIVE_STAGE_FK = _config(
    "hive.mapjoin.fact.fk", doc="Mapjoin stage: fact-side FK.")
KEY_HIVE_CACHE_FILE = _config(
    "hive.mapjoin.cache.file",
    doc="Mapjoin stage: distributed-cache file with the hash table.")
KEY_HIVE_STAGE_INPUT_SCHEMA = _config(
    "hive.stage.input.schema", kind="json",
    doc="Hive stage: serialized input schema.")
KEY_HIVE_STAGE_OUTPUT_SCHEMA = _config(
    "hive.stage.output.schema", kind="json",
    doc="Hive stage: serialized output schema.")
KEY_HIVE_STAGE_FACT_PREDICATE = _config(
    "hive.stage.fact.predicate", kind="json",
    doc="Hive stage: serialized fact predicate.")
KEY_HIVE_RELOAD_RATE = _config(
    "hive.rate.hash.reload.bytes.per.s", kind="float",
    doc="Calibrated distributed-cache hash reload bandwidth.")
KEY_HIVE_HT_BYTES_PER_ENTRY = _config(
    "hive.ht.bytes.per.entry", kind="float",
    doc="Hive mapjoin per-entry hash-table footprint.")
KEY_HIVE_CACHE_KNEE = _config(
    "hive.cache.knee.bytes", kind="float",
    doc="Hash size past which mapjoin reload falls off the page cache.")
KEY_HIVE_GROUPBY_FACT_PREDICATE = _config(
    "hive.groupby.fact.predicate", kind="json",
    doc="Hive group-by stage: serialized fact predicate.")

# --------------------------------------------------------------------- #
# Counter groups and counters.
# --------------------------------------------------------------------- #

COUNTER_GROUP_MAP = _group("map", "Map-phase framework counters.")
COUNTER_GROUP_REDUCE = _group("reduce", "Reduce-phase framework counters.")
COUNTER_GROUP_HDFS = _group("hdfs", "Mini-HDFS I/O counters.")
COUNTER_GROUP_SHUFFLE = _group("shuffle", "Shuffle transfer counters.")
COUNTER_GROUP_JOB = _group("job", "Whole-job structural counters.")
COUNTER_GROUP_CLYDESDALE = _group(
    "clydesdale", "Star-join engine counters (Figure 4/5 pipeline).")
COUNTER_GROUP_HIVE = _group("hive", "Hive-baseline stage counters.")

CTR_MAP_TASKS = _counter(COUNTER_GROUP_JOB, "map_tasks")
CTR_TASK_RETRIES = _counter(COUNTER_GROUP_MAP, "task_retries")
CTR_COMBINED_RECORDS = _counter(COUNTER_GROUP_MAP, "combined_records")
CTR_OUTPUT_RECORDS = _counter(COUNTER_GROUP_MAP, "output_records")
CTR_RACK_REMOTE_TASKS = _counter(COUNTER_GROUP_MAP, "rack_remote_tasks")
CTR_HDFS_BYTES_READ = _counter(COUNTER_GROUP_HDFS, "bytes_read")
CTR_SHUFFLE_RECORDS = _counter(COUNTER_GROUP_SHUFFLE, "records")
CTR_SHUFFLE_BYTES = _counter(COUNTER_GROUP_SHUFFLE, "bytes")
CTR_REDUCE_INPUT_RECORDS = _counter(COUNTER_GROUP_REDUCE, "input_records")
CTR_REDUCE_OUTPUT_RECORDS = _counter(COUNTER_GROUP_REDUCE,
                                     "output_records")
CTR_TRACE_SPANS = _counter(COUNTER_GROUP_JOB, "trace_spans")

CTR_ROWS_PROBED = _counter(COUNTER_GROUP_CLYDESDALE, "rows_probed")
CTR_ROWS_MATCHED = _counter(COUNTER_GROUP_CLYDESDALE, "rows_matched")
CTR_ROWS_SCALAR_PROBED = _counter(COUNTER_GROUP_CLYDESDALE,
                                  "rows_scalar_probed")
CTR_DIM_ROWS_ROWWISE = _counter(COUNTER_GROUP_CLYDESDALE,
                                "dim_rows_rowwise")
CTR_ROWS_EMITTED_ROWWISE = _counter(COUNTER_GROUP_CLYDESDALE,
                                    "rows_emitted_rowwise")
CTR_HT_BUILDS = _counter(COUNTER_GROUP_CLYDESDALE, "ht_builds")
CTR_HT_BUILDS_REUSED = _counter(COUNTER_GROUP_CLYDESDALE,
                                "ht_builds_reused")
CTR_HT_TABLES_ADOPTED = _counter(COUNTER_GROUP_CLYDESDALE,
                                 "ht_tables_adopted")
CTR_HT_CACHE_HITS = _counter(COUNTER_GROUP_CLYDESDALE, "ht_cache_hits")
CTR_HT_CACHE_MISSES = _counter(COUNTER_GROUP_CLYDESDALE, "ht_cache_misses")
CTR_HT_ENTRIES_PREFIX = _counter_prefix(COUNTER_GROUP_CLYDESDALE,
                                        "ht_entries:")
CTR_HT_SCANNED_PREFIX = _counter_prefix(COUNTER_GROUP_CLYDESDALE,
                                        "ht_scanned:")

CTR_HIVE_STAGE_ROWS_IN = _counter(COUNTER_GROUP_HIVE, "stage_rows_in")
CTR_HIVE_STAGE_ROWS_OUT = _counter(COUNTER_GROUP_HIVE, "stage_rows_out")
CTR_HIVE_HT_RELOADS = _counter(COUNTER_GROUP_HIVE, "ht_reloads")
CTR_HIVE_GROUPBY_ROWS_IN = _counter(COUNTER_GROUP_HIVE, "groupby_rows_in")


# --------------------------------------------------------------------- #
# Lock hierarchy (concurrency discipline).
#
# Every long-lived threading lock in the code base is declared here with
# a rank; locks may only be acquired in strictly increasing rank order,
# which makes deadlock impossible by construction. The static lock-order
# pass (repro.analyze.locks, LOCK001/LOCK002) checks every nested
# acquisition it can see against this table, and the runtime sanitizer
# (repro.analyze.sanitizer.TrackedRLock) enforces the same order on the
# threads of a test run. ``site`` pins the declaration to the code:
# ``<repo path>:<Owner>.<attr>`` of the assignment that creates the
# lock, which is how the static pass maps a lock it discovered back to
# its declared rank.
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class LockRank:
    """One declared lock in the global acquisition hierarchy."""

    name: str            # runtime name, e.g. "serve.store"
    rank: int            # acquisition order; must strictly increase
    site: str            # "<repo path>:<Owner>.<attr>" creating the lock
    doc: str


#: name -> LockRank for every declared lock, the global hierarchy.
LOCK_HIERARCHY: dict[str, LockRank] = {}


def _lock_rank(name: str, rank: int, site: str, doc: str) -> str:
    LOCK_HIERARCHY[name] = LockRank(name=name, rank=rank, site=site,
                                    doc=doc)
    return name


LOCK_FRONTEND_WORKER = _lock_rank(
    "frontend.worker", 12,
    "src/repro/serve/worker.py:WorkerHandle._lock",
    "Serializes one worker's request pipe: exactly one frontend thread "
    "talks to a worker process at a time. Never held while another "
    "worker's lock is taken. The frontend's locks never nest in code; "
    "they are ranked so every cross-layer acquisition the analyzer can "
    "imagine stays rank-increasing.")
LOCK_FRONTEND_ROUTER = _lock_rank(
    "frontend.router", 14,
    "src/repro/serve/routing.py:ShapeRouter._lock",
    "Guards the shape router's assignment map and per-worker load "
    "tallies (warm-shard routing state).")
LOCK_FRONTEND_ADMISSION = _lock_rank(
    "frontend.admission", 16,
    "src/repro/serve/frontend.py:Frontend._lock",
    "Guards frontend admission state: attached sessions, in-flight/"
    "retry/rejection counters, routing tallies, the closed flag, and "
    "the generation clock. The frontend calls into the router, "
    "workers, and stores, never the reverse.")
LOCK_SERVE_STORE = _lock_rank(
    "serve.store", 30,
    "src/repro/serve/store.py:GenerationalStore._lock",
    "Guards one generation-stamped store (hash-table cache, result "
    "cache, or aggregate store): regions, recency order, byte budget, "
    "counters, and the generation stamp. A leaf: no store ever takes "
    "another lock — another store's included — while holding its own.")
LOCK_TRACER = _lock_rank(
    "trace.tracer", 40,
    "src/repro/trace/tracer.py:Tracer._lock",
    "Guards the tracer's shared span list and span-id counter (span "
    "parentage rides a per-thread stack, not this lock).")
LOCK_JOIN_MAPPER = _lock_rank(
    "join.mapper", 50,
    "src/repro/core/joinjob.py:StarJoinMapper._lock",
    "Guards the mapper's cross-thread tally registry; taken once per "
    "thread at tally registration and once at close, never per row.")
LOCK_JOIN_QUEUE = _lock_rank(
    "join.queue", 60,
    "src/repro/core/joinjob.py:MTMapRunner.run.queue_lock",
    "Guards the reader work queue and error list shared by join "
    "threads; innermost: nothing may be acquired under it.")


def lock_rank(name: str) -> LockRank:
    """The declared :class:`LockRank` for ``name`` (KeyError if absent)."""
    return LOCK_HIERARCHY[name]


def lock_ranks_by_site() -> dict[str, LockRank]:
    """The hierarchy keyed by declaration site, for the static pass."""
    return {rank.site: rank for rank in LOCK_HIERARCHY.values()}


# --------------------------------------------------------------------- #
# Query helpers (used by repro.analyze and by tests).
# --------------------------------------------------------------------- #

def is_registered_key(name: str) -> bool:
    """True when ``name`` is a registered configuration key."""
    return name in CONFIG_KEYS


def is_registered_counter(group: str, name: str) -> bool:
    """True when ``(group, name)`` matches an exact or prefix entry."""
    if group not in COUNTER_GROUPS:
        return False
    if (group, name) in COUNTERS:
        return True
    return any(g == group and name.startswith(prefix)
               for g, prefix in COUNTER_PREFIXES)


def feature_flags() -> dict[str, ConfigKey]:
    """The registered boolean feature flags, keyed by name."""
    return {name: key for name, key in CONFIG_KEYS.items() if key.flag}


def constant_names() -> dict[str, str]:
    """Exported ``CONSTANT -> string value`` map for static resolution.

    The string-key lint uses this to resolve ``conf.get(KEY_X)`` call
    sites to concrete key names without importing the linted module.
    """
    return {name: value for name, value in globals().items()
            if name.isupper() and isinstance(value, str)}
