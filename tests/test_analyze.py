"""Tests for repro.analyze: each lint pass against a seeded fixture, the
repo-clean gate, the CLI, the runtime sanitizer, and multi-thread
failure propagation in MTMapRunner."""

import textwrap
import threading

import pytest

from repro.analyze import (
    Analyzer,
    AnalysisContext,
    Severity,
    SourceModule,
    default_passes,
    find_repo_root,
    load_project,
)
from repro.analyze.contracts import ExceptionContractPass
from repro.analyze.hotpath import HotPathPass
from repro.analyze.locks import LockDisciplinePass
from repro.analyze.plantypes import PlanTypePass
from repro.analyze.registry import StringKeyRegistryPass
from repro.analyze.sanitizer import (FrozenTableDict, TrackedRLock,
                                     freeze_table)
from repro.serve.cache import HashTableCache
from repro.common import keys
from repro.common.errors import MapReduceError, SanitizerError
from repro.core.joinjob import (
    MTMapRunner,
    StarJoinMapper,
    configure_query,
)
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.core.expressions import Col, Comparison
from repro.mapreduce.api import Mapper, TaskContext
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import OutputCollector, RecordReader
from repro.ssb.schema import FOREIGN_KEYS, SCHEMAS
from tests.test_dataflow import HOT_FIXTURE, LEAK_FIXTURE, QUERIES_STUB


def fixture_context(path, source, design_text=""):
    module = SourceModule.from_text(path, textwrap.dedent(source))
    assert module.parse_error is None
    return AnalysisContext(modules=[module], design_text=design_text)


@pytest.fixture(scope="session")
def repo_analysis():
    """One run of every default pass over the repo, shared by the
    repo-clean tests: (the parsed project, the analyzer's findings, the
    ids of the passes that ran)."""
    context = load_project(find_repo_root())
    analyzer = Analyzer(default_passes())
    return context, analyzer.run(context), set(analyzer.timings)


def repo_findings(repo_analysis, pass_id):
    """The shared run's findings of one pass, which must have run."""
    _, findings, ran = repo_analysis
    assert pass_id in ran
    return [f for f in findings if f.pass_id == pass_id]


# --------------------------------------------------------------------- #
# Race lint
# --------------------------------------------------------------------- #

RACE_FIXTURE = '''
import threading

counts = {}

class Worker:
    def __init__(self):
        self.lock = threading.Lock()
        self._local = threading.local()

    def map(self, value):
        self.rows += 1                  # RACE002: unguarded self write
        self.helper(value)
        self.safe(value)
        self.local_ok(value)

    def helper(self, value):
        self.cache[value] = 1           # RACE002: reachable via map

    def safe(self, value):
        with self.lock:
            self.guarded += 1           # guarded: allowed

    def local_ok(self, value):
        self._local.tally = value       # thread-local: allowed

    def cold(self, value):
        self.unreachable = value        # not reachable from entries

def join_thread():
    global counts
    counts = {}                         # RACE001: module global

def run():
    results = []
    def join_thread():
        results.append(1)               # RACE003: closure mutation
    return join_thread
'''


class TestRaceLint:
    def run_pass(self, source):
        context = fixture_context("fixture_race.py", source)
        return LockDisciplinePass(scopes=("fixture_race.py",),
                                  entries=("join_thread", "map")).run(context)

    def test_seeded_fixture(self):
        findings = self.run_pass(RACE_FIXTURE)
        codes = sorted(f.code for f in findings)
        assert codes == ["RACE001", "RACE003", "RACE102", "RACE102"]
        messages = " | ".join(f.message for f in findings)
        assert "self.rows" in messages
        assert "self.cache" in messages
        assert "guarded" not in messages
        assert "unreachable" not in messages

    def test_clean_module_passes(self):
        findings = self.run_pass('''
            import threading

            class Worker:
                def __init__(self):
                    self.lock = threading.Lock()

                def map(self, value):
                    with self.lock:
                        self.rows += 1
        ''')
        assert findings == []

    def test_guard_from_caller_counts(self):
        # The pre-v2 lexical check could not see a lock acquired in the
        # caller; the lockset analysis propagates it through the call
        # graph into the private helper.
        findings = self.run_pass('''
            import threading

            class Worker:
                def __init__(self):
                    self.lock = threading.Lock()

                def map(self, value):
                    with self.lock:
                        self._bump(value)

                def _bump(self, value):
                    self.rows += 1
        ''')
        assert findings == []

    def test_substring_heuristics_are_gone(self):
        # "lock" in the context-expression name and "local" in the
        # attribute chain no longer count unless the lock model sees an
        # actual declaration.
        findings = self.run_pass('''
            class Worker:
                def map(self, value):
                    with self.lock:            # never declared as a Lock
                        self.rows += 1
                    self._local.tally = value  # never threading.local()
        ''')
        assert sorted(f.code for f in findings) == ["RACE102", "RACE102"]

    def test_repo_hot_paths_are_clean(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             LockDisciplinePass.pass_id) == []


# --------------------------------------------------------------------- #
# Lockset discipline (RACE101-103) and lock order (LOCK001-002)
# --------------------------------------------------------------------- #

def _locks_pass(path, source, entries):
    context = fixture_context(path, source)
    return LockDisciplinePass(scopes=(path,), entries=entries).run(context)


def _order_pass(path, source, entries, hierarchy):
    context = fixture_context(path, source)
    return LockDisciplinePass(scopes=(path,), entries=entries,
                              hierarchy=hierarchy).run(context)


class TestLockDiscipline:
    PATH = "fixture_locks.py"

    def test_race101_inconsistent_locksets(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self.count += 1

                def peek(self):
                    return self.count       # read without the lock
        ''', entries=("bump", "peek"))
        assert [f.code for f in findings] == ["RACE101"]
        assert "Box.count" in findings[0].message
        assert "Box.peek" in findings[0].message

    def test_race102_unlocked_write(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.items = []

                def push(self, value):
                    self.items.append(value)
        ''', entries=("push",))
        assert [f.code for f in findings] == ["RACE102"]
        assert "Box.items" in findings[0].message

    def test_interprocedural_guard_is_seen(self):
        # The write sits in a private helper; the lock is acquired in
        # the public caller. Lockset propagation keeps this clean.
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self._bump_impl()

                def _bump_impl(self):
                    self.count += 1
        ''', entries=("bump",))
        assert findings == []

    def test_subclass_inherits_the_base_lock(self):
        # ``guarded_lock`` is a lock constructor, and a subclass's
        # ``with self._lock`` / field accesses resolve against the
        # base's declaration: the unlocked write is seen, the locked
        # one is clean (neither is skipped as "no lock owner").
        findings = _locks_pass(self.PATH, '''
            from repro.common.locking import guarded_lock

            class Store:
                def __init__(self, sanitize):
                    self.count = 0
                    self._lock = guarded_lock(self, "s", ("count",),
                                              sanitize)

                def bump(self):
                    with self._lock:
                        self.count += 1

            class Derived(Store):
                def fetch(self):
                    with self._lock:
                        self.count += 1

                def leak(self):
                    self.count += 1
        ''', entries=("bump", "fetch", "leak"))
        assert [f.code for f in findings] == ["RACE102"]
        assert "Derived.leak" in findings[0].message

    def test_race103_early_return_leak(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()

                def leaky(self, flag):
                    self.lock.acquire()
                    if flag:
                        return 0            # leaks the lock
                    self.lock.release()
                    return 1
        ''', entries=("leaky",))
        assert [f.code for f in findings] == ["RACE103"]
        assert "some return paths but not others" in findings[0].message

    def test_race103_exception_leak(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()

                def risky(self, work):
                    self.lock.acquire()
                    result = work()         # may raise with lock held
                    self.lock.release()
                    return result
        ''', entries=("risky",))
        assert [f.code for f in findings] == ["RACE103"]
        assert "exception path" in findings[0].message

    def test_race103_try_finally_is_clean(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()

                def careful(self, work):
                    self.lock.acquire()
                    try:
                        return work()
                    finally:
                        self.lock.release()
        ''', entries=("careful",))
        assert findings == []

    def test_allow_unlocked_annotation(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def reset(self):  # analyze: allow-unlocked
                    self.count = 0
        ''', entries=("reset",))
        assert findings == []

    def test_threadlocal_and_init_writes_exempt(self):
        findings = _locks_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self._local = threading.local()
                    self.count = 0          # pre-publication: exempt

                def stash(self, value):
                    self._local.tally = value
        ''', entries=("stash",))
        assert findings == []

    def test_repo_is_lockset_clean(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             LockDisciplinePass.pass_id) == []


class TestLockOrder:
    PATH = "fixture_order.py"
    HIERARCHY = {
        "fixture_order.py:Box.alpha": ("box.alpha", 10),
        "fixture_order.py:Box.beta": ("box.beta", 20),
    }

    def test_lock001_cycle(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()
                    self.beta = threading.Lock()

                def forward(self):
                    with self.alpha:
                        with self.beta:
                            pass

                def backward(self):
                    with self.beta:
                        with self.alpha:
                            pass
        ''', entries=("forward", "backward"), hierarchy=self.HIERARCHY)
        assert [f.code for f in findings] == ["LOCK001"]
        assert "potential deadlock" in findings[0].message
        assert "Box.alpha" in findings[0].message
        assert "Box.beta" in findings[0].message

    def test_lock001_nonreentrant_self_acquire(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()

                def outer(self):
                    with self.alpha:
                        self._inner()

                def _inner(self):
                    with self.alpha:
                        pass
        ''', entries=("outer",), hierarchy=self.HIERARCHY)
        assert [f.code for f in findings] == ["LOCK001"]
        assert "self-deadlock" in findings[0].message

    def test_reentrant_self_acquire_is_clean(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.RLock()

                def outer(self):
                    with self.alpha:
                        self._inner()

                def _inner(self):
                    with self.alpha:
                        pass
        ''', entries=("outer",), hierarchy=self.HIERARCHY)
        assert findings == []

    def test_lock002_rank_violation(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()
                    self.beta = threading.Lock()

                def backward(self):
                    with self.beta:
                        with self.alpha:
                            pass
        ''', entries=("backward",), hierarchy=self.HIERARCHY)
        assert [f.code for f in findings] == ["LOCK002"]
        assert "box.alpha" in findings[0].message
        assert "strictly increasing rank" in findings[0].message

    def test_lock002_undeclared_lock(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()
                    self.gamma = threading.Lock()

                def nest(self):
                    with self.alpha:
                        with self.gamma:
                            pass
        ''', entries=("nest",), hierarchy=self.HIERARCHY)
        assert [f.code for f in findings] == ["LOCK002"]
        assert "no declared rank" in findings[0].message
        assert "Box.gamma" in findings[0].message

    def test_declared_order_is_clean(self):
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()
                    self.beta = threading.Lock()

                def forward(self):
                    with self.alpha:
                        with self.beta:
                            pass
        ''', entries=("forward",), hierarchy=self.HIERARCHY)
        assert findings == []

    def test_order_through_call_chain(self):
        # beta is acquired inside a helper called under alpha: the
        # acquisition-order edge must still be seen (acq-within).
        findings = _order_pass(self.PATH, '''
            import threading

            class Box:
                def __init__(self):
                    self.alpha = threading.Lock()
                    self.beta = threading.Lock()

                def backward(self):
                    with self.beta:
                        self._grab()

                def _grab(self):
                    with self.alpha:
                        pass
        ''', entries=("backward",), hierarchy=self.HIERARCHY)
        assert [f.code for f in findings] == ["LOCK002"]

    def test_repo_order_is_clean(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             LockDisciplinePass.pass_id) == []

    def test_repo_hierarchy_covers_every_lock(self, repo_analysis):
        # Every lock the model discovers in the repo must carry a
        # declared rank — undeclared locks would dodge LOCK002.
        from repro.analyze.callgraph import ProjectCallGraph
        from repro.analyze.locks import SCOPES, build_lock_model
        model = build_lock_model(ProjectCallGraph(repo_analysis[0],
                                                  scopes=SCOPES))
        declared = set(keys.lock_ranks_by_site())
        assert set(model.decls) == declared


# --------------------------------------------------------------------- #
# Runtime lock-discipline sanitizer: TrackedRLock + guard_fields
# --------------------------------------------------------------------- #

class TestTrackedRLock:
    def test_enforces_declared_order(self):
        low = TrackedRLock("test.low", rank=10)
        high = TrackedRLock("test.high", rank=20)
        with low:
            with high:          # increasing rank: fine
                pass
        with high:
            with pytest.raises(SanitizerError, match="lock-order inversion"):
                low.acquire()
        assert not low.held() and not high.held()

    def test_reentrant_acquire_allowed(self):
        lock = TrackedRLock("test.re", rank=10)
        with lock:
            with lock:
                assert lock.held()
        assert not lock.held()

    def test_release_without_hold_raises(self):
        lock = TrackedRLock("test.rel", rank=10)
        with pytest.raises(SanitizerError, match="does not hold"):
            lock.release()

    def test_unknown_name_requires_explicit_rank(self):
        with pytest.raises(SanitizerError, match="no declared rank"):
            TrackedRLock("not.in.hierarchy")

    def test_declared_names_resolve_ranks(self):
        admission = TrackedRLock(keys.LOCK_FRONTEND_ADMISSION)
        store = TrackedRLock(keys.LOCK_SERVE_STORE)
        assert admission.rank < store.rank

    def test_injected_inversion_caught_across_threads(self):
        # Fault injection: thread A takes locks in declared order,
        # thread B inverts it. Only B must trip the sanitizer.
        low = TrackedRLock("test.inj.low", rank=10)
        high = TrackedRLock("test.inj.high", rank=20)
        errors = []

        def well_ordered():
            with low:
                with high:
                    pass

        def inverted():
            try:
                with high:
                    with low:
                        pass
            except SanitizerError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=well_ordered),
                   threading.Thread(target=inverted)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 1
        assert "lock-order inversion" in str(errors[0])


class TestGuardFields:
    def test_unguarded_write_caught(self):
        # The frozen-table sanitizer cannot express this: guarded state
        # is mutable, just only under its lock.
        cache = HashTableCache(1024, sanitize=True)
        cache.put("n0", "k", "v", 16)       # under the lock: fine
        assert cache.get("n0", "k") == "v"
        with pytest.raises(SanitizerError, match="unguarded write"):
            cache._hits = 99
        with cache._lock:                   # under the lock: allowed
            cache._hits += 1
        assert cache.stats().hits == 2

    def test_plain_cache_unaffected(self):
        cache = HashTableCache(1024)
        cache._hits = 99                    # no sanitizer: no guard
        assert cache.stats().hits == 99

    def test_server_guarded_fields(self, ssb_data):
        from repro.common.config import Configuration
        from repro.serve.frontend import Frontend

        front = Frontend(backend="clydesdale", data=ssb_data, sanitize=True,
                         conf=Configuration({keys.KEY_SERVE_WORKERS: 1}))
        try:
            with pytest.raises(SanitizerError, match="unguarded write"):
                front._submitted = 7
            assert front.stats().submitted == 0
        finally:
            front.close()


HOT004_FIXTURE = '''
class Kernel:
    def _map_block(self, block, out):
        vec = block.columns["v"]
        decoded = vec.to_list()               # before the loop: allowed
        collect = out.collect
        for i in range(block.num_rows):
            rows = list(vec)                  # HOT004: list(...) per row
            values = vec.tolist()             # HOT004: .tolist() per row
            one = vec.take(selection)         # HOT004: .take() per row
            text = block.raw[i].decode()      # HOT004: .decode() per row
            collect(vec[i])                   # scalar access: allowed
            empty = list()                    # no-arg list(): allowed
'''


class TestHotPathDecodeLint:
    def run_pass(self, source):
        context = fixture_context("src/repro/core/fixture.py", source)
        return HotPathPass().run(context)

    def test_seeded_fixture(self):
        findings = self.run_pass(HOT004_FIXTURE)
        codes = [f.code for f in findings]
        assert codes == ["HOT004"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "list(...)" in messages
        assert ".tolist()" in messages
        assert ".take()" in messages
        assert ".decode()" in messages

    def test_gather_before_loop_is_clean(self):
        findings = self.run_pass('''
            class Kernel:
                def _map_block(self, block, out):
                    values = block.columns["v"].take(selection)
                    collect = out.collect
                    for k in range(len(selection)):
                        collect(values[k])
        ''')
        assert findings == []

    def test_key_index_loops_are_on_the_hot_path(self, repo_analysis):
        """The block kernel reaches the key-index loops of
        ``select_hits`` and ``entries_at``: a list literal seeded in
        each is flagged."""
        context = repo_analysis[0]
        module = context.module("repro/core/hashtable.py")
        loop = "for k, key in enumerate(gather_values(keys, sel)):"
        lines = []
        for line in module.text.splitlines():
            lines.append(line)
            if line.strip() == loop:
                indent = len(line) - len(line.lstrip()) + 4
                lines.append(" " * indent + "seeded = []")
        assert [line.strip() for line in lines].count("seeded = []") == 2
        seeded = SourceModule.from_text(module.path, "\n".join(lines))
        findings = HotPathPass().run(AnalysisContext(
            modules=[seeded if m is module else m
                     for m in context.modules], root=context.root))
        assert [f.code for f in findings] == ["HOT001"] * 2
        assert all(lines[f.line - 1].strip() == "seeded = []"
                   for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "DimensionHashTable.select_hits" in messages
        assert "DimensionHashTable.entries_at" in messages

    def test_allow_alloc_suppresses_hot004(self):
        findings = self.run_pass('''
            class Kernel:
                def _map_block(self, block, out):
                    for i in range(block.num_rows):
                        row = list(block.columns["v"])  # analyze: allow-alloc
                        out.collect(row)
        ''')
        assert findings == []


# --------------------------------------------------------------------- #
# String-key registry lint
# --------------------------------------------------------------------- #

KEYS_FIXTURE = '''
from repro.common.keys import KEY_JOB_NAME

def setup(conf, context, options):
    conf.set(KEY_JOB_NAME, "q1")                    # registered constant
    conf.set("mapred.output.dir", "/out")           # registered literal
    conf.get("my.bogus.key")                        # KEYS001
    options.get("groups")                           # dict access: ignored
    context.count("clydesdale", "rows_probed")      # registered
    context.count("clydesdale", "bogus_counter")    # KEYS003
    context.count("bogus_group", "rows_probed")     # KEYS002
    for dim in ("date",):
        context.count("clydesdale", f"ht_entries:{dim}")   # prefix: ok
        context.count("clydesdale", f"wrong:{dim}")        # KEYS003
'''


class TestStringKeyLint:
    def test_seeded_fixture(self):
        context = fixture_context("fixture_keys.py", KEYS_FIXTURE)
        findings = StringKeyRegistryPass().run(context)
        codes = sorted(f.code for f in findings)
        assert codes == ["KEYS001", "KEYS002", "KEYS003", "KEYS003"]
        messages = " | ".join(f.message for f in findings)
        assert "my.bogus.key" in messages
        assert "bogus_group" in messages
        assert "bogus_counter" in messages
        assert "wrong:" in messages

    def test_unused_entries_reported_as_warnings(self):
        registry_src = SourceModule.from_text("repro/common/keys.py", "")
        context = AnalysisContext(modules=[registry_src],
                                  root=find_repo_root())
        findings = StringKeyRegistryPass().run(context)
        # Nothing references any key in an empty project, so every
        # registered entry is "unused" — all warnings, never errors.
        assert findings
        assert {f.code for f in findings} == {"KEYS004"}
        assert {f.severity for f in findings} == {Severity.WARNING}

    def test_repo_has_no_unregistered_or_unused_keys(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             StringKeyRegistryPass.pass_id) == []


RESERVED_FIXTURE = '''
OPTIONS = {
    "clydesdale.cache.ht_bytes": 1024,     # registered: ok
    "clydesdale.cache.zz_bogus": True,     # KEYS005
    "clydesdale.serve.queue.depth": 8,     # registered: ok
    "clydesdale.serve.zz_bogus": 1,        # KEYS005
    "clydesdale.serve.aggstore.enabled": True,   # registered: ok
    "clydesdale.serve.aggstore.zz_bogus": 1,     # KEYS005
    "clydesdale.other.key": 2,             # unreserved namespace: ignored
}

COUNTERS = ["ht_cache_hits", "ht_cache_zz_bogus"]   # second is KEYS005
'''


class TestReservedNamespaceLint:
    """KEYS005 — reserved serving-layer namespaces must be registered,
    even in literals the call-site resolution cannot see."""

    def test_seeded_fixture(self):
        context = fixture_context("fixture_reserved.py", RESERVED_FIXTURE)
        findings = StringKeyRegistryPass().run(context)
        codes = [f.code for f in findings]
        assert codes == ["KEYS005"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "clydesdale.cache.zz_bogus" in messages
        assert "clydesdale.serve.zz_bogus" in messages
        assert "clydesdale.serve.aggstore.zz_bogus" in messages
        assert "ht_cache_zz_bogus" in messages
        assert "clydesdale.other.key" not in messages
        assert "clydesdale.serve.aggstore.enabled" not in messages

    def test_registered_names_pass(self):
        source = '''
        KEYS = ("clydesdale.cache.enabled", "clydesdale.cache.ht_bytes",
                "clydesdale.serve.max.concurrent",
                "clydesdale.serve.session.quota",
                "clydesdale.serve.aggstore.enabled",
                "clydesdale.serve.aggstore.bytes")
        CTRS = ("ht_cache_hits", "ht_cache_misses")
        '''
        context = fixture_context("fixture_reserved_ok.py", source)
        assert StringKeyRegistryPass().run(context) == []


# --------------------------------------------------------------------- #
# Feature-flag lint
# --------------------------------------------------------------------- #

class TestFeatureFlagLint:
    def all_flags_documented(self):
        return " ".join(keys.feature_flags())

    def test_undocumented_flag_read(self):
        context = fixture_context(
            "fixture_flags.py",
            'def setup(conf):\n'
            '    conf.get_bool("my.undocumented.flag", False)\n'
            '    conf.get_bool("clydesdale.sanitizer", False)\n'
            '    conf.get_bool("verbose")\n',     # non-dotted: ignored
            design_text=self.all_flags_documented())
        findings = StringKeyRegistryPass().run(context)
        assert [f.code for f in findings] == ["FLAG002"]
        assert "my.undocumented.flag" in findings[0].message

    def test_flag_missing_default_or_docs(self):
        flags = {"x.y.flag": keys.ConfigKey(
            name="x.y.flag", kind="bool", default=None, doc="", flag=True)}
        context = fixture_context("fixture_flags.py", "", design_text="")
        findings = StringKeyRegistryPass(flags=flags).run(context)
        assert [f.code for f in findings] == ["FLAG001", "FLAG001"]
        assert any("without a default" in f.message for f in findings)
        assert any("DESIGN.md" in f.message for f in findings)

    def test_repo_flags_are_documented(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             StringKeyRegistryPass.pass_id) == []


# --------------------------------------------------------------------- #
# Exception-contract lint
# --------------------------------------------------------------------- #

CONTRACTS_FIXTURE = '''
def a():
    try:
        work()
    except:                       # EXC001
        pass

def b():
    try:
        work()
    except Exception:             # EXC002: swallowed
        pass

def c():
    try:
        work()
    except Exception as exc:      # ok: wraps and re-raises
        raise WrappedError("ctx") from exc

def d(log):
    try:
        work()
    except Exception as exc:      # ok: uses the bound exception
        log.warning("failed: %s", exc)

def e():
    raise ValueError("bad input")  # EXC003

def f():
    raise NotImplementedError      # allowed

def g():
    raise WrappedError("typed")    # project type: ok
'''


class TestExceptionContractLint:
    def test_seeded_fixture(self):
        context = fixture_context("repro/core/fixture_exc.py",
                                  CONTRACTS_FIXTURE)
        findings = ExceptionContractPass().run(context)
        assert sorted(f.code for f in findings) == \
            ["EXC001", "EXC002", "EXC003"]

    def test_out_of_scope_module_ignored(self):
        context = fixture_context("repro/model/fixture_exc.py",
                                  CONTRACTS_FIXTURE)
        assert ExceptionContractPass().run(context) == []

    def test_repo_apis_keep_the_contract(self, repo_analysis):
        assert repo_findings(repo_analysis,
                             ExceptionContractPass.pass_id) == []


# --------------------------------------------------------------------- #
# Framework: findings, analyzer, CLI
# --------------------------------------------------------------------- #

#: One seeded fixture per pass: (path, source).
PASS_FIXTURES = {
    "locks": ("src/repro/serve/fixture_race.py", RACE_FIXTURE),
    "keys": ("fixture_keys.py", KEYS_FIXTURE),
    "contracts": ("repro/core/fixture_exc.py", CONTRACTS_FIXTURE),
    "lifecycle": ("src/repro/storage/fixture.py", LEAK_FIXTURE),
    "hotpath": ("src/repro/core/fixture.py", HOT_FIXTURE),
    "plantypes": ("src/repro/ssb/queries.py", QUERIES_STUB),
}


def seeded_suite():
    """The default suite, except that the plan-type pass, which imports
    its workload instead of parsing it, gets one ill-typed query."""
    bad = StarQuery(name="Qfix", fact_table="lineitem", joins=[],
                    aggregates=[Aggregate("sum", Col("lo_revenue"),
                                          alias="r")])
    return [PlanTypePass(load=lambda: ([bad], SCHEMAS, FOREIGN_KEYS))
            if p.pass_id == PlanTypePass.pass_id else p
            for p in default_passes()]


def small_checkout(root, files):
    """A repo checkout under ``root`` holding only ``files``
    (path under ``src/repro`` -> source)."""
    for path, source in files.items():
        target = root / "src" / "repro" / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return str(root)


class TestFramework:
    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("WARNING") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_parse_error_is_a_finding(self):
        module = SourceModule.from_text("bad.py", "def broken(:\n")
        findings = Analyzer([]).run(AnalysisContext(modules=[module]))
        assert [f.code for f in findings] == ["PARSE001"]

    @pytest.mark.parametrize("pass_id",
                             [p.pass_id for p in default_passes()])
    def test_each_pass_owns_a_seeded_defect(self, pass_id):
        """Each pass catches its fixture's defects, and no other pass
        reports anything there: a pass that does not earn its place
        here duplicates another."""
        path, source = PASS_FIXTURES[pass_id]
        findings = Analyzer(seeded_suite()).run(
            fixture_context(path, source))
        assert findings
        assert {f.pass_id for f in findings} == {pass_id}

    def test_repo_is_clean(self, repo_analysis):
        findings = repo_analysis[1]
        assert findings == []

    def test_cli_exits_zero_on_repo(self, capsys):
        from repro.analyze.__main__ import main
        assert main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        import json
        from repro.analyze.__main__ import main
        root = small_checkout(tmp_path, {"core/conf.py": KEYS_FIXTURE})
        assert main(["--root", root, "--format", "json",
                     "--fail-on", "never"]) == 0
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert sorted(f["code"] for f in findings) == \
            ["KEYS001", "KEYS002", "KEYS003", "KEYS003"]
        assert {f["path"] for f in findings} == {"src/repro/core/conf.py"}
        assert {f["severity"] for f in findings} == {"error"}

    def test_cli_rejects_bad_severity(self, capsys):
        from repro.analyze.__main__ import main
        assert main(["--fail-on", "fatal"]) == 2

    def test_cli_list_passes(self, capsys):
        from repro.analyze.__main__ import main
        assert main(["--list-passes"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["locks", "keys", "contracts", "lifecycle",
                          "hotpath", "plantypes"]

    def test_cli_only_runs_subset(self, tmp_path, capsys):
        from repro.analyze.__main__ import main
        root = small_checkout(tmp_path, {
            "core/conf.py": KEYS_FIXTURE,
            "serve/worker.py": RACE_FIXTURE})
        assert main(["--root", root, "--only", "locks"]) == 1
        out = capsys.readouterr().out
        assert "[RACE001]" in out and "KEYS" not in out
        assert main(["--root", root, "--only", "contracts,hotpath"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_only_rejects_unknown_pass(self, capsys):
        from repro.analyze.__main__ import main
        assert main(["--only", "nosuchpass"]) == 2
        assert "unknown pass id" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Runtime sanitizer
# --------------------------------------------------------------------- #

def _query():
    return StarQuery(
        name="unit", fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                             Comparison("d_year", "=", 1994))],
        aggregates=[Aggregate("sum", Col("lo_revenue"), alias="r")],
        group_by=["d_year"])


def _sanitized_context(sanitize=True):
    from repro.ssb.datagen import SSBGenerator
    from repro.storage.dimcopy import encode_dimension_copy
    conf = JobConf("t")
    configure_query(conf, _query(), SCHEMAS["lineorder"],
                    {"date": SCHEMAS["date"]})
    conf.set(keys.KEY_SANITIZER, sanitize)
    rows = SSBGenerator(scale_factor=0.001).gen_date()
    blob = encode_dimension_copy(SCHEMAS["date"], rows)
    return TaskContext(
        conf=conf, node_id="node000", task_id="m-0", jvm_state={},
        node_local_read=lambda n, f: blob, threads=2)


class TestFrozenTableDict:
    def test_reads_still_work(self):
        frozen = FrozenTableDict({1: ("a",), 2: ("b",)})
        assert frozen.get(1) == ("a",)
        assert frozen.get(99) is None
        assert 2 in frozen
        assert len(frozen) == 2
        assert sorted(frozen) == [1, 2]

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__(3, ("c",)),
        lambda d: d.__delitem__(1),
        lambda d: d.clear(),
        lambda d: d.pop(1),
        lambda d: d.popitem(),
        lambda d: d.setdefault(3, ()),
        lambda d: d.update({3: ()}),
    ])
    def test_mutators_raise(self, mutate):
        frozen = FrozenTableDict({1: ("a",)})
        with pytest.raises(SanitizerError):
            mutate(frozen)
        assert dict(frozen) == {1: ("a",)}


class TestSanitizer:
    def test_mutation_after_publish_fails(self):
        mapper = StarJoinMapper()
        mapper.initialize(_sanitized_context())
        table = mapper.hash_tables[0]
        with pytest.raises(SanitizerError):
            table._table[19940101] = ("oops",)
        with pytest.raises(SanitizerError):
            table.aux_columns = ()
        with pytest.raises(SanitizerError):
            del table.dimension

    def test_probes_unaffected_by_freeze(self):
        sanitized = StarJoinMapper()
        sanitized.initialize(_sanitized_context())
        plain = StarJoinMapper()
        plain.initialize(_sanitized_context(sanitize=False))
        record = {"lo_orderdate": 19940310, "lo_revenue": 100}
        out_a, out_b = OutputCollector(), OutputCollector()
        assert sanitized.process_record(record.__getitem__, out_a)
        assert plain.process_record(record.__getitem__, out_b)
        assert out_a.pairs == out_b.pairs

    def test_without_flag_mutation_passes(self):
        mapper = StarJoinMapper()
        mapper.initialize(_sanitized_context(sanitize=False))
        mapper.hash_tables[0]._table[0] = ("fine",)  # no sanitizer: no check

    def test_freeze_table_idempotent(self):
        mapper = StarJoinMapper()
        mapper.initialize(_sanitized_context())
        table = mapper.hash_tables[0]
        cls = type(table)
        assert freeze_table(table) is table
        assert type(table) is cls

    def test_double_close_fails_under_sanitizer(self):
        context = _sanitized_context()
        mapper = StarJoinMapper()
        mapper.initialize(context)
        collector = OutputCollector()
        mapper.close(collector, context)
        with pytest.raises(SanitizerError):
            mapper.close(collector, context)

    def test_tally_after_close_fails_under_sanitizer(self):
        context = _sanitized_context()
        mapper = StarJoinMapper()
        mapper.initialize(context)
        mapper.close(OutputCollector(), context)
        failures = []

        def late_thread():
            try:
                mapper._tally()
            except SanitizerError as exc:
                failures.append(exc)

        thread = threading.Thread(target=late_thread)
        thread.start()
        thread.join()
        assert len(failures) == 1


# --------------------------------------------------------------------- #
# MTMapRunner error propagation
# --------------------------------------------------------------------- #

class _ListReader(RecordReader):
    def __init__(self, pairs, children=None):
        self._pairs = list(pairs)
        self._children = children

    def get_multiple_readers(self):
        return self._children if self._children else [self]

    def next(self):
        return self._pairs.pop(0) if self._pairs else None


class _BarrierMapper(Mapper):
    """Fails in every thread at once, so all failures must surface."""

    def __init__(self, parties):
        self._barrier = threading.Barrier(parties)

    def map(self, key, value, collector, context):
        self._barrier.wait(timeout=10)
        raise ValueError(f"boom on {value}")


def _context(threads):
    return TaskContext(conf=JobConf("t"), node_id="node000",
                       task_id="m-0", jvm_state={},
                       node_local_read=lambda n, f: b"", threads=threads)


class TestThreadFailureCollection:
    def test_all_thread_failures_reported(self):
        parties = 4
        children = [_ListReader([(i, i)]) for i in range(parties)]
        reader = _ListReader([], children=children)
        with pytest.raises(MapReduceError) as excinfo:
            MTMapRunner().run(reader, _BarrierMapper(parties),
                              OutputCollector(), _context(parties))
        failure = excinfo.value
        assert f"{parties} join thread(s) failed" in str(failure)
        assert len(failure.thread_errors) == parties
        assert all(isinstance(e, ValueError)
                   for e in failure.thread_errors)
        # The first failure is the cause; the rest ride along as notes.
        assert failure.__cause__ is failure.thread_errors[0]
        assert len(getattr(failure, "__notes__", [])) == parties - 1
        assert all("also failed in join-thread-" in note
                   for note in failure.__notes__)

    def test_single_failure_keeps_simple_shape(self):
        children = [_ListReader([(1, 1)])]
        reader = _ListReader([], children=children)
        with pytest.raises(MapReduceError) as excinfo:
            MTMapRunner().run(reader, _BarrierMapper(1),
                              OutputCollector(), _context(4))
        failure = excinfo.value
        assert "1 join thread(s) failed" in str(failure)
        assert len(failure.thread_errors) == 1
        assert not getattr(failure, "__notes__", [])
