"""Tests for the dataflow engine (cfg/dataflow/callgraph) and the three
passes built on it (lifecycle, hotpath, plantypes), plus the analyzer's
dedupe/sort and GitHub-annotation satellites."""

import ast
import textwrap

import pytest

from repro.analyze import (
    AnalysisContext,
    AnalysisPass,
    Analyzer,
    Finding,
    Severity,
    SourceModule,
    render_github,
)
from repro.analyze.cfg import EXCEPTION, FALSE, TRUE, build_cfg
from repro.analyze.dataflow import DataflowProblem, Interval, solve
from repro.analyze.hotpath import HotPathPass
from repro.analyze.lifecycle import LifecyclePass
from repro.analyze.plantypes import PlanTypePass
from repro.core.expressions import Col, Comparison
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.ssb.schema import FOREIGN_KEYS, SCHEMAS


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    func = next(n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return build_cfg(func)


def fixture_context(path, source):
    module = SourceModule.from_text(path, textwrap.dedent(source))
    assert module.parse_error is None
    return AnalysisContext(modules=[module])


# --------------------------------------------------------------------- #
# CFG builder edge cases
# --------------------------------------------------------------------- #

class _LinePaths(DataflowProblem):
    """Forward may-analysis: set of statement lines seen on *some* path
    (frozenset union), for asserting what a path can include."""

    def bottom(self):
        return None

    def initial(self):
        return frozenset()

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    def transfer(self, node, state):
        if state is None or node.line == 0:
            return state
        return state | {node.line}


class _MustLines(_LinePaths):
    """Forward must-analysis: lines on *every* path (intersection)."""

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b


def _reachable(cfg, start, blocked=()):
    seen, stack = set(), [start]
    while stack:
        index = stack.pop()
        if index in seen or index in blocked:
            continue
        seen.add(index)
        stack.extend(e.target for e in cfg.nodes[index].edges)
    return seen


class TestCFG:
    def test_try_finally_with_break_runs_finally(self):
        cfg = _cfg('''
            def f(items):
                for item in items:            # line 3
                    try:
                        if item:              # line 5
                            break             # line 6
                        work(item)            # line 7
                    finally:
                        cleanup()             # line 9
                after()                       # line 10
        ''')
        break_node = next(n for n in cfg.nodes if n.line == 6)
        after_node = next(n for n in cfg.nodes if n.line == 10)
        finally_nodes = {n.index for n in cfg.nodes if n.line == 9}
        # after() is reachable from the break...
        assert after_node.index in _reachable(cfg, break_node.index)
        # ...but only through the finally body: cut it out and the
        # break can no longer reach after().
        assert after_node.index not in _reachable(
            cfg, break_node.index, blocked=finally_nodes)
        # And the may-analysis sees the finally on a path into after().
        paths = solve(cfg, _LinePaths())
        assert 9 in paths.input(after_node.index)

    def test_while_else_break_skips_else(self):
        cfg = _cfg('''
            def f(n):
                while n:                      # line 3
                    if check(n):              # line 4
                        break                 # line 5
                    n = step(n)               # line 6
                else:
                    never_broke()             # line 8
                done()                        # line 9
        ''')
        paths = solve(cfg, _LinePaths())
        else_node = next(n for n in cfg.nodes if n.line == 8)
        # The else body is reachable, but never after a break.
        assert paths.input(else_node.index) is not None
        assert 5 not in paths.input(else_node.index)
        # done() is reachable both ways.
        done_node = next(n for n in cfg.nodes if n.line == 9)
        assert 5 in paths.input(done_node.index)
        assert 8 in paths.input(done_node.index)

    def test_nested_with_exit_nodes(self):
        cfg = _cfg('''
            def f(fs, p):
                with fs.open(p) as a:
                    with fs.open(p) as b:
                        use(a, b)
        ''')
        enters = [n for n in cfg.nodes if n.kind == "with_enter"]
        exits = [n for n in cfg.nodes if n.kind == "with_exit"]
        assert len(enters) == 2
        assert len(exits) == 2
        # Each with_exit keeps an exception continuation: __exit__ may
        # re-raise, so the raise_exit stays reachable through it.
        for node in exits:
            kinds = {e.kind for e in node.edges}
            assert EXCEPTION in kinds

    def test_short_circuit_and_or(self):
        cfg = _cfg('''
            def f(a, b, c):
                if a and (b or c):            # 3 operands, 3 test nodes
                    hit()
                else:
                    miss()
        ''')
        tests = [n for n in cfg.nodes if n.kind == "test"]
        assert len(tests) == 3
        # The `a` test can reach the false target directly (b and c
        # never evaluated): one of its false edges must bypass the
        # other test nodes.
        a_test = min(tests, key=lambda n: n.index)
        false_edges = [e for e in a_test.edges if e.kind == FALSE]
        assert false_edges, "first operand needs a short-circuit exit"
        test_indices = {n.index for n in tests}
        assert all(e.target not in test_indices for e in false_edges)
        # The true edge of `a` goes on to evaluate `b`.
        true_edges = [e for e in a_test.edges if e.kind == TRUE]
        assert any(e.target in test_indices
                   or any(e2.target in test_indices
                          for e2 in cfg.nodes[e.target].edges)
                   for e in true_edges)

    def test_return_in_try_routes_through_finally(self):
        cfg = _cfg('''
            def f(x):
                try:
                    return x                  # line 4
                finally:
                    cleanup()                 # line 6
        ''')
        result = solve(cfg, _MustLines())
        assert 6 in result.input(cfg.exit)


# --------------------------------------------------------------------- #
# Fixpoint solver convergence (widening)
# --------------------------------------------------------------------- #

class _CounterIntervals(DataflowProblem):
    """Interval of variable ``i`` across ``i = <const>`` / ``i = i + 1``."""

    widen_after = 4

    def bottom(self):
        return Interval.EMPTY

    def initial(self):
        return Interval.EMPTY

    def join(self, a, b):
        return a.join(b)

    def widen(self, old, new):
        return old.widen(new)

    def transfer(self, node, state):
        stmt = node.stmt
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "i"):
            if isinstance(stmt.value, ast.Constant):
                return Interval(stmt.value.value, stmt.value.value)
            if isinstance(stmt.value, ast.BinOp):
                return state.shift(1)
        return state


class TestSolver:
    def test_loop_converges_with_widening(self):
        cfg = _cfg('''
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
        ''')
        problem = _CounterIntervals()
        result = solve(cfg, problem)
        # Terminates (would ascend forever without widening) in a
        # bounded number of node visits.
        assert result.iterations < len(cfg.nodes) * (problem.widen_after + 8)
        at_exit = result.input(cfg.exit)
        assert at_exit.lo == 0        # lower bound is stable and kept
        assert at_exit.hi is None     # upper bound widened to infinity

    def test_interval_lattice_ops(self):
        a = Interval(0, 3)
        b = Interval(2, 7)
        assert a.join(b) == Interval(0, 7)
        assert a.join(Interval.EMPTY) == a
        assert a.widen(Interval(0, 9)).hi is None
        assert a.widen(Interval(-1, 3)).lo is None
        assert a.shift(2) == Interval(2, 5)


# --------------------------------------------------------------------- #
# Lifecycle pass
# --------------------------------------------------------------------- #

LEAK_FIXTURE = '''
def leaks_on_every_path(fs, path):
    reader = fs.get_record_reader(path)       # LIFE001: never closed
    n = reader.count()
    return n

def leaks_on_exception_path(fs, path):
    writer = fs.create_writer(path)
    writer.write(b"x")                        # raises -> leak
    writer.close()

def rebinds_while_open(fs, paths):
    for path in paths:
        reader = fs.get_record_reader(path)   # LIFE002 + LIFE001
        consume(reader)
'''

CLEAN_FIXTURE = '''
def closed_in_finally(fs, path):
    writer = fs.create_writer(path)
    try:
        writer.write(b"x")
    finally:
        writer.close()

def managed_by_with(fs, path):
    with fs.create_writer(path) as writer:
        writer.write(b"x")

def rotation_guarded_by_none(fs, paths):
    writer = None
    try:
        for path in paths:
            if writer is not None:
                writer.close()
            writer = fs.create_writer(path)
            writer.write(b"x")
    finally:
        if writer is not None:
            writer.close()

def ownership_returned(fs, path):
    reader = fs.get_record_reader(path)
    return reader

def ownership_wrapped(fs, path):
    inner = fs.get_record_reader(path)
    return Wrapper(inner)

def ownership_stored(self, fs, path):
    self._writer = None
    writer = fs.create_writer(path)
    self._writer = writer
'''


class TestLifecyclePass:
    def run_pass(self, source):
        context = fixture_context("src/repro/storage/fixture.py", source)
        return LifecyclePass().run(context)

    def test_planted_leaks_are_found(self):
        findings = self.run_pass(LEAK_FIXTURE)
        by_func = {}
        for f in findings:
            by_func.setdefault(f.message.split(":")[0], []).append(f.code)
        assert "LIFE001" in by_func["leaks_on_every_path"]
        assert "LIFE001" in by_func["leaks_on_exception_path"]
        assert set(by_func["rebinds_while_open"]) == {"LIFE001", "LIFE002"}
        assert all(f.severity is Severity.ERROR for f in findings)
        exception_leak = next(f for f in findings
                              if "leaks_on_exception_path" in f.message)
        assert "exception path" in exception_leak.message

    def test_clean_patterns_not_flagged(self):
        assert self.run_pass(CLEAN_FIXTURE) == []

    def test_out_of_scope_module_ignored(self):
        context = fixture_context("src/repro/ssb/fixture.py", LEAK_FIXTURE)
        assert LifecyclePass().run(context) == []

    def test_interprocedural_close_helper_discharges(self):
        findings = self.run_pass('''
            def caller(fs, path):
                reader = fs.get_record_reader(path)
                finish(reader)

            def finish(r):
                r.count()
                r.close()
        ''')
        assert findings == []

    def test_borrowing_callee_keeps_obligation(self):
        findings = self.run_pass('''
            def caller(fs, path):
                reader = fs.get_record_reader(path)
                consume(reader)               # borrow: no close anywhere

            def consume(r):
                for row in r:
                    use(row)
        ''')
        assert [f.code for f in findings] == ["LIFE001"]


# --------------------------------------------------------------------- #
# Hotpath pass
# --------------------------------------------------------------------- #

HOT_FIXTURE = '''
class Kernel:
    def _map_block(self, block, out):
        add = out.append
        for i in range(block.num_rows):
            row = {"i": i}                    # HOT001: per-row dict
            out.append(row)                   # HOT002: direct append
            label = f"row-{i}"                # HOT003: f-string
            add(label)                        # prebound: allowed
            total = sum(x for x in block.col) # genexp: allowed
            self.helper(block)

    def helper(self, block):
        scratch = []                          # flagged: called per block loop
        return [v for v in block.col]         # returned: allowed
'''


class TestHotPathPass:
    def run_pass(self, source):
        context = fixture_context("src/repro/core/fixture.py", source)
        return HotPathPass().run(context)

    def test_planted_allocations_found(self):
        findings = self.run_pass(HOT_FIXTURE)
        codes = sorted(f.code for f in findings)
        assert codes == ["HOT001", "HOT001", "HOT002", "HOT003"]
        assert all(f.severity is Severity.ERROR for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "helper" in messages           # callee-of-loop rule

    def test_allow_alloc_annotation_suppresses(self):
        findings = self.run_pass('''
            class Kernel:
                def _map_block(self, block, out):
                    for i in range(block.num_rows):
                        row = {"i": i}        # analyze: allow-alloc
                        out.collect(row)
        ''')
        assert findings == []

    def test_def_level_annotation_covers_function(self):
        findings = self.run_pass('''
            class Kernel:
                def _map_block(self, block, out):  # analyze: allow-alloc
                    for i in range(block.num_rows):
                        out.append({"i": i})
        ''')
        assert findings == []

    def test_unreachable_function_not_flagged(self):
        findings = self.run_pass('''
            class Cold:
                def report(self):
                    return [f"{k}" for k in self.stats]
        ''')
        assert findings == []


# --------------------------------------------------------------------- #
# Plantypes pass
# --------------------------------------------------------------------- #

def _query(**overrides):
    spec = dict(
        name="Qfix", fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                             Comparison("d_year", "=", 1994))],
        aggregates=[Aggregate("sum", Col("lo_revenue"), alias="revenue")],
        group_by=["d_year"],
        order_by=[OrderKey("revenue", descending=True)])
    spec.update(overrides)
    return StarQuery(**spec)


QUERIES_STUB = '''
from repro.core.query import StarQuery

def q_fix():
    return StarQuery(name="Qfix", fact_table="lineorder",
                     joins=[], aggregates=[], group_by=[], order_by=[])
'''


class TestPlanTypePass:
    def run_pass(self, query):
        context = fixture_context("src/repro/ssb/queries.py", QUERIES_STUB)
        pass_ = PlanTypePass(load=lambda: ([query], SCHEMAS, FOREIGN_KEYS))
        return pass_.run(context)

    def test_well_typed_query_clean(self):
        assert self.run_pass(_query()) == []

    def test_unknown_table(self):
        findings = self.run_pass(_query(fact_table="lineitem"))
        assert [f.code for f in findings] == ["PLAN001"]

    def test_unknown_column_in_predicate(self):
        bad = _query(joins=[DimensionJoin(
            "date", "lo_orderdate", "d_datekey",
            Comparison("d_yearr", "=", 1994))])
        findings = self.run_pass(bad)
        assert [f.code for f in findings] == ["PLAN002"]
        assert "d_yearr" in findings[0].message

    def test_fk_pk_disagreement(self):
        bad = _query(joins=[DimensionJoin(
            "date", "lo_custkey", "d_datekey",
            Comparison("d_year", "=", 1994))])
        findings = self.run_pass(bad)
        assert "PLAN003" in [f.code for f in findings]

    def test_literal_type_mismatch(self):
        bad = _query(joins=[DimensionJoin(
            "date", "lo_orderdate", "d_datekey",
            Comparison("d_year", "=", "1994"))])  # string vs INT32
        findings = self.run_pass(bad)
        assert [f.code for f in findings] == ["PLAN004"]

    def test_aggregate_over_string_column(self):
        bad = _query(aggregates=[
            Aggregate("sum", Col("lo_shipmode"), alias="revenue")])
        findings = self.run_pass(bad)
        assert [f.code for f in findings] == ["PLAN005"]

    def test_orphan_group_key(self):
        bad = _query(group_by=["c_nation"])   # customer is not joined
        findings = self.run_pass(bad)
        assert [f.code for f in findings] == ["PLAN006"]

    def test_findings_anchor_to_builder_line(self):
        findings = self.run_pass(_query(fact_table="lineitem"))
        assert findings[0].path == "src/repro/ssb/queries.py"
        assert findings[0].line > 0           # the StarQuery(name=...) call

    def test_repo_queries_typecheck(self):
        from repro.analyze import find_repo_root, load_project
        context = load_project(find_repo_root())
        assert PlanTypePass().run(context) == []


# --------------------------------------------------------------------- #
# Satellites: dedupe/sort, github format, timings
# --------------------------------------------------------------------- #

class _CannedPass(AnalysisPass):
    pass_id = "canned"
    description = "test pass"

    def __init__(self, findings):
        self.findings = findings

    def run(self, context):
        return list(self.findings)


class TestSatellites:
    def test_analyzer_dedupes_and_sorts(self):
        f1 = Finding(path="b.py", line=2, code="X001", message="m",
                     pass_id="canned")
        f2 = Finding(path="a.py", line=9, code="X002", message="n",
                     pass_id="canned")
        analyzer = Analyzer([_CannedPass([f1, f2, f1])])
        out = analyzer.run(AnalysisContext(modules=[]))
        assert out == [f2, f1]                # sorted, duplicate dropped
        assert "canned" in analyzer.timings

    def test_render_github_annotations(self):
        f = Finding(path="src/x.py", line=7, code="LIFE001",
                    message="reader leaked", severity=Severity.ERROR)
        w = Finding(path="src/y.py", line=0, code="KEY002",
                    message="unused", severity=Severity.WARNING)
        out = render_github([f, w])
        assert "::error file=src/x.py,line=7::[LIFE001] reader leaked" in out
        assert "::warning file=src/y.py,line=1::[KEY002] unused" in out

    def test_cli_github_format_on_clean_repo(self, tmp_path, capsys):
        from repro.analyze.__main__ import main
        module = tmp_path / "src" / "repro" / "storage" / "fixture.py"
        module.parent.mkdir(parents=True)
        module.write_text(textwrap.dedent(CLEAN_FIXTURE))
        assert main(["--root", str(tmp_path), "--format", "github",
                     "--fail-on", "never"]) == 0
        assert capsys.readouterr().out.strip() == ""
        module.write_text(textwrap.dedent(LEAK_FIXTURE))
        assert main(["--root", str(tmp_path), "--format", "github",
                     "--fail-on", "never"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("::error file=src/repro/storage/fixture.py,")

    def test_planted_leak_is_a_gating_error(self):
        """check.sh gates on --fail-on=error; a planted leak must clear
        that bar (ERROR severity)."""
        context = fixture_context("src/repro/storage/fixture.py",
                                  LEAK_FIXTURE)
        findings = LifecyclePass().run(context)
        assert findings
        assert all(f.severity >= Severity.parse("error") for f in findings)
