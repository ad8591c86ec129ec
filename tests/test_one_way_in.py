"""The gate: one way in, one home per knob.

``connect()`` -> (``Frontend`` -> worker ``connect()`` ->) ``Session`` ->
engine is the only line of descent, and ``Configuration`` the only
carrier of a serving knob. These checks fail if a shim, a second tracer
owner or a keyword/conf twin comes back — or if a route grows its own
copy of the reuse protocol, the planner or the run loop again — or if
the mapper grows a second block arm or the readers a second column form.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.api import connect
from repro.common.config import Configuration
from repro.common.keys import CONFIG_KEYS, LOCK_HIERARCHY
from repro.core.engine import ClydesdaleEngine
from repro.core.joinjob import StarJoinMapper
from repro.core.planner import ClydesdaleFeatures
from repro.hive.engine import HiveEngine
from repro.serve.frontend import Frontend
from repro.serve.session import Session

SRC = Path(repro.__file__).parent
DESIGN = SRC.parents[1] / "DESIGN.md"


def test_entry_points_stay_small():
    assert len(inspect.signature(connect).parameters) <= 8
    assert len(inspect.signature(Frontend.__init__).parameters) - 1 <= 6


@pytest.mark.parametrize("engine", [ClydesdaleEngine, HiveEngine])
def test_engines_have_no_second_entry_point_or_tracer(engine):
    for name in ("execute", "sql", "trace", "last_trace",
                 "_execute_impl", "_default_session"):
        assert not hasattr(engine, name), name
    init = inspect.signature(engine.__init__).parameters
    assert "trace" not in init
    assert "Tracer()" not in inspect.getsource(inspect.getmodule(engine))


def test_session_has_no_legacy_surface():
    for name in ("last_stats", "_legacy_execute", "_trace_enabled"):
        assert not hasattr(Session, name), name


def test_run_has_one_caller_outside_the_engines():
    # Every ``.run(`` under src/ that is not a JobRunner's or the
    # analyzer's own is an engine's; only Session._run_engine may call.
    callers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "analyze" not in path.parts
        for receiver in re.findall(r"([\w.]+)\.run\(", path.read_text())
        if not receiver.endswith("runner")}
    assert callers == {"serve/session.py"}
    assert inspect.getsource(Session._run_engine).count(".run(") == 2


def _occurrences(needle: str, *paths: Path) -> int:
    return sum(path.read_text().count(needle) for path in paths)


def test_one_reuse_protocol_for_every_route():
    serve = [path for path in (SRC / "serve").glob("*.py")
             if path.name != "aggstore.py"]
    assert _occurrences(".fetch(", *serve) == 1
    assert _occurrences(".admit(", *serve) == 1


def test_one_planner_and_one_runner_for_every_pass():
    core = list((SRC / "core").glob("*.py"))
    assert _occurrences("JobRunner(", SRC / "core" / "multipass.py") == 0
    assert _occurrences("_pass_conf", *core) == 0
    assert _occurrences("map_runner_class = MTMapRunner", *core) == 1
    assert _occurrences("CapacityScheduler()", *core) == 1


def test_one_block_kernel_over_one_column_handoff():
    # A Record takes process_record, a RowBlock takes _map_block: the
    # only switch is cif.block.iteration (the paper's Fig. 9 arm).
    assert [name for name in vars(StarJoinMapper)
            if name.startswith("_map_block")] == ["_map_block"]
    assert _occurrences("def evaluate_block",
                        SRC / "core" / "expressions.py") == 1
    assert [field.name for field in dataclasses.fields(
        ClydesdaleFeatures)] == ["columnar", "multithreaded",
                                 "block_iteration", "jvm_reuse"]
    sources = list(SRC.rglob("*.py"))
    for retired in ("clydesdale.vectorized", "cif.encoded.exec",
                    "cif.zonemap.filter", "zonemap", "can_match",
                    "last_prune_report"):
        assert _occurrences(retired, *sources) == 0, retired


def test_one_writer_for_the_node_local_dimension_copy():
    # A ``dim_cache_name(...)`` blob is written to node scratch by one
    # function under src/ and by nothing under examples/.
    from repro.ssb import loader
    namers = {path.relative_to(SRC).as_posix(): path.read_text()
              for path in SRC.rglob("*.py")
              if "dim_cache_name(" in path.read_text()}
    assert sorted(namers) == ["core/joinjob.py", "ssb/loader.py"]
    assert "scratch_write(" not in namers["core/joinjob.py"]
    writers = [name for name, fn in inspect.getmembers(
                   loader, inspect.isfunction)
               if fn.__module__ == loader.__name__
               and "scratch_write(" in inspect.getsource(fn)]
    assert writers == ["write_dim_cache"]
    examples = list((SRC.parents[1] / "examples").glob("*.py"))
    assert examples
    assert _occurrences("scratch_write(", *examples) == 0
    assert _occurrences("dim_cache_name", *examples) == 0


def test_registry_defaults_need_no_call_site_default():
    conf = Configuration()
    getters = {"int": conf.get_int, "float": conf.get_float,
               "bool": conf.get_bool}
    checked = 0
    for name, key in CONFIG_KEYS.items():
        if key.default is None or key.kind not in getters:
            continue
        assert getters[key.kind](name) == key.default, name
        checked += 1
    assert checked >= 20


def test_each_byte_budget_default_is_written_once():
    text = "".join(path.read_text() for path in SRC.rglob("*.py"))
    for mib in (128, 64, 32):
        assert len(re.findall(rf"\b{mib} \* 1024 \* 1024\b", text)) == 1, mib


def test_no_deprecation_shims_under_src():
    offenders = [path.relative_to(SRC).as_posix()
                 for path in sorted(SRC.rglob("*.py"))
                 if re.search(r"warnings\.warn|DeprecationWarning",
                              path.read_text())]
    assert offenders == []


def _rendered_default(key) -> str:
    if key.kind == "bool":
        return "on" if key.default else "off"
    if key.name.endswith("bytes"):
        return f"{key.default // (1024 * 1024)} MiB"
    return str(key.default)


def test_design_tables_are_the_registries():
    text = DESIGN.read_text()
    knobs = re.findall(r"^\| `(clydesdale\.[\w.]+)` \| ([^|]+) \|", text,
                       re.MULTILINE)
    registered = {
        name: _rendered_default(key) for name, key in CONFIG_KEYS.items()
        if name.startswith(("clydesdale.cache.", "clydesdale.serve."))
        or name == "clydesdale.trace"}
    assert sorted(name for name, _ in knobs) == sorted(registered)
    assert {name: shown.strip() for name, shown in knobs} == registered
    locks = re.findall(r"^ *\| `([\w.]+)` \(`[^`]+`\) \| (\d+) \|", text,
                       re.MULTILINE)
    assert locks == [(lock.name, str(lock.rank))
                     for lock in LOCK_HIERARCHY.values()]
