"""Project-specific static analysis and runtime sanitizers.

``python -m repro.analyze`` runs six passes over ``src/repro``
(``--list-passes`` enumerates them, ``--only=<pass>[,<pass>]`` runs a
subset):

* :mod:`repro.analyze.locks` (``locks``) — interprocedural lockset
  dataflow over the code reachable from thread entry points: unlocked
  writes to module globals (RACE001), closure variables or module
  globals mutated with no lock held (RACE003), fields accessed under
  inconsistent locksets (RACE101), ``self`` fields written with no lock
  held (RACE102), explicitly acquired locks that leak through early
  returns or exception paths (RACE103), acquisition-order cycles
  (LOCK001) and nested acquisitions against the hierarchy declared in
  :data:`repro.common.keys.LOCK_HIERARCHY` (LOCK002);
* :mod:`repro.analyze.registry` (``keys``) — config keys, counters and
  feature flags must be registered in :mod:`repro.common.keys`, and
  every flag needs a default and a DESIGN.md mention;
* :mod:`repro.analyze.contracts` — public APIs raise repro error types
  and never swallow exceptions;
* :mod:`repro.analyze.lifecycle` — readers/writers must reach
  ``close()`` on every control-flow path, including exception edges
  (CFG + fixpoint dataflow);
* :mod:`repro.analyze.hotpath` — no per-row allocation in functions
  reachable from the vectorized block kernels;
* :mod:`repro.analyze.plantypes` — the SSB workload typechecks against
  the catalog (tables, columns, join keys, literals, aggregates).

A deliberate exception is suppressed inline, on the flagged line or the
``def`` line (``# analyze: allow-unlocked``, ``# analyze:
allow-alloc``); there is no suppression file.

The dataflow-backed passes are built on :mod:`repro.analyze.cfg`
(per-function control-flow graphs), :mod:`repro.analyze.dataflow`
(worklist fixpoint solver), and :mod:`repro.analyze.callgraph`
(project call graph).

:mod:`repro.analyze.sanitizer` is the runtime half: hash-table freeze
proxies enabled by the ``clydesdale.sanitizer`` flag, plus the
lock-discipline wrappers (:class:`~repro.analyze.sanitizer.
TrackedRLock`, :func:`~repro.analyze.sanitizer.guard_fields`) that
enforce the declared acquisition order and guarded-field access at
runtime in tests.
"""

from repro.analyze.findings import (Finding, Severity, render_github,
                                    render_json, render_text)
from repro.analyze.framework import (AnalysisContext, AnalysisPass, Analyzer,
                                     SourceModule, find_repo_root,
                                     load_project)


def default_passes():
    """The standard pass suite, instantiated fresh."""
    from repro.analyze.contracts import ExceptionContractPass
    from repro.analyze.hotpath import HotPathPass
    from repro.analyze.lifecycle import LifecyclePass
    from repro.analyze.locks import LockDisciplinePass
    from repro.analyze.plantypes import PlanTypePass
    from repro.analyze.registry import StringKeyRegistryPass
    return [LockDisciplinePass(), StringKeyRegistryPass(),
            ExceptionContractPass(), LifecyclePass(), HotPathPass(),
            PlanTypePass()]


__all__ = [
    "AnalysisContext", "AnalysisPass", "Analyzer", "Finding",
    "Severity", "SourceModule", "default_passes", "find_repo_root",
    "load_project", "render_github", "render_json", "render_text",
]
