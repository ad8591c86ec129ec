#!/usr/bin/env bash
# Tier-1 verification: project static analysis, pyflakes (when
# available), the full test suite, and the end-to-end benchmark's smoke
# tests. Run from the repo root.
#
# The analyzer step runs every registered pass; a finding is suppressed
# only by an inline "# analyze: allow-*" annotation. To iterate on a
# single pass while developing, invoke it directly:
#   PYTHONPATH=src python -m repro.analyze --list-passes
#   PYTHONPATH=src python -m repro.analyze --only=locks,keys
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.analyze =="
python -m repro.analyze --fail-on=error --timings

echo "== no deprecation shims =="
# The engine execute()/last_stats shims were the only warnings sites
# under src/repro; a shim must not come back unnoticed.
if grep -rn "warnings.warn\|DeprecationWarning" src/repro; then
    echo "a deprecation shim is back under src/repro (see above)"
    exit 1
fi

echo "== pyflakes =="
if python -c "import pyflakes" 2>/dev/null; then
    # Any finding fails the build.
    python -m pyflakes src/
    echo "pyflakes clean"
else
    echo "pyflakes not installed; skipping (analysis still ran above)"
fi

echo "== pytest =="
python -m pytest tests/ -q

echo "== benchmarks/e2e smoke =="
# The benchmark's own --quick tests: a rename of anything it imports
# from src/ fails here, not in the benchmark run.
python -m pytest -q benchmarks/e2e
