#!/usr/bin/env bash
# Tier-1 verification: project static analysis, pyflakes (when
# available), the full test suite, and the end-to-end benchmark's smoke
# tests. Run from the repo root.
#
# The analyzer step runs every registered pass. To iterate on a single
# pass while developing, invoke it directly:
#   PYTHONPATH=src python -m repro.analyze --list-passes
#   PYTHONPATH=src python -m repro.analyze --only=locks,lockorder
# --update-baseline respects --only: it re-baselines just the selected
# passes and leaves other passes' suppressions untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.analyze =="
python -m repro.analyze --fail-on=error --timings \
    --baseline scripts/analyze_baseline.json

echo "== no deprecation shims =="
# The engine execute()/last_stats shims were the only warnings sites
# under src/repro; a shim must not come back unnoticed.
if grep -rn "warnings.warn\|DeprecationWarning" src/repro; then
    echo "a deprecation shim is back under src/repro (see above)"
    exit 1
fi

echo "== pyflakes =="
if python -c "import pyflakes" 2>/dev/null; then
    # Compare against the committed baseline so pre-existing noise does
    # not fail the build while new findings do. Stale baseline entries
    # (fixed findings nobody removed) fail too, so the baseline only
    # ever shrinks.
    pyflakes_out=$(python -m pyflakes src/ 2>&1 || true)
    baseline_file=scripts/pyflakes-baseline.txt
    new_findings=$(comm -23 <(sort -u <<<"$pyflakes_out" | sed '/^$/d') \
                            <(sort -u "$baseline_file"))
    stale_entries=$(comm -13 <(sort -u <<<"$pyflakes_out" | sed '/^$/d') \
                             <(sort -u "$baseline_file" | sed '/^$/d'))
    if [ -n "$new_findings" ]; then
        echo "new pyflakes findings (not in $baseline_file):"
        echo "$new_findings"
        exit 1
    fi
    if [ -n "$stale_entries" ]; then
        echo "stale entries in $baseline_file (no longer fire; remove them):"
        echo "$stale_entries"
        exit 1
    fi
    echo "pyflakes clean against baseline"
else
    echo "pyflakes not installed; skipping (analysis still ran above)"
fi

echo "== pytest =="
python -m pytest tests/ -q

echo "== benchmarks/e2e smoke =="
# The benchmark's own --quick tests: a rename of anything it imports
# from src/ fails here, not in the benchmark run.
python -m pytest -q benchmarks/e2e
