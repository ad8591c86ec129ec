"""CLI: ``python -m repro.analyze [--fail-on=error] [--format=text]``.

``--list-passes`` enumerates the suite; ``--only=locks,keys`` runs a
subset. Findings are suppressed only by inline ``# analyze: allow-*``
annotations.

Exit codes: 0 — no finding at or above the fail threshold; 1 — at
least one such finding; 2 — usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analyze import (Analyzer, Severity, default_passes,
                           find_repo_root, load_project, render_github,
                           render_json, render_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Run the project's static-analysis pass suite.")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root to analyze (default: auto-detected checkout)")
    parser.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit 1 when a finding is at least this severe: "
             "note, warning, error, or 'never' (default: error)")
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format; 'github' emits workflow annotations "
             "(default: text)")
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-pass wall time to stderr")
    parser.add_argument(
        "--only", default=None, metavar="PASS[,PASS]",
        help="run only these passes (comma-separated pass ids; see "
             "--list-passes)")
    parser.add_argument(
        "--list-passes", action="store_true",
        help="list the available pass ids and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    passes = default_passes()
    if args.list_passes:
        width = max(len(p.pass_id) for p in passes)
        for p in passes:
            print(f"{p.pass_id:<{width}}  {p.description}")
        return 0
    if args.only is not None:
        only = {name.strip() for name in args.only.split(",")
                if name.strip()}
        known = {p.pass_id for p in passes}
        unknown = sorted(only - known)
        if unknown or not only:
            print(f"error: unknown pass id(s) "
                  f"{', '.join(unknown) or '(none given)'}; choose from "
                  f"{', '.join(sorted(known))}", file=sys.stderr)
            return 2
        passes = [p for p in passes if p.pass_id in only]
    if args.fail_on == "never":
        threshold = None
    else:
        try:
            threshold = Severity.parse(args.fail_on)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    root = args.root if args.root is not None else find_repo_root()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} does not look like a repo checkout "
              f"(no src/repro/)", file=sys.stderr)
        return 2

    context = load_project(root)
    analyzer = Analyzer(passes)
    findings = analyzer.run(context)

    if args.timings:
        for pass_id, seconds in sorted(analyzer.timings.items(),
                                       key=lambda kv: -kv[1]):
            print(f"repro.analyze: pass {pass_id:<10} {seconds * 1000:8.1f} ms",
                  file=sys.stderr)

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "github":
        if findings:
            print(render_github(findings))
    elif findings:
        print(render_text(findings))
    n_errors = sum(1 for f in findings if f.severity >= Severity.ERROR)
    n_warnings = sum(1 for f in findings if f.severity == Severity.WARNING)
    if args.format == "text":
        print(f"repro.analyze: {len(context.modules)} files, "
              f"{len(findings)} finding(s) "
              f"({n_errors} error(s), {n_warnings} warning(s))")

    if threshold is not None and any(f.severity >= threshold
                                     for f in findings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
