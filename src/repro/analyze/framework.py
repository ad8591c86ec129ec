"""The pass framework: source loading, pass protocol, runner.

An :class:`AnalysisPass` sees the whole project at once through an
:class:`AnalysisContext` — parsed modules plus project-level artifacts
(``DESIGN.md`` text) — so passes can do cross-module checks (the
string-key registry lint correlates every call site against
``repro.common.keys``). Modules parse once, up front; a file that does
not parse is itself a finding, not a crash.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass
from pathlib import Path

from repro.analyze.findings import Finding, Severity


@dataclass
class SourceModule:
    """One parsed source file."""

    path: str                      # repo-relative, slash-separated
    text: str
    tree: ast.Module | None = None
    parse_error: str | None = None

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceModule":
        try:
            return cls(path=path, text=text, tree=ast.parse(text))
        except SyntaxError as exc:
            return cls(path=path, text=text, tree=None,
                       parse_error=f"{exc.msg} (line {exc.lineno})")


@dataclass
class AnalysisContext:
    """Everything a pass may inspect."""

    modules: list[SourceModule]
    root: Path | None = None       # repo root, when analyzing a checkout
    design_text: str = ""          # contents of DESIGN.md, if present

    def module(self, suffix: str) -> SourceModule | None:
        """The module whose path ends with ``suffix`` (slash-separated)."""
        for mod in self.modules:
            if mod.path.endswith(suffix):
                return mod
        return None


class AnalysisPass:
    """Base class: subclasses set ``pass_id``/``description``, implement
    :meth:`run`."""

    pass_id: str = ""
    description: str = ""

    def run(self, context: AnalysisContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST | None,
                code: str, message: str,
                severity: Severity = Severity.ERROR) -> Finding:
        line = getattr(node, "lineno", 0) if node is not None else 0
        return Finding(path=module.path, line=line, code=code,
                       message=message, severity=severity,
                       pass_id=self.pass_id)


def load_project(root: Path, package: str = "src/repro") -> AnalysisContext:
    """Parse every ``.py`` file under ``root/package`` plus DESIGN.md."""
    package_dir = root / package
    modules = [
        SourceModule.from_text(
            str(path.relative_to(root)).replace("\\", "/"),
            path.read_text())
        for path in sorted(package_dir.rglob("*.py"))]
    design = root / "DESIGN.md"
    return AnalysisContext(
        modules=modules, root=root,
        design_text=design.read_text() if design.exists() else "")


def find_repo_root() -> Path:
    """Locate the checkout containing the installed ``repro`` package.

    Walks up from the package directory looking for ``DESIGN.md`` next
    to a ``src/`` layout; falls back to the current directory.
    """
    import repro
    package_dir = Path(repro.__file__).resolve().parent
    for candidate in package_dir.parents:
        if (candidate / "DESIGN.md").exists() and (candidate / "src").is_dir():
            return candidate
    return Path.cwd()


def _finding_order(f: Finding) -> tuple:
    """Deterministic (pass, path, line, code, message) ordering so CLI
    output never depends on pass internals."""
    return (f.pass_id, f.path, f.line, f.code, f.message)


class Analyzer:
    """Runs a set of passes over a context.

    After :meth:`run`, ``timings`` holds seconds per pass (keyed by
    pass_id).
    """

    def __init__(self, passes: list[AnalysisPass]):
        self.passes = passes
        self.timings: dict[str, float] = {}

    def run(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for mod in context.modules:
            if mod.parse_error is not None:
                findings.append(Finding(
                    path=mod.path, line=0, code="PARSE001",
                    message=f"file does not parse: {mod.parse_error}",
                    severity=Severity.ERROR, pass_id="framework"))
        self.timings = {}
        for analysis_pass in self.passes:
            started = time.perf_counter()
            findings.extend(analysis_pass.run(context))
            self.timings[analysis_pass.pass_id] = (
                time.perf_counter() - started)
        deduped = {_finding_order(f): f for f in findings}
        return [deduped[k] for k in sorted(deduped)]
