"""The finding model shared by every analysis pass.

A :class:`Finding` is one diagnosed violation: which pass produced it,
how severe it is, where it lives, and a stable ``code`` (e.g.
``RACE001``) tests can key on. Findings are value objects — ordering
never depends on object identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from typing import Iterable


class Severity(IntEnum):
    """Ordered so ``>=`` comparisons implement ``--fail-on``."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}; expected one of "
                             f"{[s.name.lower() for s in cls]}") from None


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnosed violation."""

    path: str            # repo-relative path of the offending file
    line: int            # 1-based line number (0 = whole file)
    code: str            # stable finding code, e.g. "RACE001"
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)
    pass_id: str = field(default="", compare=False)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = self.severity.name.lower()
        return data


def render_text(findings: Iterable[Finding]) -> str:
    lines = []
    for f in sorted(findings):
        lines.append(f"{f.path}:{f.line}: {f.severity.name.lower()} "
                     f"[{f.code}] {f.message}")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    return json.dumps({"findings": [f.to_dict() for f in sorted(findings)]},
                      indent=2, sort_keys=True)


_GITHUB_LEVELS = {Severity.NOTE: "notice", Severity.WARNING: "warning",
                  Severity.ERROR: "error"}


def render_github(findings: Iterable[Finding]) -> str:
    """GitHub Actions workflow annotations (``::error file=...``)."""
    lines = []
    for f in sorted(findings):
        # Annotation messages must keep to one line; %0A is the escape.
        message = f"[{f.code}] {f.message}".replace("%", "%25") \
            .replace("\r", "%0D").replace("\n", "%0A")
        lines.append(f"::{_GITHUB_LEVELS[f.severity]} file={f.path},"
                     f"line={max(f.line, 1)}::{message}")
    return "\n".join(lines)
