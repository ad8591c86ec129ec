"""Result types for the analytic timing models."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageTime:
    """One stage of a modeled multi-stage plan."""

    name: str
    seconds: float
    detail: dict[str, float] = field(default_factory=dict)


@dataclass
class ModelResult:
    """Predicted execution of one query by one engine at the modeled SF."""

    engine: str
    query_name: str
    cluster: str
    seconds: float | None          # None when the plan fails (OOM)
    oom: bool = False
    failed_stage: str | None = None
    stages: list[StageTime] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return not self.oom and self.seconds is not None

    def breakdown(self) -> dict[str, float]:
        return {s.name: s.seconds for s in self.stages}
