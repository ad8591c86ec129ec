"""The serving layer: sessions, the generation-stamped stores (hash
tables, results, aggregates), and the multi-worker frontend.

Import from here (or use :func:`repro.api.connect`):

>>> from repro.serve import Session, HashTableCache, Frontend

Submodules load lazily so ``repro.core`` can reach
``repro.serve.cache`` without a circular import.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AggStore",
    "AggStoreStats",
    "BACKENDS",
    "CacheStats",
    "ExplainReport",
    "Frontend",
    "FrontendSession",
    "FrontendStats",
    "HashTableCache",
    "Provenance",
    "ResultCache",
    "ResultCacheStats",
    "Session",
    "SessionStats",
    "ShapeRouter",
    "WorkerHandle",
    "backend_name",
    "query_shape",
    "result_key",
]

_EXPORTS = {
    "AggStore": ("repro.serve.aggstore", "AggStore"),
    "AggStoreStats": ("repro.serve.aggstore", "AggStoreStats"),
    "BACKENDS": ("repro.serve.session", "BACKENDS"),
    "CacheStats": ("repro.serve.cache", "CacheStats"),
    "ExplainReport": ("repro.serve.session", "ExplainReport"),
    "Frontend": ("repro.serve.frontend", "Frontend"),
    "FrontendSession": ("repro.serve.frontend", "FrontendSession"),
    "FrontendStats": ("repro.serve.frontend", "FrontendStats"),
    "HashTableCache": ("repro.serve.cache", "HashTableCache"),
    "Provenance": ("repro.serve.aggstore", "Provenance"),
    "ResultCache": ("repro.serve.cache", "ResultCache"),
    "ResultCacheStats": ("repro.serve.cache", "ResultCacheStats"),
    "Session": ("repro.serve.session", "Session"),
    "SessionStats": ("repro.serve.session", "SessionStats"),
    "ShapeRouter": ("repro.serve.routing", "ShapeRouter"),
    "WorkerHandle": ("repro.serve.worker", "WorkerHandle"),
    "backend_name": ("repro.serve.session", "backend_name"),
    "query_shape": ("repro.serve.routing", "query_shape"),
    "result_key": ("repro.serve.routing", "result_key"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(__all__)
