"""``repro.api.connect`` — the one way to open a query session.

Pick a backend, get a :class:`~repro.serve.session.Session` whose
``execute``/``explain``/``sql`` signatures are identical regardless of
what runs underneath::

    from repro.api import connect

    session = connect("clydesdale")                   # SF 0.01, seed 42
    result = session.execute(ssb_queries()["Q2.1"])   # cold: builds
    result = session.execute(ssb_queries()["Q2.1"])   # warm: cache hit

Backend-specific execution options are fixed at connect time
(``features=`` for Clydesdale, ``plan=`` for Hive); every serving knob —
``clydesdale.cache.*``, ``clydesdale.serve.*``, ``clydesdale.trace`` —
travels in one :class:`~repro.common.config.Configuration`, whose
defaults live in :data:`repro.common.keys.CONFIG_KEYS`; any other key
raises :class:`~repro.common.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Any

from repro.common.config import Configuration, check_session_conf
from repro.common.errors import ValidationError
from repro.common.keys import (
    KEY_CACHE_ENABLED,
    KEY_CACHE_HT_BYTES,
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_AGGSTORE_BYTES,
    KEY_SERVE_WORKERS,
    KEY_TRACE,
)
from repro.serve.aggstore import AggStore
from repro.serve.cache import HashTableCache
from repro.serve.session import BACKENDS, Session


def connect(backend: str = "clydesdale", *,
            data: Any | None = None,
            conf: Configuration | None = None,
            workers: int | None = None,
            aggstore: bool | None = None,
            features: Any | None = None,
            plan: str | None = None,
            name: str = "session") -> Any:
    """Open a :class:`Session` on a freshly-loaded backend.

    ``backend`` is ``"clydesdale"`` (the paper's engine), ``"hive"``
    (the baseline), or ``"reference"`` (single-process correctness
    oracle). ``data`` reuses an existing
    :class:`~repro.ssb.datagen.SSBData` instead of generating the
    default one (SF 0.01, seed 42); ``features``/``plan`` fix the
    backend-specific execution options. ``conf`` carries every serving
    knob: the hash-table cache (``clydesdale.cache.*``), the
    materialized aggregate store (``clydesdale.serve.aggstore.*`` — it
    rides the hash-table cache, so disabling the cache turns both off,
    and the reference oracle never caches) and the session's default
    for ``execute(trace=...)`` (``clydesdale.trace``). ``aggstore`` is
    shorthand for ``clydesdale.serve.aggstore.enabled``.

    ``workers=N`` scales the session out instead: a
    :class:`~repro.serve.frontend.Frontend` spawns ``N`` worker
    *processes* (``clydesdale.serve.workers.count``), each opening its
    own session from this same ``conf``, with warm-shard routing, a
    frontend result cache and admission control
    (``clydesdale.serve.*``); the return value is a
    :class:`~repro.serve.frontend.FrontendSession` with the same
    ``execute``/``sql``/``explain``/``reload_catalog`` surface.
    """
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    conf = conf.copy() if conf is not None else Configuration()
    check_session_conf(conf)
    if aggstore is not None:
        conf.set(KEY_SERVE_AGGSTORE, aggstore)
    if workers is not None:
        conf.set(KEY_SERVE_WORKERS, workers)
        from repro.serve.frontend import Frontend
        return Frontend(backend=backend, data=data, conf=conf,
                        features=features, plan=plan).session(name)

    def build(base_data: Any | None) -> Any:
        if base_data is None:
            from repro.ssb.datagen import SSBGenerator
            base_data = SSBGenerator().generate()
        if backend == "clydesdale":
            from repro.core.engine import ClydesdaleEngine
            return ClydesdaleEngine.with_ssb_data(features=features,
                                                  data=base_data)
        if backend == "hive":
            from repro.hive.engine import HiveEngine
            return HiveEngine.with_ssb_data(
                data=base_data,
                **({"default_plan": plan} if plan else {}))
        from repro.reference.engine import ReferenceEngine
        return ReferenceEngine.from_ssb(base_data)

    # The reference engine keeps no node-resident state worth caching,
    # and the aggregate store rides the hash-table cache.
    cached = conf.get_bool(KEY_CACHE_ENABLED) and backend != "reference"
    ht_cache = (HashTableCache(conf.get_int(KEY_CACHE_HT_BYTES))
                if cached else None)
    store = (AggStore(conf.get_int(KEY_SERVE_AGGSTORE_BYTES))
             if cached and conf.get_bool(KEY_SERVE_AGGSTORE) else None)
    return Session(build(data), cache=ht_cache, aggstore=store,
                   trace=conf.get_bool(KEY_TRACE), features=features,
                   plan=plan, name=name, rebuild=build)
