"""The one place a ranked lock is constructed.

Every long-lived lock in the serving layer is declared with a rank in
:data:`repro.common.keys.LOCK_HIERARCHY` and guards a fixed set of its
owner's fields.  ``sanitize=True`` turns both declarations into runtime
checks; production code pays for neither.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable


def guarded_lock(owner: Any, name: str, fields: Iterable[str],
                 sanitize: bool):
    """The reentrant lock ``name`` guarding ``fields`` of ``owner``.

    Call it last in ``__init__`` (guarded fields reject writes made
    without the lock from then on).  With ``sanitize`` the lock is a
    rank-checking :class:`~repro.analyze.sanitizer.TrackedRLock` and
    ``owner`` is re-classed by
    :func:`~repro.analyze.sanitizer.guard_fields`; otherwise it is a
    plain ``threading.RLock``.  The static lock model treats this call
    as a lock constructor.
    """
    if not sanitize:
        return threading.RLock()
    # Dev-tool layer, imported only when the sanitizer is on.
    from repro.analyze.sanitizer import TrackedRLock, guard_fields
    lock = TrackedRLock(name)
    guard_fields(owner, lock, fields)
    return lock
