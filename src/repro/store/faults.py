"""Crash-fault injection points for the recovery test harness.

A real crash can land between any two writes; the recovery suite needs
to *choose* where.  A fault point is armed through the environment —

    REPRO_FAULT=<point>[:<n>]

— and the ``n``-th time execution reaches ``fault_point(<point>)`` the
process SIGKILLs itself: no ``atexit``, no buffered-file flush, exactly
the power-cut semantics the WAL must survive.  The variable is read
once, when this module is imported; with it unset every fault point is
one string comparison.  A malformed ``n`` raises ``ValueError`` at the
first hit of the named point.

Points wired into the store/server:

* ``wal_append``  — between the append log's frame header and payload
  writes (a genuinely torn record on disk);
* ``snapshot``    — between writing the snapshot tmp file and renaming
  it over the latest one;
* ``apply``       — after a trip is journaled but before any server
  state mutates (mid-batch crash).
"""

from __future__ import annotations

import os
import signal
from typing import Dict

__all__ = ["ENV_VAR", "fault_point", "faults_armed"]

ENV_VAR = "REPRO_FAULT"

#: The spec this process was started with.  Unarmed, it is "", and no
#: fault point is named "", so none matches.
_SPEC = os.environ.get(ENV_VAR, "")
_ARMED, _, _COUNT = _SPEC.partition(":")

#: Hits per fault point (process-local; the point fires on the n-th hit).
_hits: Dict[str, int] = {}


def faults_armed(name: str) -> bool:
    """Whether ``name`` is the armed fault point of this process."""
    return name == _ARMED


def fault_point(name: str) -> None:
    """Die here (SIGKILL) if this is the armed fault point's n-th hit."""
    if name != _ARMED:
        return
    try:
        threshold = int(_COUNT) if _COUNT else 1
    except ValueError:
        raise ValueError(f"malformed {ENV_VAR} spec {_SPEC!r}") from None
    hits = _hits.get(name, 0) + 1
    _hits[name] = hits
    if hits >= threshold:
        os.kill(os.getpid(), signal.SIGKILL)

