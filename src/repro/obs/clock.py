"""The sanctioned monotonic clock for instrumented code.

No impure effect may be reachable from the planner modules
(``repro.core.decomposition``, ``repro.core.optimizer``,
``repro.core.exec.plan``; REP109).  Tracing still needs timestamps,
so this function is the single carve-out: :func:`now` reads the monotonic
clock on a line carrying the ``# effect-exempt: clock`` directive honored by
the effect-inference pass (:mod:`repro.analysis.semantic.effects`).  Any
other clock read reachable from a planner entry point remains a REP109
finding, so instrumentation that bypasses this wrapper still fails lint.
"""

from __future__ import annotations

import time

__all__ = ["now"]


def now() -> float:
    """Seconds on the high-resolution monotonic clock.

    On Linux this is ``CLOCK_MONOTONIC``, which is system-wide, so worker
    *processes* produce timestamps comparable with the parent's; the span
    stitcher still clamps them into the enclosing span's window in case a
    platform uses a per-process clock.
    """
    return time.perf_counter()  # effect-exempt: clock
