"""Persistent storage tier for the serving layer (warm restarts).

The in-memory :class:`~repro.service.cache.IndexCache` amortizes the paper's
per-query overhead (minimal DFA, safety analysis, transition matrices —
Fig. 13a/b) across requests, but dies with the process.  This package adds
the disk tier underneath it:

* :mod:`repro.store.codec` — strict JSON (de)serialization of safety
  reports, query-index transition tables, and decomposition plans with their
  macro DFAs;
* :mod:`repro.store.store` — :class:`IndexStore`, a versioned, checksummed,
  atomically-written directory of those artifacts plus the service's labeled
  run registry, with LRU garbage collection down to an explicit size budget
  (``repro store gc --max-bytes``).

Wire-up: ``QueryService(store_dir=path)`` builds its cache as
``IndexCache(max_entries, store=IndexStore(path))``, which checks memory →
disk → build and writes built entries back, and persists registered runs in
the same store, so a restarted service answers previously-seen queries with
zero index/plan rebuilds (see ``repro store`` and the ``store-restart-warm``
catalog scenario).
"""

from repro.store.store import (
    FORMAT_VERSION,
    EntryInfo,
    GcResult,
    IndexStore,
    StoreCounters,
    StoredEntry,
)

__all__ = [
    "FORMAT_VERSION",
    "EntryInfo",
    "GcResult",
    "IndexStore",
    "StoreCounters",
    "StoredEntry",
]
