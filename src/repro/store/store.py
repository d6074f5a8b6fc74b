"""The persistent index store: a disk tier under the in-memory cache.

An :class:`IndexStore` keeps everything the cache layer computes — safety
reports, query indexes, decomposition plans (with macro DFAs), and registered
labeled runs — in a directory of versioned, checksummed JSON files:

.. code-block:: text

    <root>/
        entries/<fingerprint[:16]>/<sha256(query)[:32]>.json
        runs/<quoted run id>.json

Entries are keyed exactly like :class:`~repro.service.cache.IndexCache`:
``(specification fingerprint, canonical query text)``, so anything one
process builds is a disk hit for every later process (or instance) serving
the same grammar.  Each file is a small envelope whose payload —
``{"report": ..., "index": ..., "plan": ...}`` for entries, the serialized
run for runs — travels as one compressed blob, and every write is atomic (temp file in the same directory + ``os.replace``),
so readers never observe a half-written artifact even under concurrent
writers or a crash mid-write.

.. code-block:: json

    {"format": 3, "kind": "store-entry", "fingerprint": "...",
     "query": "...", "checksum": "sha256 of the canonical payload JSON",
     "payload64": "base64(zlib(canonical payload JSON))"}

The payload is stored deflated (entry JSON is highly redundant; with the
pooled, packed matrix encoding of :mod:`repro.store.codec` entries shrink
5-10x).  The checksum is taken over the inflated bytes themselves, which
are the writer's canonical JSON, so a load verifies it without re-encoding
the payload.  Run envelopes carry their specification fingerprint so
``gc_orphans`` never has to reconstruct a run.  The only coordination
between writers is content addressing: an entry's content is fixed by its
key, so ``save`` skips rewriting an artifact whose on-disk payload checksum
already matches, and two processes that race on one key at worst build it
twice and write the same bytes.  The store holds no lock files.

The read path *never raises for bad data*: a missing file is a miss, and a
truncated file, checksum mismatch, format-version bump, foreign fingerprint
or any decode failure is counted in ``errors`` and reported as a miss, which
makes the caller rebuild (and overwrite) cleanly.  Loads touch the file's
mtime, which is what the size-budgeted ``gc`` uses as its LRU clock.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil
import tempfile
import threading
import urllib.parse
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.decomposition import DecompositionPlan
from repro.core.query_index import QueryIndex
from repro.core.safety import SafetyReport
from repro.errors import StoreError
from repro.obs import get_tracer
from repro.store.codec import entry_from_payload, entry_to_payload
from repro.workflow.run import Run
from repro.workflow.serialization import run_from_dict, run_to_dict
from repro.workflow.spec import Specification

__all__ = ["FORMAT_VERSION", "EntryInfo", "GcResult", "IndexStore", "StoreCounters", "StoredEntry"]

#: Format 3 stores each distinct matrix of an entry once (the codec's matrix
#: pool) and runs with their topological order, with labels that number
#: cycles independently of the string hash seed.  Artifacts of an older
#: format fail the version check: an entry degrades to a counted miss and a
#: clean rebuild, a run to a counted error (it must be registered again).
FORMAT_VERSION = 3

_ENTRY_KIND = "store-entry"
_RUN_KIND = "store-run"

@dataclass(frozen=True)
class StoredEntry:
    """One reconstructed cache entry (what :meth:`IndexStore.load` returns)."""

    report: SafetyReport
    index: QueryIndex | None
    plan: DecompositionPlan | None


@dataclass(frozen=True)
class StoreCounters:
    """Per-process effectiveness counters of one store instance.

    ``skipped_writes`` counts content-addressed saves: the artifact on disk
    already carried the same payload checksum, so the write — and the
    fsync — was elided.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    evictions: int = 0
    skipped_writes: int = 0


@dataclass(frozen=True)
class EntryInfo:
    """Metadata of one stored entry file (for ``repro store ls`` and gc)."""

    fingerprint: str
    query: str
    path: Path
    bytes: int
    mtime: float
    is_safe: bool
    has_plan: bool


@dataclass(frozen=True)
class GcResult:
    """What one garbage-collection sweep removed."""

    removed: int
    freed_bytes: int
    remaining_bytes: int


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Any) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _encode_payload(payload: Any) -> str:
    """The format-2 payload blob: canonical JSON, zlib-deflated, base64.

    Entry payloads are highly redundant JSON (repeated keys, row tables);
    deflate cuts them 5-10x on top of the packed matrix encoding, which is
    where the bulk of the format-2 size win comes from.
    """
    return base64.b64encode(
        zlib.compress(_canonical_json(payload).encode("utf-8"), 6)
    ).decode("ascii")


def _payload_bytes(blob: Any) -> bytes:
    """The inflated payload blob: the canonical JSON the writer hashed."""
    if not isinstance(blob, str):
        raise StoreError("artifact payload blob is not a string")
    return zlib.decompress(base64.b64decode(blob.encode("ascii")))


def _decode_payload(blob: Any) -> Any:
    return json.loads(_payload_bytes(blob))


def _atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename, fsync'd, so a crash leaves
    either the old artifact or the new one — never a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class IndexStore:
    """A directory-backed store of cache entries and registered runs.

    Parameters
    ----------
    root:
        The store directory; created (with its subdirectories) on first use.
        The entry tier grows until :meth:`gc` trims it to a size budget.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # Directories are created lazily by the first write (_atomic_write
        # mkdirs parents), so read-only users — `repro store ls` on a
        # mistyped path, say — never litter the filesystem with empty stores.
        self._entries_dir = self.root / "entries"
        self._runs_dir = self.root / "runs"
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._writes = 0  # guarded-by: _lock
        self._errors = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._skipped_writes = 0  # guarded-by: _lock

    # -- paths -------------------------------------------------------------------

    def entry_path(self, fingerprint: str, query_text: str) -> Path:
        """Where the entry of one cache key lives (whether or not it exists)."""
        digest = hashlib.sha256(query_text.encode("utf-8")).hexdigest()[:32]
        return self._entries_dir / fingerprint[:16] / f"{digest}.json"

    def run_path(self, run_id: str) -> Path:
        return self._runs_dir / f"{urllib.parse.quote(run_id, safe='')}.json"

    # -- entries -----------------------------------------------------------------

    def load(self, spec: Specification, query_text: str) -> StoredEntry | None:
        """Load one entry, or ``None`` on a miss *or* any corruption."""
        path = self.entry_path(spec.fingerprint, query_text)
        with get_tracer().span("store.load") as span:
            span.set("hit", False)
            try:
                raw = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                self._count("_misses")
                return None
            except OSError:
                self._count("_errors")
                self._count("_misses")
                return None
            try:
                envelope = json.loads(raw)
                payload = self._open_envelope(
                    envelope, _ENTRY_KIND, fingerprint=spec.fingerprint, query=query_text
                )
                report, index, plan = entry_from_payload(spec, payload)
            except Exception:
                # Truncation, bad checksum, version bump, decode bug: degrade to
                # a rebuild, never a crash.
                self._count("_errors")
                self._count("_misses")
                return None
            self._touch(path)
            self._count("_hits")
            span.set("hit", True)
            span.set("bytes", len(raw))
            return StoredEntry(report=report, index=index, plan=plan)

    def save(
        self,
        fingerprint: str,
        query_text: str,
        *,
        report: SafetyReport,
        index: QueryIndex | None,
        plan: DecompositionPlan | None,
    ) -> bool:
        """Persist (or overwrite) one entry atomically; returns success.

        Content-addressed: when the file already on disk carries the same
        payload checksum the write is skipped (and counted), so concurrent
        writers on a shared volume re-saving identical artifacts — the
        common case, since the cache key determines the content — cost one
        small read instead of a write + fsync each.

        Failures — a full disk, a read-only volume, a serialization bug —
        are counted and swallowed: persistence is an optimization, and the
        in-memory tier keeps serving either way.
        """
        with get_tracer().span("store.save") as span:
            try:
                payload = entry_to_payload(report, index, plan)
                checksum = _checksum(payload)
                path = self.entry_path(fingerprint, query_text)
                if self._existing_checksum(path) == checksum:
                    self._count("_skipped_writes")
                    span.set("skipped", True)
                    return True
                envelope = {
                    "format": FORMAT_VERSION,
                    "kind": _ENTRY_KIND,
                    "fingerprint": fingerprint,
                    "query": query_text,
                    "checksum": checksum,
                    "payload64": _encode_payload(payload),
                }
                _atomic_write(path, json.dumps(envelope))
            except Exception:
                self._count("_errors")
                return False
            self._count("_writes")
            return True

    def _existing_checksum(self, path: Path) -> str | None:
        """The *verified* payload checksum of an on-disk artifact, or
        ``None`` when the file is absent, unreadable, of another format, or
        lying about its payload (a corrupted payload under an intact
        checksum field must not suppress the overwrite that repairs it)."""
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if envelope.get("format") != FORMAT_VERSION:
                return None
            checksum = envelope.get("checksum")
            if not isinstance(checksum, str):
                return None
            raw = _payload_bytes(envelope.get("payload64"))
            return checksum if hashlib.sha256(raw).hexdigest() == checksum else None
        except Exception:
            return None

    def entries(self) -> list[EntryInfo]:
        """Metadata of every readable entry file (unreadable ones skipped)."""
        infos = []
        for path in sorted(self._entries_dir.glob("*/*.json")):
            info = self._entry_info(path)
            if info is not None:
                infos.append(info)
        return infos

    def _entry_info(self, path: Path) -> EntryInfo | None:
        try:
            stat = path.stat()
            envelope = json.loads(path.read_text(encoding="utf-8"))
            payload = _decode_payload(envelope["payload64"])
            return EntryInfo(
                fingerprint=str(envelope["fingerprint"]),
                query=str(envelope["query"]),
                path=path,
                bytes=stat.st_size,
                mtime=stat.st_mtime,
                is_safe=payload["index"] is not None,
                has_plan=payload["plan"] is not None,
            )
        except Exception:
            self._count("_errors")
            return None

    # -- garbage collection --------------------------------------------------------

    def gc(self, max_bytes: int) -> GcResult:
        """Delete least-recently-used entry files until the entry tier fits
        ``max_bytes``.

        Recency is file mtime, which loads refresh; corrupt entry files sort
        oldest so they are reclaimed first.  Runs are left alone: they are the
        service's registry, not a cache.
        """
        files: list[tuple[float, int, Path]] = []
        for path in self._entries_dir.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in files)
        removed = 0
        freed = 0
        for _, size, path in sorted(files):
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        with self._lock:
            self._evictions += removed
        return GcResult(removed=removed, freed_bytes=freed, remaining_bytes=total - freed)

    def registered_fingerprints(self) -> frozenset[str]:
        """Specification fingerprints of the persisted runs, read from the
        run envelopes alone (no run is reconstructed); unreadable artifacts
        contribute nothing."""
        fingerprints = set()
        for path in self._runs_dir.glob("*.json"):
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
                if envelope.get("kind") != _RUN_KIND:
                    continue
                fingerprint = envelope.get("fingerprint")
                if isinstance(fingerprint, str) and fingerprint:
                    fingerprints.add(fingerprint)
            except Exception:
                self._count("_errors")
        return frozenset(fingerprints)

    def gc_orphans(self) -> GcResult:
        """Delete entries whose specification fingerprint matches no
        registered run (``repro store gc --orphans``).

        Long-lived stores accumulate entries of grammars whose runs were
        re-derived or retired; those entries can never be served again
        through the run registry, so they are reclaimed here.  Entry files
        too corrupt to reveal their fingerprint are reclaimed too — they
        would only ever produce counted misses.  Runs are never touched.

        The sweep also deletes what stores of older builds left behind and
        nothing reads: ``<entry>.json.lock`` files and the ``profiles/``
        tree.  Their bytes count as freed; ``removed`` counts entries only.
        """
        registered = self.registered_fingerprints()
        removed = 0
        freed = 0
        remaining = 0
        for path in list(self._entries_dir.glob("*/*.json")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
                fingerprint = envelope.get("fingerprint")
                orphaned = fingerprint not in registered
            except Exception:
                orphaned = True
            if not orphaned:
                remaining += size
                continue
            try:
                path.unlink()
            except OSError:
                remaining += size
                continue
            removed += 1
            freed += size
        freed += self._remove_leftovers()
        with self._lock:
            self._evictions += removed
        return GcResult(removed=removed, freed_bytes=freed, remaining_bytes=remaining)

    def _remove_leftovers(self) -> int:
        """Delete older builds' lock files and profile tree; the bytes freed."""
        profiles = self.root / "profiles"
        freed = 0
        for path in [*self._entries_dir.glob("*/*.json.lock"), *profiles.rglob("*")]:
            try:
                if path.is_file():
                    size = path.stat().st_size
                    path.unlink()
                    freed += size
            except OSError:
                continue
        shutil.rmtree(profiles, ignore_errors=True)
        return freed

    def total_bytes(self) -> int:
        """Bytes used by the entry tier (excludes the run registry)."""
        return sum(
            path.stat().st_size
            for path in self._entries_dir.glob("*/*.json")
            if path.exists()
        )

    # -- runs --------------------------------------------------------------------

    def save_run(self, run_id: str, run: Run) -> bool:
        """Persist one registered run (labels included, so reloading skips
        re-labeling); returns success, counting failures like :meth:`save`."""
        try:
            payload = run_to_dict(run)
            envelope = {
                "format": FORMAT_VERSION,
                "kind": _RUN_KIND,
                "run_id": run_id,
                # The grammar fingerprint rides in the envelope so orphan gc
                # can read it without reconstructing the run.
                "fingerprint": run.spec.fingerprint,
                "checksum": _checksum(payload),
                "payload64": _encode_payload(payload),
            }
            _atomic_write(self.run_path(run_id), json.dumps(envelope))
        except Exception:
            self._count("_errors")
            return False
        self._count("_writes")
        return True

    def load_run(self, run_id: str) -> Run | None:
        """One persisted run, or ``None`` when absent *or* unreadable (a
        corrupt artifact is counted, never raised, so a service keeps
        serving its other runs)."""
        path = self.run_path(run_id)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self._count("_errors")
            return None
        try:
            envelope = json.loads(raw)
            payload = self._open_envelope(envelope, _RUN_KIND)
            if envelope.get("run_id") != run_id:
                raise StoreError("run artifact belongs to a different id")
            return run_from_dict(payload)
        except Exception:
            self._count("_errors")
            return None

    def run_ids(self) -> list[str]:
        """Ids of the persisted runs, from the file names alone — no run is
        parsed, so listing stays cheap however large the runs are."""
        return sorted(
            urllib.parse.unquote(path.stem) for path in self._runs_dir.glob("*.json")
        )

    # -- reporting ----------------------------------------------------------------

    @property
    def counters(self) -> StoreCounters:
        with self._lock:
            return StoreCounters(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                errors=self._errors,
                evictions=self._evictions,
                skipped_writes=self._skipped_writes,
            )

    def describe(self) -> str:
        entries = list(self._entries_dir.glob("*/*.json"))
        runs = list(self._runs_dir.glob("*.json"))
        counters = self.counters
        return (
            f"IndexStore({str(self.root)!r}) "
            f"{len(entries)} entries ({self.total_bytes()} bytes), {len(runs)} runs, "
            f"hits={counters.hits}, misses={counters.misses}, "
            f"writes={counters.writes} (+{counters.skipped_writes} skipped), "
            f"errors={counters.errors}, evictions={counters.evictions}"
        )

    # -- internals ----------------------------------------------------------------

    def _open_envelope(
        self,
        envelope: Any,
        kind: str,
        *,
        fingerprint: str | None = None,
        query: str | None = None,
    ) -> dict[str, Any]:
        """Validate an envelope (kind, version, identity, checksum) and
        return its payload; raises :class:`StoreError` on any mismatch."""
        if not isinstance(envelope, dict):
            raise StoreError("artifact is not a JSON object")
        if envelope.get("kind") != kind:
            raise StoreError(f"artifact kind {envelope.get('kind')!r}, expected {kind!r}")
        if envelope.get("format") != FORMAT_VERSION:
            raise StoreError(
                f"artifact format {envelope.get('format')!r}, "
                f"this build reads {FORMAT_VERSION}"
            )
        if fingerprint is not None and envelope.get("fingerprint") != fingerprint:
            raise StoreError("artifact belongs to a different specification")
        if query is not None and envelope.get("query") != query:
            raise StoreError("artifact belongs to a different query")
        raw = _payload_bytes(envelope.get("payload64"))
        if hashlib.sha256(raw).hexdigest() != envelope.get("checksum"):
            raise StoreError("artifact checksum mismatch")
        payload: dict[str, Any] = json.loads(raw)
        return payload

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def __iter__(self) -> Iterator[EntryInfo]:
        return iter(self.entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries_dir.glob("*/*.json"))
