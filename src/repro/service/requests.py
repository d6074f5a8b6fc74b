"""Request/result model of the batch query service, with JSONL transport.

A batch is a sequence of independent :class:`QueryRequest` records, each
naming a registered run and one of three operations:

``pairwise``
    Algorithm 1 — does some path from ``source`` to ``target`` match
    ``query``?  Unsafe queries fall back to the decomposition engine.
``allpairs``
    Algorithm 2 / decomposition — all matching pairs of ``sources x
    targets`` (both default to every node of the run).
``reachability``
    Plain label-decoded reachability ``source ⤳ target`` (no query).

The wire format is JSON Lines: one request object per line in, one result
object per line out, in request order, so a client can stream a long batch
through ``repro batch`` without buffering.  Example::

    {"op": "pairwise", "run": "r1", "query": "_* e _*", "source": "c:1", "target": "b:1"}
    {"op": "allpairs", "run": "r1", "query": "A+", "id": "q2"}
    {"op": "reachability", "run": "r1", "source": "c:1", "target": "b:1"}

Results echo the request ``id`` (or its 0-based batch position when absent)
and carry either an ``answer`` boolean, a ``pairs`` list, or an ``error``
string — a malformed or failing request never aborts the rest of the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "BatchFormatError",
    "QueryRequest",
    "QueryResult",
    "request_from_dict",
    "request_to_dict",
    "result_to_dict",
    "read_requests_jsonl",
]

_OPS = ("pairwise", "allpairs", "reachability")


class BatchFormatError(ReproError):
    """A batch request record is malformed (unknown op, missing field, ...)."""


@dataclass(frozen=True)
class QueryRequest:
    """One operation of a batch (see module docstring for the semantics)."""

    op: str
    run: str
    query: str | None = None
    source: str | None = None
    target: str | None = None
    sources: tuple[str, ...] | None = None
    targets: tuple[str, ...] | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise BatchFormatError(
                f"unknown op {self.op!r}; expected one of {list(_OPS)}"
            )
        if not self.run:
            raise BatchFormatError("request is missing the 'run' id")
        if self.op in ("pairwise", "allpairs") and not self.query:
            raise BatchFormatError(f"op {self.op!r} requires a 'query'")
        if self.op in ("pairwise", "reachability"):
            if not self.source or not self.target:
                raise BatchFormatError(
                    f"op {self.op!r} requires both 'source' and 'target'"
                )


@dataclass(frozen=True)
class QueryResult:
    """The outcome of one request; exactly one of answer/pairs/error is set."""

    request_id: str
    op: str
    run: str
    ok: bool
    answer: bool | None = None
    pairs: tuple[tuple[str, str], ...] | None = None
    error: str | None = None
    elapsed: float = 0.0


def request_from_dict(payload: dict[str, Any]) -> QueryRequest:
    """Validate and build a request from one decoded JSONL record."""
    if not isinstance(payload, dict):
        raise BatchFormatError(f"request must be a JSON object, got {type(payload).__name__}")
    known = {"op", "run", "query", "source", "target", "sources", "targets", "id"}
    unknown = set(payload) - known
    if unknown:
        raise BatchFormatError(f"unknown request field(s): {sorted(unknown)}")

    def _string_list(field: str) -> tuple[str, ...] | None:
        value = payload.get(field)
        if value is None:
            return None
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise BatchFormatError(f"{field!r} must be a list of node ids")
        return tuple(value)

    request_id = payload.get("id")
    return QueryRequest(
        op=str(payload.get("op", "")),
        run=str(payload.get("run", "")),
        query=payload.get("query"),
        source=payload.get("source"),
        target=payload.get("target"),
        sources=_string_list("sources"),
        targets=_string_list("targets"),
        request_id=None if request_id is None else str(request_id),
    )


def request_to_dict(request: QueryRequest) -> dict[str, Any]:
    """The JSONL record of a request (inverse of :func:`request_from_dict`)."""
    record: dict[str, Any] = {"op": request.op, "run": request.run}
    if request.request_id is not None:
        record["id"] = request.request_id
    if request.query is not None:
        record["query"] = request.query
    if request.source is not None:
        record["source"] = request.source
    if request.target is not None:
        record["target"] = request.target
    if request.sources is not None:
        record["sources"] = list(request.sources)
    if request.targets is not None:
        record["targets"] = list(request.targets)
    return record


def result_to_dict(result: QueryResult) -> dict[str, Any]:
    """The JSONL record of a result."""
    record: dict[str, Any] = {
        "id": result.request_id,
        "op": result.op,
        "run": result.run,
        "ok": result.ok,
    }
    if result.answer is not None:
        record["answer"] = result.answer
    if result.pairs is not None:
        # QueryService sorts pairs when building the result; keep that order.
        record["pairs"] = [list(pair) for pair in result.pairs]
    if result.error is not None:
        record["error"] = result.error
    record["elapsed_ms"] = round(result.elapsed * 1000, 3)
    return record


def read_requests_jsonl(lines: Iterable[str]) -> Iterator[QueryRequest]:
    """Parse a JSONL stream into requests.

    ``lines`` may come from any source — an open file handle, ``sys.stdin``,
    or a pre-split list; every line is normalized here (trailing newlines,
    ``\\r\\n`` endings and surrounding whitespace are stripped), so all
    sources parse identically.  Blank/whitespace-only lines and ``#``
    comments are skipped; malformed lines raise :class:`BatchFormatError`
    with the line number.
    """
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise BatchFormatError(f"line {line_number}: invalid JSON ({error})") from error
        try:
            yield request_from_dict(payload)
        except BatchFormatError as error:
            raise BatchFormatError(f"line {line_number}: {error}") from error
