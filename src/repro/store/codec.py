"""(De)serialization of the cache layer's per-query artifacts.

Everything :class:`~repro.service.cache.IndexCache` computes for one
``(specification fingerprint, canonical query)`` key is turned into plain
JSON-ready dictionaries here, and rebuilt from them:

* a :class:`~repro.core.safety.SafetyReport` — its minimal DFA, λ matrices
  and (for unsafe queries) the recorded violations;
* a :class:`~repro.core.query_index.QueryIndex` — the per-production
  transition tables (``cross``/``to_sink``/``from_source``), so a restored
  index skips the construction sweep entirely and shares the report's DFA and
  λ matrices exactly like a freshly built one;
* a :class:`~repro.core.decomposition.DecompositionPlan` — the canonical
  query, its maximal safe subtrees (as query text that parses back to equal
  syntax trees) and the memoized macro DFAs of the frontier sweep
  (forward *and* reversed, under distinct memo keys).

Each distinct matrix of an entry is stored once, in the payload's
``matrices`` pool (format 3), and the λ and production tables name pool
positions: an index repeats a few dozen distinct matrices across hundreds of
table cells, so a restore decodes each of them once.  A pooled matrix is a
``[size, base64]`` pair of its row bitmasks packed into fixed-width
little-endian bytes
(:meth:`~repro.automata.boolean_matrix.BooleanMatrix.to_packed`), or its
decimal row list when that renders smaller.  The
specification itself is *not* stored: the caller always has it (it is half
of the cache key), so payloads stay small and a stored entry can never
smuggle in a stale grammar.

Decoding is strict: missing fields, wrong shapes and inconsistent DFAs raise
(:class:`~repro.errors.StoreError` or the underlying ``KeyError``/
``ValueError``), and the store's read path turns any such failure into a
clean miss.
"""

from __future__ import annotations

import json
from typing import Any

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.dfa import DFA
from repro.automata.regex import RegexNode, parse_regex, regex_to_string
from repro.core.decomposition import DecompositionPlan
from repro.core.query_index import QueryIndex
from repro.core.safety import SafetyReport, SafetyViolation
from repro.errors import ReproError, StoreError
from repro.workflow.spec import Specification

__all__ = [
    "entry_to_payload",
    "entry_from_payload",
    "matrix_to_json",
    "matrix_from_json",
    "report_to_dict",
    "report_from_dict",
    "index_to_dict",
    "index_from_dict",
    "plan_to_dict",
    "plan_from_dict",
]


# ---------------------------------------------------------------------------
# Boolean matrices (the packed binary-in-base64 encoding since format 2)
# ---------------------------------------------------------------------------


#: Matrices at least this wide always render smaller packed than as decimal
#: rows; below it the two encodings are compared byte-for-byte.
_ALWAYS_PACK = 24


def matrix_to_json(matrix: BooleanMatrix) -> list[Any]:
    """A matrix as either its integer row list or a ``[size, base64]`` pair
    of packed little-endian row bytes — whichever renders smaller.

    Query DFAs range from 2 states to dozens: tiny matrices are cheaper as
    ``[3, 1]``-style row lists (the base64 pair costs ~12 bytes of
    scaffolding), while the big λ/crossing tables that dominate entry JSON
    shrink ~2x packed.  The two shapes are distinguishable on decode — a
    packed pair is exactly ``[int, str]`` — so readers need no flag.
    """
    if matrix.size >= _ALWAYS_PACK:
        return [matrix.size, matrix.to_packed()]
    rows = matrix.to_rows()
    packed = [matrix.size, matrix.to_packed()]
    return packed if _json_len(packed) < _json_len(rows) else rows


def _json_len(value: Any) -> int:
    return len(json.dumps(value, separators=(",", ":")))


def matrix_from_json(value: Any) -> BooleanMatrix:
    """Inverse of :func:`matrix_to_json` (strict; bad shapes raise)."""
    if len(value) == 2 and isinstance(value[1], str):
        size, packed = value
        return BooleanMatrix.from_packed(int(size), packed)
    return BooleanMatrix.from_rows(value)


# ---------------------------------------------------------------------------
# The matrix pool
# ---------------------------------------------------------------------------


class _MatrixPool:
    """The distinct matrices of one entry, each encoded once; the report and
    index tables refer to them by position.

    An index's tables repeat a handful of matrices (identity, zero, the tag
    transitions, the λs) hundreds of times, so pooling them makes decoding
    one matrix per distinct value instead of one per table cell.
    """

    def __init__(self) -> None:
        self._refs: dict[BooleanMatrix, int] = {}

    def ref(self, matrix: BooleanMatrix) -> int:
        return self._refs.setdefault(matrix, len(self._refs))

    def to_json(self) -> list[Any]:
        return [matrix_to_json(matrix) for matrix in self._refs]


def _pool_from_json(values: Any, size: int) -> list[BooleanMatrix]:
    """Decode a pool, rejecting matrices of another size than the DFA's."""
    pool = [matrix_from_json(value) for value in values]
    for matrix in pool:
        if matrix.size != size:
            raise StoreError(f"pooled {matrix.size}x{matrix.size} matrix, DFA has {size} states")
    return pool


def _pooled(pool: list[BooleanMatrix], refs: list[Any]) -> list[BooleanMatrix]:
    """The pool entries a table names (strict: no negative indexing)."""
    if refs and (min(refs) < 0 or max(refs) >= len(pool)):
        raise StoreError(f"matrix reference outside a pool of {len(pool)}")
    return [pool[ref] for ref in refs]


# ---------------------------------------------------------------------------
# Safety reports
# ---------------------------------------------------------------------------


def report_to_dict(report: SafetyReport, pool: _MatrixPool) -> dict[str, Any]:
    """A JSON-ready representation of a safety analysis (spec excluded),
    its matrices referring into ``pool``."""
    return {
        "dfa": report.dfa.to_dict(),
        "lambdas": {
            module: pool.ref(matrix) for module, matrix in sorted(report.lambdas.items())
        },
        "violations": [
            {
                "module": violation.module,
                "production": violation.production,
                "established": pool.ref(violation.established),
                "conflicting": pool.ref(violation.conflicting),
            }
            for violation in report.violations
        ],
    }


def report_from_dict(
    spec: Specification, dfa: DFA, payload: dict[str, Any], pool: list[BooleanMatrix]
) -> SafetyReport:
    """Rebuild a safety report against the caller-supplied specification."""
    modules = [str(module) for module in payload["lambdas"]]
    lambdas = dict(zip(modules, _pooled(pool, list(payload["lambdas"].values()))))
    violations: list[SafetyViolation] = []
    for entry in payload["violations"]:
        established, conflicting = _pooled(
            pool, [entry["established"], entry["conflicting"]]
        )
        violations.append(
            SafetyViolation(
                module=str(entry["module"]),
                production=int(entry["production"]),
                established=established,
                conflicting=conflicting,
            )
        )
    return SafetyReport(spec=spec, dfa=dfa, lambdas=lambdas, violations=violations)


# ---------------------------------------------------------------------------
# Query indexes
# ---------------------------------------------------------------------------


def index_to_dict(index: QueryIndex, pool: _MatrixPool) -> dict[str, Any]:
    """The production tables of an index (DFA and λs live in the report),
    their matrices referring into ``pool``.  Each production's ``cross``
    table is one flat list of ``source, target, matrix`` triples."""
    cross, to_sink, from_source = index.production_tables()
    return {
        "query_text": index.query_text,
        "cross": [
            [
                value
                for (source, target), matrix in sorted(table.items())
                for value in (source, target, pool.ref(matrix))
            ]
            for table in cross
        ],
        "to_sink": [[pool.ref(matrix) for matrix in row] for row in to_sink],
        "from_source": [[pool.ref(matrix) for matrix in row] for row in from_source],
    }


def index_from_dict(
    spec: Specification,
    report: SafetyReport,
    payload: dict[str, Any],
    pool: list[BooleanMatrix],
) -> QueryIndex:
    """Rebuild an index sharing the given report's DFA and λ matrices,
    exactly like the cache's build path does."""
    cross: list[dict[tuple[int, int], BooleanMatrix]] = []
    for table in payload["cross"]:
        if len(table) % 3:
            raise StoreError("a cross table is not a list of triples")
        keys = zip(table[0::3], table[1::3])
        cross.append(dict(zip(keys, _pooled(pool, table[2::3]))))
    to_sink = [_pooled(pool, row) for row in payload["to_sink"]]
    from_source = [_pooled(pool, row) for row in payload["from_source"]]
    if not (len(cross) == len(to_sink) == len(from_source) == len(spec.productions)):
        raise StoreError(
            f"index tables cover {len(cross)} productions, "
            f"specification has {len(spec.productions)}"
        )
    return QueryIndex(
        spec=spec,
        dfa=report.dfa,
        lambdas=report.lambdas,
        query_text=str(payload["query_text"]),
        tables=(cross, to_sink, from_source),
    )


# ---------------------------------------------------------------------------
# Decomposition plans
# ---------------------------------------------------------------------------


def _render_stable(node: RegexNode) -> str | None:
    """Render a syntax tree, returning None unless parsing the text back
    yields an *equal* tree (plans built by the cache are canonical, which
    round-trips; anything else is skipped rather than persisted wrongly)."""
    text = regex_to_string(node)
    try:
        return text if parse_regex(text) == node else None
    except ReproError:
        return None


def plan_to_dict(plan: DecompositionPlan) -> dict[str, Any] | None:
    """A JSON-ready representation of a plan, or ``None`` when its trees do
    not render/parse round-trip (then the entry is stored without a plan).

    The macro DFA snapshot carries both forward and reversed automata (the
    memo keys distinguish them), so a restarted service skips both the
    determinization and the DFA reversal on the first repeated workload.
    """
    root_text = _render_stable(plan.root)
    subtree_texts = [_render_stable(node) for node in plan.safe_subtrees]
    if root_text is None or any(text is None for text in subtree_texts):
        return None
    return {
        "root": root_text,
        "safe_subtrees": subtree_texts,
        "macro_dfas": [
            [key, dfa.to_dict()] for key, dfa in sorted(plan.macro_dfas().items())
        ],
    }


def plan_from_dict(spec: Specification, payload: dict[str, Any]) -> DecompositionPlan:
    """Rebuild a plan (label routing is recomputed per run; the macro DFAs —
    forward and reversed — are restored).

    Entries written before direction decisions stopped being recorded also
    carry a ``directions`` key; it is ignored, so those entries still load.
    """
    plan = DecompositionPlan(
        spec=spec,
        root=parse_regex(str(payload["root"])),
        safe_subtrees=[parse_regex(str(text)) for text in payload["safe_subtrees"]],
    )
    plan.restore_macro_dfas(
        {str(key): DFA.from_dict(entry) for key, entry in payload["macro_dfas"]}
    )
    return plan


# ---------------------------------------------------------------------------
# Whole cache entries
# ---------------------------------------------------------------------------


def entry_to_payload(
    report: SafetyReport,
    index: QueryIndex | None,
    plan: DecompositionPlan | None,
) -> dict[str, Any]:
    """Everything one cache entry holds, as one JSON-ready payload; the
    report's and index's matrices sit once each in its ``matrices`` pool."""
    pool = _MatrixPool()
    report_dict = report_to_dict(report, pool)
    index_dict = index_to_dict(index, pool) if index is not None else None
    return {
        "matrices": pool.to_json(),
        "report": report_dict,
        "index": index_dict,
        "plan": plan_to_dict(plan) if plan is not None else None,
    }


def entry_from_payload(
    spec: Specification, payload: dict[str, Any]
) -> tuple[SafetyReport, QueryIndex | None, DecompositionPlan | None]:
    """Rebuild a cache entry's artifacts from :func:`entry_to_payload`."""
    report_payload = payload["report"]
    dfa = DFA.from_dict(report_payload["dfa"])
    pool = _pool_from_json(payload["matrices"], dfa.state_count)
    report = report_from_dict(spec, dfa, report_payload, pool)
    index_payload = payload["index"]
    if report.is_safe != (index_payload is not None):
        raise StoreError("stored entry is inconsistent: safety verdict vs index presence")
    index = (
        index_from_dict(spec, report, index_payload, pool)
        if index_payload is not None
        else None
    )
    plan_payload = payload["plan"]
    plan = plan_from_dict(spec, plan_payload) if plan_payload is not None else None
    return report, index, plan
