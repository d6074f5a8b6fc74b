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

Boolean matrices serialize as ``[size, base64]`` pairs: the row bitmasks
packed into fixed-width little-endian bytes
(:meth:`~repro.automata.boolean_matrix.BooleanMatrix.to_packed`), roughly 3x
smaller than the decimal row lists of format 1 — entry JSON is dominated by
these tables, so store bytes (and load time) shrink with them.  The
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
# Boolean matrices (the packed binary-in-base64 encoding of format 2)
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
# Safety reports
# ---------------------------------------------------------------------------


def report_to_dict(report: SafetyReport) -> dict[str, Any]:
    """A JSON-ready representation of a safety analysis (spec excluded)."""
    return {
        "dfa": report.dfa.to_dict(),
        "lambdas": {
            module: matrix_to_json(matrix)
            for module, matrix in sorted(report.lambdas.items())
        },
        "violations": [
            {
                "module": violation.module,
                "production": violation.production,
                "established": matrix_to_json(violation.established),
                "conflicting": matrix_to_json(violation.conflicting),
            }
            for violation in report.violations
        ],
    }


def report_from_dict(spec: Specification, payload: dict[str, Any]) -> SafetyReport:
    """Rebuild a safety report against the caller-supplied specification."""
    dfa = DFA.from_dict(payload["dfa"])
    lambdas = {
        str(module): matrix_from_json(rows)
        for module, rows in payload["lambdas"].items()
    }
    violations = [
        SafetyViolation(
            module=str(entry["module"]),
            production=int(entry["production"]),
            established=matrix_from_json(entry["established"]),
            conflicting=matrix_from_json(entry["conflicting"]),
        )
        for entry in payload["violations"]
    ]
    return SafetyReport(spec=spec, dfa=dfa, lambdas=lambdas, violations=violations)


# ---------------------------------------------------------------------------
# Query indexes
# ---------------------------------------------------------------------------


def index_to_dict(index: QueryIndex) -> dict[str, Any]:
    """The production tables of an index (DFA and λs live in the report)."""
    cross, to_sink, from_source = index.production_tables()
    return {
        "query_text": index.query_text,
        "cross": [
            [[source, target, matrix_to_json(matrix)] for (source, target), matrix in sorted(table.items())]
            for table in cross
        ],
        "to_sink": [[matrix_to_json(matrix) for matrix in row] for row in to_sink],
        "from_source": [[matrix_to_json(matrix) for matrix in row] for row in from_source],
    }


def index_from_dict(
    spec: Specification, report: SafetyReport, payload: dict[str, Any]
) -> QueryIndex:
    """Rebuild an index sharing the given report's DFA and λ matrices,
    exactly like the cache's build path does."""
    cross = [
        {
            (int(source), int(target)): matrix_from_json(rows)
            for source, target, rows in table
        }
        for table in payload["cross"]
    ]
    to_sink = [[matrix_from_json(rows) for rows in row] for row in payload["to_sink"]]
    from_source = [
        [matrix_from_json(rows) for rows in row] for row in payload["from_source"]
    ]
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
    """Everything one cache entry holds, as one JSON-ready payload."""
    return {
        "report": report_to_dict(report),
        "index": index_to_dict(index) if index is not None else None,
        "plan": plan_to_dict(plan) if plan is not None else None,
    }


def entry_from_payload(
    spec: Specification, payload: dict[str, Any]
) -> tuple[SafetyReport, QueryIndex | None, DecompositionPlan | None]:
    """Rebuild a cache entry's artifacts from :func:`entry_to_payload`."""
    report = report_from_dict(spec, payload["report"])
    index_payload = payload["index"]
    if report.is_safe != (index_payload is not None):
        raise StoreError("stored entry is inconsistent: safety verdict vs index presence")
    index = (
        index_from_dict(spec, report, index_payload) if index_payload is not None else None
    )
    plan_payload = payload["plan"]
    plan = plan_from_dict(spec, plan_payload) if plan_payload is not None else None
    return report, index, plan
