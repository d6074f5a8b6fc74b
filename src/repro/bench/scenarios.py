"""Declarative benchmark scenarios and the generic harness that runs them.

A :class:`Scenario` is a pure config object describing one benchmark as a
point in a factor space — grammar family × run size × query class × executor
configuration (frontier ``direction``, store on/off) — plus
the suites it belongs to.  The catalog (:mod:`repro.bench.catalog`) registers
the scenarios; this module knows how to *execute* any of them through one
generic harness:

1. resolve the grammar factor into a :class:`~repro.workflow.spec.Specification`
   (built-ins, ``synthetic:<size>``, or one of the synthetic *families*:
   ``deep-recursion:<size>``, ``wide-alternation:<size>``,
   ``dense-wildcard:<size>``),
2. build the workload named by ``query_class`` (the builders in
   :data:`WORKLOADS` — all setup cost lives here, outside the timed region),
3. time the workload action ``repetitions`` times and emit one uniform row:
   scenario id, factors, repetitions, median/p95 latency, and a
   result-count checksum so correctness regressions surface alongside
   performance regressions.

:func:`run_suite` aggregates rows into the ``repro-bench-trajectory/1``
document that ``repro bench gate`` (:mod:`repro.bench.gate`) compares against
the stored trajectory.  Every random choice is seeded by the scenario, so
checksums are reproducible across machines and Python versions.

A :class:`FigureGroup` is one of the paper's Section V figures (or an
ablation) as a sweep: it expands into one scenario per (x-value, engine)
point, a baseline engine picked by ``params['engine']``, and
:func:`render_figure` pivots the rows of a run document back into the
paper's table, refusing rows whose engines disagree.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re
import statistics
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.relations import NodePairs
    from repro.service.requests import QueryRequest, QueryResult
    from repro.workflow.run import Run
    from repro.workflow.spec import Specification

__all__ = [
    "SCHEMA",
    "SCALES",
    "ExecutorFactors",
    "FigureGroup",
    "Invariant",
    "Scenario",
    "ScenarioResult",
    "ScenarioScale",
    "calibrate",
    "figure_disagreements",
    "figure_rows",
    "format_table",
    "render_figure",
    "resolve_grammar",
    "run_scenario",
    "run_suite",
    "run_table",
]

#: Version tag of the trajectory document this module emits.
SCHEMA = "repro-bench-trajectory/1"


class ScenarioError(ReproError):
    """A scenario config that cannot be resolved or executed."""


# ---------------------------------------------------------------------------
# Factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutorFactors:
    """The executor-configuration axis of the factor space.

    Mirrors the executor knobs: frontier ``direction``, and whether a
    persistent :class:`~repro.store.IndexStore` backs the service
    (``store``).
    """

    direction: str = "auto"
    store: bool = False

    def as_dict(self) -> dict[str, object]:
        return {"direction": self.direction, "store": self.store}


@dataclass(frozen=True)
class ScenarioScale:
    """How one named scale shrinks or grows every scenario.

    ``smoke`` exists to *exercise* every catalog entry in seconds with no
    meaningful timing (the CI no-timing smoke and ``repro bench check``);
    ``ci`` is the gated trajectory scale; ``full`` is for local deep dives.
    """

    name: str
    edge_divisor: int  # scenario.run_edges // divisor (floored at min_edges)
    repetitions: int
    list_limit: int | None  # all-pairs node-list sample bound (None: every node)
    batch_divisor: int  # service batch sizes // divisor
    min_edges: int = 40


SCALES: dict[str, ScenarioScale] = {
    scale.name: scale
    for scale in (
        ScenarioScale("smoke", edge_divisor=20, repetitions=1, list_limit=30, batch_divisor=8),
        ScenarioScale("ci", edge_divisor=1, repetitions=3, list_limit=150, batch_divisor=1),
        ScenarioScale("full", edge_divisor=1, repetitions=5, list_limit=None, batch_divisor=1),
    )
}


Params = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Scenario:
    """One declarative benchmark: a point in the factor space plus identity.

    ``params`` carries query-class-specific knobs (query text, IFQ size ``k``,
    list shapes, batch sizes) as a hashable tuple of pairs; use
    :meth:`param` to read them.  ``run_edges`` is the run size at the ``ci``
    scale — other scales derive from it via :class:`ScenarioScale`.
    """

    id: str
    title: str
    grammar: str
    query_class: str
    run_edges: int
    executor: ExecutorFactors = ExecutorFactors()
    suites: tuple[str, ...] = ("ci",)
    params: Params = ()
    seed: int = 0

    def param(self, key: str, default: Any = None) -> Any:
        return dict(self.params).get(key, default)

    def factors(self) -> dict[str, object]:
        return {
            "grammar": self.grammar,
            "query_class": self.query_class,
            "run_edges": self.run_edges,
            "executor": self.executor.as_dict(),
            "params": dict(self.params),
            "seed": self.seed,
        }

    def in_suite(self, suite: str) -> bool:
        return suite == "all" or suite in self.suites


@dataclass(frozen=True)
class Invariant:
    """A relation between two scenarios' timings that must hold in a run.

    These replace the hard-coded asserts of the old ``bench_*.py`` scripts
    (backward beats forward, warm restart ≥ 4.5x): the gate
    checks them on the *current* results, independently of the stored
    trajectory.
    """

    id: str
    fast: str  # scenario id expected to be faster
    slow: str  # scenario id expected to be slower
    factor: float = 1.0  # require slow_median >= factor * fast_median
    note: str = ""


#: Scenario fields a figure point may set; any other point key is a param.
_POINT_FIELDS = ("grammar", "run_edges", "seed")


@dataclass(frozen=True)
class FigureGroup:
    """One paper figure or ablation: a sweep of catalog scenarios.

    ``grammar``, ``query_class``, ``run_edges``, ``params`` and ``seed`` are
    the factors every point shares.  Each entry of ``points`` is one x-value:
    it overrides some factors (``grammar``, ``run_edges`` and ``seed`` set
    that field, any other key a param) and its keys are the table's x
    columns.  Each arm is ``(label, params)``: the first is the production
    path (no ``engine``), a baseline arm sets ``params['engine']``, and an
    arm may change other params too (fig15's 5x5 lists).  ``columns`` names
    the non-timing table columns: ``matches`` is the production answer's
    size (the checksum prefix), ``fastest`` the arm with the lowest median,
    any other name a key of the arms' ``detail``, production first.
    """

    id: str
    title: str
    expected: str
    grammar: str
    query_class: str
    points: tuple[Params, ...]
    arms: tuple[tuple[str, Params], ...]
    run_edges: int = 0
    params: Params = ()
    seed: int = 0
    columns: tuple[str, ...] = ()

    def arms_at(self, point: Params) -> Iterator[tuple[str, Params]]:
        """The arms that can answer this point: G3 only answers IFQs."""
        from repro.automata.regex import parse_regex
        from repro.core.optimizer import ifq_tags

        query = dict(self.params + point).get("query")
        for label, params in self.arms:
            if (
                dict(params).get("engine") == "g3"
                and query is not None
                and ifq_tags(parse_regex(str(query))) is None
            ):
                continue
            yield label, params

    def scenario_id(self, point: Params, label: str) -> str:
        x = "-".join(re.sub(r"[^\w.:]+", "", str(value)) for _, value in point)
        return f"{self.id}-{x}-{label}"

    def expand(self) -> tuple[Scenario, ...]:
        """One scenario per (point, arm), all in the ``figures`` suite."""
        scenarios = []
        for point in self.points:
            fields: dict[str, Any] = {key: value for key, value in point if key in _POINT_FIELDS}
            point_params = tuple(item for item in point if item[0] not in _POINT_FIELDS)
            for label, arm_params in self.arms_at(point):
                scenarios.append(
                    Scenario(
                        id=self.scenario_id(point, label),
                        title=f"{self.title} [{_point_text(point)}; {label}]",
                        grammar=str(fields.get("grammar", self.grammar)),
                        query_class=self.query_class,
                        run_edges=int(fields.get("run_edges", self.run_edges)),
                        suites=("figures",),
                        params=self.params + point_params + arm_params,
                        seed=int(fields.get("seed", self.seed)),
                    )
                )
        return tuple(scenarios)


def _point_text(point: Params) -> str:
    return ", ".join(f"{key}={value}" for key, value in point)


@dataclass
class ScenarioResult:
    """One uniform run-table row."""

    scenario_id: str
    factors: dict[str, object]
    repetitions: int
    times_s: list[float]
    checksum: str
    detail: dict[str, object]

    @property
    def median_s(self) -> float:
        return statistics.median(self.times_s)

    @property
    def p95_s(self) -> float:
        ordered = sorted(self.times_s)
        if len(ordered) == 1:
            return ordered[0]
        rank = 0.95 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    def as_dict(self) -> dict[str, object]:
        return {
            "id": self.scenario_id,
            "factors": self.factors,
            "repetitions": self.repetitions,
            "times_s": [round(value, 6) for value in self.times_s],
            "median_s": round(self.median_s, 6),
            "p95_s": round(self.p95_s, 6),
            "checksum": self.checksum,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Grammar families
# ---------------------------------------------------------------------------

_FAMILY_KWARGS: dict[str, dict[str, float]] = {
    # Long self-recursive chains: stresses closure/Kleene machinery.
    "deep-recursion": {"recursion_fraction": 0.85, "alternative_fraction": 0.1},
    # Almost every composite has an alternative implementation: a rich
    # source of unsafe queries and decomposition work.
    "wide-alternation": {"recursion_fraction": 0.1, "alternative_fraction": 0.9},
    # A tiny tag vocabulary makes every tag frequent, so `_*`-heavy queries
    # match densely and frontier searches stay alive across the whole run.
    "dense-wildcard": {"tag_vocabulary_size": 5, "branchiness": 0.5},
}


def resolve_grammar(token: str) -> "Specification":
    """Resolve a grammar factor into a specification.

    Accepts the built-in names (``bioaid``, ``qblast``, ``paper-example``),
    ``synthetic:<size>``, and the synthetic families of :data:`_FAMILY_KWARGS`
    as ``<family>:<size>``.
    """
    from repro.datasets.myexperiment import bioaid_specification, qblast_specification
    from repro.datasets.paper_example import paper_specification
    from repro.datasets.synthetic import generate_synthetic_specification

    builtins = {
        "bioaid": bioaid_specification,
        "qblast": qblast_specification,
        "paper-example": paper_specification,
    }
    if token in builtins:
        return builtins[token]()
    family, _, size_text = token.partition(":")
    if not size_text:
        raise ScenarioError(
            f"unknown grammar factor {token!r}; use one of {sorted(builtins)} or "
            f"'<family>:<size>' with a family in {['synthetic', *sorted(_FAMILY_KWARGS)]}"
        )
    try:
        size = int(size_text)
    except ValueError:
        raise ScenarioError(f"grammar factor {token!r} has a non-integer size") from None
    if family == "synthetic":
        return generate_synthetic_specification(size, seed=1)
    try:
        kwargs = _FAMILY_KWARGS[family]
    except KeyError:
        raise ScenarioError(
            f"unknown grammar family {family!r}; "
            f"use one of {['synthetic', *sorted(_FAMILY_KWARGS)]}"
        ) from None
    return generate_synthetic_specification(size, seed=1, name=f"{family}-{size}", **kwargs)


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def result_checksum(value: Any) -> str:
    """A short stable digest of a workload result (size + content hash).

    Pair sets, counts and batch summaries all reduce to canonical JSON, so
    the same scenario producing a different *answer* — not just a different
    timing — flips the checksum and fails the gate.
    """
    canonical = _canonical(value)
    blob = json.dumps(canonical, sort_keys=True, default=str).encode()
    size = len(canonical) if isinstance(canonical, (list, dict)) else canonical
    return f"{size}:{hashlib.sha256(blob).hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------
#
# A builder maps (scenario, scale) -> a zero-argument action whose return
# value is checksummed.  Everything expensive that is *not* the measured
# claim (grammar resolution, run derivation, planning warm-up) happens in
# the builder, before the first timed call.


class _Prepared:
    def __init__(self, action: Callable[[], object], **detail: object) -> None:
        self.action = action
        self.detail = detail


def _edges(scenario: Scenario, scale: ScenarioScale) -> int:
    return max(scale.min_edges, scenario.run_edges // scale.edge_divisor)


def _lists(
    run: "Run", scenario: Scenario, scale: ScenarioScale
) -> tuple[list[str], list[str]]:
    from repro.datasets.runs import node_lists

    return node_lists(run, limit=scale.list_limit, seed=scenario.seed + 2)


def _make_run(
    scenario: Scenario, scale: ScenarioScale, spec: "Specification | None" = None
) -> "Run":
    from repro.datasets.runs import generate_run

    spec = spec if spec is not None else resolve_grammar(scenario.grammar)
    return generate_run(spec, _edges(scenario, scale), seed=scenario.seed + 1)


def _unknown_engine(scenario: Scenario) -> ScenarioError:
    return ScenarioError(
        f"scenario {scenario.id!r}: query class {scenario.query_class!r} has no "
        f"engine {scenario.param('engine')!r}"
    )


def _build_overhead(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Fig. 13a/b: per-query safety-check + index-build overhead.

    The ``raw-dfa`` engine checks the unminimized DFA first and minimizes
    only when that DFA looks unsafe: by Lemma 3.2 a safe DFA of the query
    proves it safe, an unsafe one proves nothing.  Both arms therefore
    reach the same verdicts, at the price of the DFA they check.
    """
    from repro.automata.dfa import dfa_from_regex
    from repro.core.query_index import build_query_index
    from repro.core.safety import analyze_safety, query_dfa
    from repro.datasets.queries import generate_ifq

    spec = resolve_grammar(scenario.grammar)
    count = int(scenario.param("queries", 8))
    if scale.name == "smoke":
        count = min(count, 2)
    k = int(scenario.param("k", 3))
    queries = [generate_ifq(spec, k, seed=scenario.seed + index * 31) for index in range(count)]
    engine = scenario.param("engine")
    if engine not in (None, "raw-dfa"):
        raise _unknown_engine(scenario)

    def is_safe(query: str) -> bool:
        if engine and analyze_safety(spec, dfa_from_regex(query, spec.tags, minimal=False)).is_safe:
            return True
        return analyze_safety(spec, query_dfa(spec, query)).is_safe

    def action() -> dict[str, int]:
        safe = 0
        for query in queries:
            if is_safe(query):
                build_query_index(spec, query)
                safe += 1
        return {"queries": len(queries), "safe": safe}

    states = sum(
        dfa_from_regex(query, spec.tags, minimal=not engine).state_count for query in queries
    )
    return _Prepared(
        action, queries=count, k=k, **{"raw_states" if engine else "states": states}
    )


def _build_pairwise(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Fig. 13c/d: per-pair decode over a sampled pair batch, or the batch
    answered by the ``g2``/``g3`` baseline."""
    import random

    from repro.baselines.g2_rare_labels import g2_pairwise_batch
    from repro.baselines.g3_label_index import g3_pairwise_batch
    from repro.core.pairwise import answer_pairwise_query
    from repro.core.query_index import build_query_index
    from repro.datasets.index import EdgeTagIndex

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    pair_count = max(20, int(scenario.param("pairs", 600)) // scale.batch_divisor)
    rng = random.Random(scenario.seed + 3)
    nodes = list(run.node_ids())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(pair_count)]
    query = _resolved_query(scenario, run, require_safe=True)
    engine = scenario.param("engine")
    if engine is None:
        query_index = build_query_index(spec, query)

        def action() -> dict[str, int]:
            matched = 0
            for source, target in pairs:
                if answer_pairwise_query(
                    query_index, run.label_of(source), run.label_of(target)
                ):
                    matched += 1
            return {"pairs": len(pairs), "matched": matched}

    else:
        batches = {"g2": g2_pairwise_batch, "g3": g3_pairwise_batch}
        if engine not in batches:
            raise _unknown_engine(scenario)
        batch = batches[engine]
        index = EdgeTagIndex.from_run(run)

        def action() -> dict[str, int]:
            return {"pairs": len(pairs), "matched": sum(batch(run, pairs, query, index=index))}

    return _Prepared(action, pairs=pair_count, query=query, edges=run.edge_count)


def _resolved_query(
    scenario: Scenario,
    run: "Run",
    *,
    require_safe: bool = False,
    require_unsafe: bool = False,
) -> str:
    """The scenario's query: explicit ``params['query']``, the
    ``params['general_query']``-th query of the Fig. 15 workload, or the
    ``params['query_rank']``-th (default 0) distinct generated IFQ that
    passes the safety filter (``params['prefer']`` biases tag frequency)."""
    from repro.core.decomposition import plan_decomposition
    from repro.datasets.index import EdgeTagIndex
    from repro.datasets.queries import generate_ifq, generate_ifq_along_path

    explicit = scenario.param("query")
    if explicit is not None:
        return str(explicit)
    general = scenario.param("general_query")
    if general is not None:
        return _general_query(scenario, run, int(general))
    spec = run.spec
    index = EdgeTagIndex.from_run(run)
    k = int(scenario.param("k", 3))
    prefer = scenario.param("prefer")
    rank = int(scenario.param("query_rank", 0))

    def matches(query: str) -> bool:
        plan = plan_decomposition(spec, query)
        if require_safe and not plan.is_fully_safe:
            return False
        if require_unsafe and plan.is_fully_safe:
            return False
        return True

    # Small runs may not offer length-k walks with the required safety, so
    # fall back to grammar-wide IFQs (still deterministic, still checked).
    candidates = itertools.chain(
        (
            generate_ifq_along_path(
                run, k, seed=scenario.seed + attempt * 101, prefer=prefer, index=index
            )
            for attempt in range(80)
        ),
        (generate_ifq(spec, k, seed=scenario.seed + attempt * 17) for attempt in range(40)),
    )
    found: list[str] = []
    for query in candidates:
        if query not in found and matches(query):
            found.append(query)
            if len(found) > rank:
                return query
    raise ScenarioError(
        f"scenario {scenario.id!r}: could not generate a "
        f"{'safe' if require_safe else 'matching'} query for grammar {scenario.grammar!r}"
    )


def _general_query(scenario: Scenario, run: "Run", position: int) -> str:
    """The ``position``-th unsafe query with safe parts in a random suite over
    the tags that tell alternative implementations apart plus the run's 20
    most frequent tags: Fig. 15's workload (random queries over all tags
    are nearly always safe, as the paper also observes)."""
    from repro.datasets.index import EdgeTagIndex
    from repro.datasets.queries import discriminating_tags

    frequent = EdgeTagIndex.from_run(run).rarest_tags()[::-1][:20]
    pool = tuple(sorted(set(discriminating_tags(run.spec)) | set(frequent)))
    queries = _general_queries(scenario.grammar, pool)
    if position >= len(queries):
        raise ScenarioError(
            f"scenario {scenario.id!r}: only {len(queries)} unsafe queries with safe parts"
        )
    return queries[position]


@functools.lru_cache(maxsize=8)
def _general_queries(grammar: str, pool: tuple[str, ...]) -> tuple[str, ...]:
    """Every unsafe query with safe parts among 500 seeded suite queries
    (one scan serves all the points of a Fig. 15 group)."""
    from repro.core.decomposition import plan_decomposition
    from repro.datasets.queries import generate_query_suite

    spec = resolve_grammar(grammar)
    found = []
    for seed in range(500):
        [query] = generate_query_suite(spec, count=1, seed=seed, depth=2, tag_pool=pool)
        plan = plan_decomposition(spec, query)
        if not plan.is_fully_safe and plan.has_safe_parts:
            found.append(query)
    return tuple(found)


def _baseline_all_pairs(
    scenario: Scenario, run: "Run", query: str, l1: list[str], l2: list[str]
) -> Callable[[], "NodePairs"]:
    """The all-pairs action of the baseline named by ``params['engine']``;
    its indexes are built here, outside the timed region."""
    from repro.baselines.g1_parse_tree_joins import g1_all_pairs
    from repro.baselines.g3_label_index import g3_all_pairs
    from repro.baselines.paper_decomposition import paper_decomposition_all_pairs
    from repro.baselines.rpl_per_pair import optrpl_all_pairs, rpl_all_pairs
    from repro.core.decomposition import plan_decomposition
    from repro.core.query_index import build_query_index
    from repro.datasets.index import EdgeTagIndex

    engine = scenario.param("engine")
    if engine in ("s1", "s2"):
        query_index = build_query_index(run.spec, query)
        if engine == "s1":
            return lambda: rpl_all_pairs(run, l1, l2, query_index)
        return lambda: optrpl_all_pairs(run, l1, l2, query_index)
    if engine == "g1":
        return lambda: g1_all_pairs(run, l1, l2, query)
    if engine == "g3":
        index = EdgeTagIndex.from_run(run)
        return lambda: g3_all_pairs(run, l1, l2, query, index=index)
    if engine == "paper-decomposition":
        plan = plan_decomposition(run.spec, query)
        return lambda: paper_decomposition_all_pairs(run, l1, l2, query, plan=plan)
    raise _unknown_engine(scenario)


def _ancestor_counts(run: "Run") -> dict[str, int]:
    """Each node's backward-closure size (itself plus every node that
    reaches it), from one pass in topological order: a node's ancestor set
    is its own bit ORed with its predecessors' finished sets."""
    view = run.packed
    ancestors: list[int] = []
    for position, predecessors in enumerate(view.predecessors):
        mask = 1 << position
        for predecessor, _ in predecessors:
            mask |= ancestors[predecessor]
        ancestors.append(mask)
    return {node: mask.bit_count() for node, mask in zip(view.interner.ids, ancestors)}


def _build_allpairs(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Safe/unsafe all-pairs evaluation with the scenario's executor factors.

    ``params['lists']`` shapes the restriction lists: ``"all"`` (sampled
    node lists), ``"restricted"`` (a handful of each — the pushdown regime),
    or ``"few-targets"`` (every node as a source, the three largest-closure
    nodes as targets — the backward-direction regime).  The
    ``per-seed-frontier`` class answers the same workload with the frontier
    plan searched one seed at a time
    (:mod:`repro.baselines.per_seed_frontier`), the sweep's comparator;
    ``params['engine']`` picks a Section V baseline instead.
    """
    from repro.baselines.per_seed_frontier import per_seed_all_pairs
    from repro.core.decomposition import (
        evaluate_general_query,
        label_routed_subtrees,
        plan_decomposition,
    )
    from repro.core.optimizer import CostModel
    from repro.datasets.index import EdgeTagIndex

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    query = _resolved_query(
        scenario,
        run,
        require_safe=scenario.query_class == "safe-allpairs",
        require_unsafe=scenario.query_class
        in ("unsafe-allpairs", "adversarial-unsafe", "per-seed-frontier"),
    )
    plan = plan_decomposition(spec, query)
    shape = str(scenario.param("lists", "all"))
    if shape == "few-targets":
        l1 = list(run.node_ids())
        closure_sizes = _ancestor_counts(run)
        l2 = sorted(l1, key=closure_sizes.__getitem__, reverse=True)[:3]
    elif shape == "restricted":
        sampled1, sampled2 = _lists(run, scenario, scale)
        l1, l2 = sampled1[:5], sampled2[-5:]
    else:
        l1, l2 = _lists(run, scenario, scale)
    direction = scenario.executor.direction
    detail: dict[str, object] = {
        "query": query, "l1": len(l1), "l2": len(l2), "edges": run.edge_count
    }
    if plan.is_fully_safe:
        model = CostModel(spec, EdgeTagIndex.from_run(run))
        choice = model.choose(query, input_pairs=len(l1) * len(l2), run_edges=run.edge_count)
        detail["choice"] = choice.strategy
    else:
        detail["routed"] = len(label_routed_subtrees(plan, run))

    if scenario.param("engine") is not None:
        return _Prepared(_baseline_all_pairs(scenario, run, query, l1, l2), **detail)

    def action() -> "Iterable[tuple[str, str]]":
        if scenario.query_class == "per-seed-frontier":
            return per_seed_all_pairs(run, l1, l2, query, plan=plan, direction=direction)
        return evaluate_general_query(
            run, query, l1, l2, plan=plan, direction=direction
        ).to_pairs(run.packed.interner)

    # Warm the plan's memoized (possibly reversed) macro DFAs so repetitions
    # time execution, not one-off planning.
    evaluate_general_query(run, query, l1[:1], l2[:1], plan=plan, direction=direction)
    return _Prepared(action, **detail)


def _build_kleene(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Fig. 13g/h: Kleene-star all-pairs over a fork-heavy run."""
    from repro.core.decomposition import evaluate_general_query
    from repro.datasets.myexperiment import fork_production_indices
    from repro.datasets.runs import generate_fork_heavy_run

    spec = resolve_grammar(scenario.grammar)
    tag = scenario.param("kleene_tag")
    if tag is None:
        raise ScenarioError(f"scenario {scenario.id!r}: kleene workloads need params['kleene_tag']")
    forks = fork_production_indices(spec, str(tag))
    run = generate_fork_heavy_run(spec, _edges(scenario, scale), forks, seed=scenario.seed + 1)
    l1, l2 = _lists(run, scenario, scale)
    query = f"{tag}*"
    detail = {"query": query, "l1": len(l1), "edges": run.edge_count}
    if scenario.param("engine") is not None:
        return _Prepared(_baseline_all_pairs(scenario, run, query, l1, l2), **detail)

    def action() -> "Iterable[tuple[str, str]]":
        return evaluate_general_query(run, query, l1, l2).to_pairs(run.packed.interner)

    return _Prepared(action, **detail)


def _mixed_batch(
    scenario: Scenario, scale: ScenarioScale, run_id: str, run: "Run"
) -> "list[QueryRequest]":
    """A deterministic service batch: pairwise + reachability + (optionally)
    unsafe all-pairs requests, per ``params['unsafe_query']``."""
    import itertools

    from repro.service import QueryRequest

    size = max(8, int(scenario.param("batch_size", 96)) // scale.batch_divisor)
    nodes = run.node_ids()
    sources = nodes[: max(2, size // 4)]
    targets = nodes[-max(2, size // 4):]
    queries = itertools.cycle(
        [str(query) for query in scenario.param("batch_queries", ("_*",))]
    )
    unsafe_query = scenario.param("unsafe_query")
    requests = []
    for position in range(size):
        source = sources[position % len(sources)]
        target = targets[position % len(targets)]
        if unsafe_query is not None and position % 5 == 4:
            requests.append(
                QueryRequest(
                    op="allpairs",
                    run=run_id,
                    query=str(unsafe_query),
                    sources=tuple(sources[:4]),
                    targets=tuple(targets[:4]),
                )
            )
        elif position % 4 == 3:
            requests.append(
                QueryRequest(op="reachability", run=run_id, source=source, target=target)
            )
        else:
            requests.append(
                QueryRequest(
                    op="pairwise", run=run_id, query=next(queries),
                    source=source, target=target,
                )
            )
    return requests


def _batch_summary(results: "Sequence[QueryResult]") -> dict[str, object]:
    return {
        "requests": len(results),
        "ok": sum(result.ok for result in results),
        "answers": result_checksum(
            [
                [result.request_id, result.ok, _canonical(result.answer), _canonical(result.pairs)]
                for result in results
            ]
        ),
    }


def _build_service_batch(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Service throughput: one mixed batch through a QueryService.

    ``params['mode']``: ``"cold"`` builds a fresh service per repetition
    (first-contact cost), ``"warm"`` reuses one pre-warmed service (steady
    state).
    """
    from repro.service import QueryService

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    requests = _mixed_batch(scenario, scale, "bench", run)
    mode = str(scenario.param("mode", "warm"))

    if mode == "cold":

        def action() -> dict[str, object]:
            service = QueryService(max_workers=4)
            service.register_run(run, "bench")
            return _batch_summary(service.run_batch(requests))

    else:
        service = QueryService(max_workers=4)
        service.register_run(run, "bench")
        service.run_batch(requests)  # warm the cache

        def action() -> dict[str, object]:
            return _batch_summary(service.run_batch(requests))

    return _Prepared(action, requests=len(requests), mode=mode)


def _build_warm_restart(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Store restarts: first-contact batch from a fresh service, with
    (``executor.store``) or without a pre-built persistent store."""
    import tempfile
    from pathlib import Path

    from repro.service import QueryService
    from repro.workflow.serialization import save_run

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    queries = [str(query) for query in scenario.param("batch_queries", ("_*",))]
    nodes = run.node_ids()
    batch = [
        {
            "op": "pairwise",
            "run": "bench",
            "query": query,
            "source": nodes[position % len(nodes)],
            "target": nodes[-1 - position % len(nodes)],
        }
        for position, query in enumerate(queries)
    ]
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    run_file = scratch / "run.json"
    save_run(run, run_file)
    store_dir = None
    if scenario.executor.store:
        store_dir = scratch / "store"
        warmer = QueryService(store_dir=store_dir)
        warmer.register_run(run, "bench")
        statuses = warmer.warm("bench", queries)
        bad = {query: status for query, status in statuses.items() if status.startswith("error")}
        if bad:
            raise ScenarioError(f"scenario {scenario.id!r}: store warm-up failed: {bad}")

    def action() -> dict[str, object]:
        if store_dir is not None:
            service = QueryService(store_dir=store_dir)
        else:
            service = QueryService()
            service.load_run_file(run_file, run_id="bench")
        return _batch_summary(service.run_batch(batch))

    return _Prepared(action, queries=len(batch), store=store_dir is not None)


def _build_obs_overhead(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Tracer overhead pair: the same all-pairs evaluation with either the
    null tracer (the production default — ``params['traced']`` false) or a
    recording :class:`~repro.obs.Tracer` installed.  Both arms produce the
    identical pair set, so the checksum pins correctness while the
    ``tracer-overhead`` invariant bounds the traced arm's cost."""
    from repro.core.decomposition import evaluate_general_query, plan_decomposition
    from repro.obs import NULL_TRACER, Tracer, use_tracer

    run = _make_run(scenario, scale)
    query = _resolved_query(scenario, run)
    plan = plan_decomposition(run.spec, query)
    l1, l2 = _lists(run, scenario, scale)
    traced = bool(scenario.param("traced", False))
    recorder = Tracer() if traced else None

    def action() -> "Iterable[tuple[str, str]]":
        tracer: Any = recorder if recorder is not None else NULL_TRACER
        if recorder is not None:
            recorder.clear()  # bound memory across repetitions
        with use_tracer(tracer):
            return evaluate_general_query(run, query, l1, l2, plan=plan).to_pairs(
                run.packed.interner
            )

    evaluate_general_query(run, query, l1[:1], l2[:1], plan=plan)  # warm the plan
    return _Prepared(action, query=query, traced=traced, l1=len(l1))


WORKLOADS: dict[str, Callable[[Scenario, ScenarioScale], _Prepared]] = {
    "overhead": _build_overhead,
    "obs-overhead": _build_obs_overhead,
    "pairwise": _build_pairwise,
    "safe-allpairs": _build_allpairs,
    "unsafe-allpairs": _build_allpairs,
    "adversarial-unsafe": _build_allpairs,
    "per-seed-frontier": _build_allpairs,
    "kleene-allpairs": _build_kleene,
    "service-batch": _build_service_batch,
    "warm-restart": _build_warm_restart,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Time a fixed pure-Python busy loop (best of 5).

    Stored in every trajectory document; the gate normalizes medians by the
    calibration ratio so a slower CI runner does not read as a regression.
    """
    def busy() -> int:
        total = 0
        for value in range(120_000):
            total += value * 3 & 0xFFFF
        return total

    return min(_time(busy)[0] for _ in range(5))


def _time(action: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    result = action()
    return time.perf_counter() - started, result


def resolve_scale(name: str) -> ScenarioScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ScenarioError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None


def run_scenario(
    scenario: Scenario,
    scale: str | ScenarioScale = "ci",
    *,
    repetitions: int | None = None,
) -> ScenarioResult:
    """Execute one scenario: build its workload, time it, checksum it."""
    profile = resolve_scale(scale) if isinstance(scale, str) else scale
    try:
        builder = WORKLOADS[scenario.query_class]
    except KeyError:
        raise ScenarioError(
            f"scenario {scenario.id!r} has unknown query class "
            f"{scenario.query_class!r}; use one of {sorted(WORKLOADS)}"
        ) from None
    prepared = builder(scenario, profile)
    reps = repetitions if repetitions is not None else profile.repetitions
    times: list[float] = []
    checksum = ""
    for _ in range(max(1, reps)):
        elapsed, result = _time(prepared.action)
        times.append(elapsed)
        digest = result_checksum(result)
        if checksum and digest != checksum:
            raise ScenarioError(
                f"scenario {scenario.id!r} is non-deterministic: repetition "
                f"checksums {checksum} != {digest}"
            )
        checksum = digest
    return ScenarioResult(
        scenario_id=scenario.id,
        factors=scenario.factors(),
        repetitions=len(times),
        times_s=times,
        checksum=checksum,
        detail=prepared.detail,
    )


def run_suite(
    scenarios: Sequence[Scenario],
    scale: str = "ci",
    *,
    suite: str = "ci",
    repetitions: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run a scenario list and assemble the trajectory document."""
    profile = resolve_scale(scale)
    results: list[ScenarioResult] = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"running {scenario.id} ...")
        result = run_scenario(scenario, profile, repetitions=repetitions)
        if progress is not None:
            progress(
                f"  {scenario.id}: median {result.median_s * 1000:.1f} ms, "
                f"checksum {result.checksum}"
            )
        results.append(result)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "scale": profile.name,
        "calibration_s": round(calibrate(), 6),
        "cpus": os.cpu_count() or 1,
        "scenarios": [result.as_dict() for result in results],
    }


#: Under this many repetitions the interpolated p95 is about the maximum,
#: so the tables print ``-`` for it (the document keeps the value).
MIN_P95_REPETITIONS = 20


def _p95_ms(entry: Mapping[str, Any]) -> float | str:
    if entry.get("repetitions", 0) < MIN_P95_REPETITIONS:
        return "-"
    return 1000 * float(entry.get("p95_s", 0.0))


def run_table(document: Mapping[str, Any]) -> list[dict[str, object]]:
    """Flatten a trajectory document into printable run-table rows."""
    rows = []
    for entry in document.get("scenarios", []):
        factors = entry.get("factors", {})
        executor = factors.get("executor", {})
        rows.append(
            {
                "scenario": entry.get("id", "?"),
                "grammar": factors.get("grammar", "?"),
                "class": factors.get("query_class", "?"),
                "exec": str(executor.get("direction", "-"))
                + ("+store" if executor.get("store") else ""),
                "reps": entry.get("repetitions", 0),
                "median_ms": 1000 * entry.get("median_s", 0.0),
                "p95_ms": _p95_ms(entry),
                "checksum": entry.get("checksum", ""),
            }
        )
    return rows


def figure_disagreements(
    group: FigureGroup, entries: Mapping[str, Mapping[str, Any]]
) -> list[str]:
    """Rows of ``group`` whose arms differ only in engine yet answered
    differently, one message each (``entries`` maps scenario id -> row)."""
    problems = []
    for point in group.points:
        answers: dict[Params, tuple[str, object]] = {}
        for label, params in group.arms_at(point):
            entry = entries.get(group.scenario_id(point, label))
            if entry is None:
                continue
            workload = tuple(item for item in params if item[0] != "engine")
            first_label, first = answers.setdefault(workload, (label, entry["checksum"]))
            if entry["checksum"] != first:
                problems.append(
                    f"{group.id} at {_point_text(point)}: engines disagree: "
                    f"{first_label} answered {first}, {label} answered {entry['checksum']}"
                )
    return problems


def _figure_cell(column: str, ran: list[tuple[str, Mapping[str, Any]]]) -> object:
    if column == "matches":
        return int(str(ran[0][1]["checksum"]).partition(":")[0])
    if column == "fastest":
        return min(ran, key=lambda arm: float(arm[1]["median_s"]))[0]
    for _, entry in ran:
        detail = entry.get("detail")
        if isinstance(detail, Mapping) and column in detail:
            return detail[column]
    return "-"


def figure_rows(group: FigureGroup, document: Mapping[str, Any]) -> list[dict[str, object]]:
    """Pivot a run document into the figure's table: one row per point with
    its x columns, ``group.columns`` and a median/p95 pair per arm.

    Raises :class:`ScenarioError` when two arms of a row that differ only
    in engine returned different checksums.
    """
    entries = {entry["id"]: entry for entry in document.get("scenarios", [])}
    problems = figure_disagreements(group, entries)
    if problems:
        raise ScenarioError("; ".join(problems))
    x_columns = list(dict.fromkeys(key for point in group.points for key, _ in point))
    rows = []
    for point in group.points:
        ran = [
            (label, entries[scenario_id])
            for label, _ in group.arms_at(point)
            if (scenario_id := group.scenario_id(point, label)) in entries
        ]
        row: dict[str, object] = {key: dict(point).get(key, "-") for key in x_columns}
        for column in group.columns:
            row[column] = _figure_cell(column, ran)
        for label, entry in ran:
            row[f"{label}_ms"] = 1000 * float(entry["median_s"])
            row[f"{label}_p95_ms"] = _p95_ms(entry)
        rows.append(row)
    return rows


def render_figure(group: FigureGroup, document: Mapping[str, Any]) -> str:
    """The figure's title, the paper's expected shape and its table."""
    return "\n".join(
        [
            f"== {group.id}: {group.title} ==",
            f"expected shape (paper): {group.expected}",
            format_table(figure_rows(group, document)),
        ]
    )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value * 1e6:.1f}u"
        return f"{value:.4f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]], columns: Iterable[str] | None = None
) -> str:
    """Render a list of dictionaries as an aligned text table (``-`` where a
    row lacks a column)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    columns = list(columns)
    table = [[_format_value(row.get(column, "-")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in table))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in table
    ]
    return "\n".join([header, separator, *body])
