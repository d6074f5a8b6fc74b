"""Declarative benchmark scenarios and the generic harness that runs them.

A :class:`Scenario` is a pure config object describing one benchmark as a
point in a factor space — grammar family × run size × query class × executor
configuration (``direction``, ``workers``, ``strategy``, store on/off) — plus
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
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.exec import ExecutorConfig
    from repro.core.relations import NodePairs
    from repro.service.requests import QueryRequest, QueryResult
    from repro.workflow.run import Run
    from repro.workflow.spec import Specification

__all__ = [
    "SCHEMA",
    "SCALES",
    "ExecutorFactors",
    "Invariant",
    "Scenario",
    "ScenarioResult",
    "ScenarioScale",
    "calibrate",
    "resolve_grammar",
    "run_scenario",
    "run_suite",
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

    Mirrors the executor knobs: frontier ``direction``, parallel ``workers``
    fan-out, unsafe-remainder ``strategy``, and whether a persistent
    :class:`~repro.store.IndexStore` backs the service (``store``).
    """

    direction: str = "auto"
    workers: int = 1
    strategy: str = "auto"
    store: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "direction": self.direction,
            "workers": self.workers,
            "strategy": self.strategy,
            "store": self.store,
        }


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
    list_limit: int  # all-pairs node-list sample bound
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
    params: tuple[tuple[str, object], ...] = ()
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
    (backward beats forward, parallel ≥ 2x, warm restart ≥ 4.5x): the gate
    checks them on the *current* results, independently of the stored
    trajectory.  ``min_cpus`` guards claims the hardware cannot express.
    """

    id: str
    fast: str  # scenario id expected to be faster
    slow: str  # scenario id expected to be slower
    factor: float = 1.0  # require slow_median >= factor * fast_median
    min_cpus: int = 1
    note: str = ""


@dataclass
class ScenarioResult:
    """One uniform run-table row."""

    scenario_id: str
    factors: dict[str, object]
    repetitions: int
    times_s: list[float]
    checksum: str
    detail: str = ""

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
    def __init__(self, action: Callable[[], object], detail: str = "") -> None:
        self.action = action
        self.detail = detail


def _edges(scenario: Scenario, scale: ScenarioScale) -> int:
    return max(scale.min_edges, scenario.run_edges // scale.edge_divisor)


def _lists(
    run: "Run", scenario: Scenario, scale: ScenarioScale
) -> tuple[list[str], list[str]]:
    from repro.datasets.runs import node_lists

    limit = scale.list_limit
    override = scenario.param("list_limit")
    if override is not None and limit is not None:
        limit = min(int(override), limit)
    elif override is not None:
        limit = int(override)
    return node_lists(run, limit=limit, seed=scenario.seed + 2)


def _executor_config(scenario: Scenario) -> "ExecutorConfig":
    from repro.core.exec import ExecutorConfig

    return ExecutorConfig(
        direction=scenario.executor.direction,
        workers=scenario.executor.workers,
    )


def _make_run(
    scenario: Scenario, scale: ScenarioScale, spec: "Specification | None" = None
) -> "Run":
    from repro.datasets.runs import generate_run

    spec = spec if spec is not None else resolve_grammar(scenario.grammar)
    return generate_run(spec, _edges(scenario, scale), seed=scenario.seed + 1)


def _build_overhead(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Fig. 13a/b: per-query safety-check + index-build overhead."""
    from repro.core.query_index import build_query_index
    from repro.core.safety import analyze_safety, query_dfa
    from repro.datasets.queries import generate_ifq

    spec = resolve_grammar(scenario.grammar)
    count = int(scenario.param("queries", 8))
    if scale.name == "smoke":
        count = min(count, 2)
    k = int(scenario.param("k", 3))
    queries = [generate_ifq(spec, k, seed=scenario.seed + index * 31) for index in range(count)]

    def action() -> dict[str, int]:
        safe = 0
        for query in queries:
            report = analyze_safety(spec, query_dfa(spec, query))
            if report.is_safe:
                build_query_index(spec, query)
                safe += 1
        return {"queries": len(queries), "safe": safe}

    return _Prepared(action, detail=f"{count} IFQs (k={k})")


def _build_pairwise(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Fig. 13c/d: per-pair decode over a sampled pair batch."""
    import random

    from repro.core.pairwise import answer_pairwise_query
    from repro.core.query_index import build_query_index

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    pair_count = max(20, int(scenario.param("pairs", 600)) // scale.batch_divisor)
    rng = random.Random(scenario.seed + 3)
    nodes = list(run.node_ids())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(pair_count)]
    query = _resolved_query(scenario, run, require_safe=True)
    query_index = build_query_index(spec, query)

    def action() -> dict[str, int]:
        matched = 0
        for source, target in pairs:
            if answer_pairwise_query(query_index, run.label_of(source), run.label_of(target)):
                matched += 1
        return {"pairs": len(pairs), "matched": matched}

    return _Prepared(action, detail=f"{pair_count} pairs, query {query!r}")


def _resolved_query(
    scenario: Scenario,
    run: "Run",
    *,
    require_safe: bool = False,
    require_unsafe: bool = False,
) -> str:
    """The scenario's query: explicit ``params['query']``, or a generated
    IFQ (``params['prefer']`` biases tag frequency) filtered by safety."""
    from repro.core.decomposition import plan_decomposition
    from repro.datasets.index import EdgeTagIndex
    from repro.datasets.queries import generate_ifq, generate_ifq_along_path

    explicit = scenario.param("query")
    if explicit is not None:
        return str(explicit)
    spec = run.spec
    index = EdgeTagIndex.from_run(run)
    k = int(scenario.param("k", 3))
    prefer = scenario.param("prefer")

    def matches(query: str) -> bool:
        plan = plan_decomposition(spec, query)
        if require_safe and not plan.is_fully_safe:
            return False
        if require_unsafe and plan.is_fully_safe:
            return False
        return True

    for attempt in range(80):
        query = generate_ifq_along_path(
            run, k, seed=scenario.seed + attempt * 101, prefer=prefer, index=index
        )
        if matches(query):
            return query
    # Small runs may not offer length-k walks with the required safety, so
    # fall back to grammar-wide IFQs (still deterministic, still checked).
    for attempt in range(40):
        query = generate_ifq(spec, k, seed=scenario.seed + attempt * 17)
        if matches(query):
            return query
    raise ScenarioError(
        f"scenario {scenario.id!r}: could not generate a "
        f"{'safe' if require_safe else 'matching'} query for grammar {scenario.grammar!r}"
    )


def _build_allpairs(scenario: Scenario, scale: ScenarioScale) -> _Prepared:
    """Safe/unsafe all-pairs evaluation with the scenario's executor factors.

    ``params['lists']`` shapes the restriction lists: ``"all"`` (sampled
    node lists), ``"restricted"`` (a handful of each — the pushdown regime),
    or ``"few-targets"`` (every node as a source, the three largest-closure
    nodes as targets — the backward-direction regime).
    """
    from repro.core.decomposition import evaluate_general_query, plan_decomposition
    from repro.core.relations import backward_closure_nodes

    spec = resolve_grammar(scenario.grammar)
    run = _make_run(scenario, scale, spec)
    query = _resolved_query(
        scenario,
        run,
        require_safe=scenario.query_class == "safe-allpairs",
        require_unsafe=scenario.query_class in ("unsafe-allpairs", "adversarial-unsafe"),
    )
    plan = plan_decomposition(spec, query)
    shape = str(scenario.param("lists", "all"))
    if shape == "few-targets":
        l1 = list(run.node_ids())
        l2 = sorted(
            l1, key=lambda node: len(backward_closure_nodes(run, [node])), reverse=True
        )[:3]
    elif shape == "restricted":
        sampled1, sampled2 = _lists(run, scenario, scale)
        l1, l2 = sampled1[:5], sampled2[-5:]
    else:
        l1, l2 = _lists(run, scenario, scale)
    executor = _executor_config(scenario)
    kwargs = {
        "plan": plan,
        "strategy": scenario.executor.strategy,
        "direction": scenario.executor.direction,
        "executor": executor,
    }

    def action() -> "NodePairs":
        return evaluate_general_query(run, query, l1, l2, **kwargs)

    # Warm the plan's memoized (possibly reversed) macro DFAs so repetitions
    # time execution, not one-off planning.
    evaluate_general_query(run, query, l1[:1], l2[:1], **kwargs)
    return _Prepared(
        action,
        detail=f"query {query!r}, |l1|={len(l1)}, |l2|={len(l2)}, {_edges(scenario, scale)} edges",
    )


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

    def action() -> "NodePairs":
        return evaluate_general_query(run, query, l1, l2)

    return _Prepared(action, detail=f"query {query!r}, |l1|={len(l1)}")


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

    return _Prepared(action, detail=f"{len(requests)} requests, mode={mode}")


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

    return _Prepared(
        action, detail=f"{len(batch)} first-contact queries, store={'on' if store_dir else 'off'}"
    )


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

    def action() -> "NodePairs":
        tracer: Any = recorder if recorder is not None else NULL_TRACER
        if recorder is not None:
            recorder.clear()  # bound memory across repetitions
        with use_tracer(tracer):
            return evaluate_general_query(run, query, l1, l2, plan=plan)

    evaluate_general_query(run, query, l1[:1], l2[:1], plan=plan)  # warm the plan
    return _Prepared(
        action,
        detail=f"query {query!r}, traced={traced}, |l1|={len(l1)}",
    )


WORKLOADS: dict[str, Callable[[Scenario, ScenarioScale], _Prepared]] = {
    "overhead": _build_overhead,
    "obs-overhead": _build_obs_overhead,
    "pairwise": _build_pairwise,
    "safe-allpairs": _build_allpairs,
    "unsafe-allpairs": _build_allpairs,
    "adversarial-unsafe": _build_allpairs,
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
                f"p95 {result.p95_s * 1000:.1f} ms, checksum {result.checksum}"
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
                "exec": "/".join(
                    str(executor.get(key, "-"))
                    for key in ("strategy", "direction", "workers")
                )
                + ("+store" if executor.get("store") else ""),
                "reps": entry.get("repetitions", 0),
                "median_ms": 1000 * entry.get("median_s", 0.0),
                "p95_ms": 1000 * entry.get("p95_s", 0.0),
                "checksum": entry.get("checksum", ""),
            }
        )
    return rows
