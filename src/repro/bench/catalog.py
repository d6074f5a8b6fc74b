"""The scenario catalog: every benchmark of the repo as a declarative entry.

The entries fall into two groups:

* **ported** — the claims the old hand-rolled ``bench_*.py`` scripts tracked
  (fig13 overhead/pairwise/all-pairs/Kleene, fig15 restriction pushdown,
  service throughput, store warm restarts, frontier direction/parallelism),
  now expressed as points in the factor space of
  :class:`~repro.bench.scenarios.Scenario`;
* **new coverage** — the synthetic grammar families (deep recursion, wide
  alternation, dense wildcards), an adversarial dense-wildcard unsafe query,
  and a mixed safe/unsafe service batch, which the declarative matrix makes
  cheap to add.

:data:`INVARIANTS` declares the cross-scenario performance relations the old
scripts asserted inline (backward < forward, parallel ≥ 2x, warm restart
≥ 4.5x); ``repro bench gate`` enforces them on every gated run.
:func:`check_catalog` is the fail-fast validation behind ``repro bench
check``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.scenarios import (
    SCALES,
    ExecutorFactors,
    Invariant,
    Scenario,
    ScenarioError,
    WORKLOADS,
    resolve_grammar,
    run_scenario,
)
from repro.errors import ReproError

__all__ = ["CATALOG", "INVARIANTS", "check_catalog", "get_scenario", "select"]

_CI = ("ci", "full")

#: The frontier-direction/parallelism workload shared by four entries below:
#: a large loop-heavy QBLast run, every node as a source, three
#: high-fan-in targets — the regime where direction and fan-out matter.
_FRONTIER = {
    "grammar": "qblast",
    "query_class": "unsafe-allpairs",
    "run_edges": 9000,
    "params": (("query", "_* qx_b _*"), ("lists", "few-targets")),
    "suites": _CI,
}

#: First-contact queries in the Fig. 13b overhead regime (multi-state DFAs),
#: the workload whose per-query build cost the store elides.
_RESTART_QUERIES = (
    "_* B1 _* B2 _* B3 _* B4 _* B5 _*",
    "_* q_prep _* B1 _* B2 _* B3 _* B4 _*",
    "(_* B1 _* q_prep _* B2 _*) | (_* B3 _* B4 _* B5 _*)",
    "(B1 | q_prep)+ . _* . (B2 | B3)+ . _* . (B4 | B5)+",
    "_* B5 _* B4 _* B3 _* B2 _* B1 _*",
    "(_* q_prep _* B5 _*) | (_* B1 _* B2 _* B3 _* B4 _*)",
)

CATALOG: tuple[Scenario, ...] = (
    # -- ported: fig13a/b — safety-check overhead -------------------------------
    Scenario(
        id="fig13a-overhead-synthetic",
        title="safety-check overhead, synthetic grammar (Fig. 13a)",
        grammar="synthetic:400",
        query_class="overhead",
        run_edges=0,
        params=(("queries", 10), ("k", 3)),
        suites=_CI,
    ),
    Scenario(
        id="fig13b-overhead-bioaid",
        title="safety-check overhead vs query size, BioAID (Fig. 13b)",
        grammar="bioaid",
        query_class="overhead",
        run_edges=0,
        params=(("queries", 10), ("k", 6)),
        suites=_CI,
    ),
    # -- ported: fig13c/d — pairwise decode -------------------------------------
    Scenario(
        id="fig13c-pairwise-bioaid",
        title="pairwise IFQ decode per pair, BioAID (Fig. 13c)",
        grammar="bioaid",
        query_class="pairwise",
        run_edges=1000,
        params=(("pairs", 600), ("k", 3)),
        suites=_CI,
    ),
    Scenario(
        id="fig13d-pairwise-qblast",
        title="pairwise IFQ decode at larger k, QBLast (Fig. 13d)",
        grammar="qblast",
        query_class="pairwise",
        run_edges=1000,
        params=(("pairs", 600), ("k", 6)),
        suites=_CI,
    ),
    # -- ported: fig13e/f — all-pairs safe IFQs ---------------------------------
    Scenario(
        id="fig13e-allpairs-ifq-bioaid",
        title="all-pairs safe IFQ, BioAID (Fig. 13e)",
        grammar="bioaid",
        query_class="safe-allpairs",
        run_edges=1500,
        params=(("k", 3),),
        suites=_CI,
    ),
    Scenario(
        id="fig13f-allpairs-ifq-qblast",
        title="all-pairs safe IFQ, QBLast (Fig. 13f)",
        grammar="qblast",
        query_class="safe-allpairs",
        run_edges=1500,
        params=(("k", 3),),
        # seed chosen so the sampled IFQ's endpoints survive the ci-scale
        # list cap: a zero-pair checksum would gate nothing.
        seed=3,
        suites=_CI,
    ),
    # -- ported: fig13g/h — all-pairs Kleene star -------------------------------
    Scenario(
        id="fig13g-kleene-bioaid",
        title="all-pairs Kleene star on fork-heavy BioAID runs (Fig. 13g)",
        grammar="bioaid",
        query_class="kleene-allpairs",
        run_edges=4000,
        params=(("kleene_tag", "f1_fork"),),
        suites=_CI,
    ),
    Scenario(
        id="fig13h-kleene-qblast",
        title="all-pairs Kleene star on loop-heavy QBLast runs (Fig. 13h)",
        grammar="qblast",
        query_class="kleene-allpairs",
        run_edges=4000,
        params=(("kleene_tag", "q1_loop"),),
        suites=_CI,
    ),
    # -- ported: fig15 — unsafe queries and restriction pushdown ----------------
    Scenario(
        id="fig15-unsafe-bioaid",
        title="unsafe query via decomposition, BioAID (Fig. 15)",
        grammar="bioaid",
        query_class="unsafe-allpairs",
        run_edges=1200,
        params=(("query", "_* f1_fork _*"),),
        suites=_CI,
    ),
    Scenario(
        id="fig15-restricted-pushdown-qblast",
        title="restricted (5x5) unsafe query: pushdown regime (PR 3)",
        grammar="qblast",
        query_class="unsafe-allpairs",
        run_edges=3000,
        params=(("query", "_* qx_b _*"), ("lists", "restricted")),
        suites=_CI,
    ),
    # -- ported: executor direction + parallelism (PR 5) ------------------------
    Scenario(
        id="frontier-forward",
        title="frontier search, forward from every source",
        executor=ExecutorFactors(strategy="frontier", direction="forward"),
        **_FRONTIER,
    ),
    Scenario(
        id="frontier-backward",
        title="frontier search, backward from the three targets",
        executor=ExecutorFactors(strategy="frontier", direction="backward"),
        **_FRONTIER,
    ),
    Scenario(
        id="frontier-parallel-4w",
        title="frontier search, 4-worker per-seed fan-out",
        executor=ExecutorFactors(strategy="frontier", direction="forward", workers=4),
        **_FRONTIER,
    ),
    # -- ported: service throughput (PR 1/2) ------------------------------------
    Scenario(
        id="service-throughput-cold",
        title="mixed batch through a fresh service (first-contact cost)",
        grammar="qblast",
        query_class="service-batch",
        run_edges=600,
        params=(
            ("mode", "cold"),
            ("batch_size", 96),
            ("batch_queries", ("_* B1 _*", "_* q_prep _*", "(_* B1 _*) | (_* q_prep _*)")),
        ),
        suites=_CI,
    ),
    Scenario(
        id="service-throughput-warm",
        title="mixed batch through a warm long-lived service (steady state)",
        grammar="qblast",
        query_class="service-batch",
        run_edges=600,
        params=(
            ("mode", "warm"),
            ("batch_size", 96),
            ("batch_queries", ("_* B1 _*", "_* q_prep _*", "(_* B1 _*) | (_* q_prep _*)")),
        ),
        suites=_CI,
    ),
    # -- ported: store warm restarts (PR 4) -------------------------------------
    Scenario(
        id="store-restart-cold",
        title="fresh-service first-contact batch, no store",
        grammar="qblast",
        query_class="warm-restart",
        run_edges=600,
        executor=ExecutorFactors(store=False),
        params=(("batch_queries", _RESTART_QUERIES),),
        suites=_CI,
    ),
    Scenario(
        id="store-restart-warm",
        title="fresh-service first-contact batch from a pre-built store",
        grammar="qblast",
        query_class="warm-restart",
        run_edges=600,
        executor=ExecutorFactors(store=True),
        params=(("batch_queries", _RESTART_QUERIES),),
        suites=_CI,
    ),
    # -- new coverage: synthetic grammar families -------------------------------
    # Deep recursion makes every tag count execution-dependent, so *all*
    # IFQs over this family are unsafe: exactly the decomposition-heavy
    # regime the family exists to stress.
    Scenario(
        id="deep-recursion-unsafe",
        title="unsafe IFQ over a deeply recursive synthetic grammar",
        grammar="deep-recursion:300",
        query_class="unsafe-allpairs",
        run_edges=1200,
        params=(("k", 3),),
        suites=_CI,
    ),
    Scenario(
        id="wide-alternation-unsafe",
        title="unsafe query over an alternative-rich synthetic grammar",
        grammar="wide-alternation:300",
        query_class="unsafe-allpairs",
        run_edges=1200,
        params=(("query", "_* op0 _*"),),
        suites=_CI,
    ),
    Scenario(
        id="dense-wildcard-adversarial",
        title="adversarial dense-wildcard unsafe query (frontier stays saturated)",
        grammar="dense-wildcard:250",
        query_class="adversarial-unsafe",
        run_edges=1500,
        params=(("query", "_* op0 _* op0 _*"),),
        suites=_CI,
    ),
    # -- new coverage: packed join kernel ---------------------------------------
    # Join-strategy evaluation of a wildcard-dense unsafe query: the regime
    # where relation algebra dominates, so the row tracks the packed bitset
    # compose/closure kernel every join runs on.
    Scenario(
        id="kernel-packed-join",
        title="dense-wildcard join evaluation on the packed bitset kernel",
        grammar="dense-wildcard:250",
        query_class="unsafe-allpairs",
        run_edges=1200,
        executor=ExecutorFactors(strategy="join"),
        params=(("query", "_* op0 _*"),),
        seed=1,
        suites=_CI,
    ),
    # -- new coverage: observability overhead -----------------------------------
    # The same unsafe all-pairs evaluation, with and without a recording
    # tracer installed; the 'tracer-overhead' invariant bounds the gap, and
    # the untraced arm doubles as the null-tracer-cost regression guard.
    Scenario(
        id="obs-untraced",
        title="all-pairs evaluation under the null tracer (production default)",
        grammar="qblast",
        query_class="obs-overhead",
        run_edges=1500,
        params=(("query", "_* qx_b _*"), ("traced", False)),
        suites=_CI,
    ),
    Scenario(
        id="obs-traced",
        title="the same all-pairs evaluation under a recording tracer",
        grammar="qblast",
        query_class="obs-overhead",
        run_edges=1500,
        params=(("query", "_* qx_b _*"), ("traced", True)),
        suites=_CI,
    ),
    # -- new coverage: mixed safe/unsafe batch ----------------------------------
    Scenario(
        id="mixed-batch-qblast",
        title="service batch mixing safe pairwise with unsafe all-pairs requests",
        grammar="qblast",
        query_class="service-batch",
        run_edges=600,
        params=(
            ("mode", "warm"),
            ("batch_size", 80),
            ("batch_queries", ("_* B1 _*", "_* q_prep _*")),
            ("unsafe_query", "_* qx_b _*"),
        ),
        suites=_CI,
    ),
)

INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        id="backward-beats-forward",
        fast="frontier-backward",
        slow="frontier-forward",
        note="with |l2|=3 and |l1|=all nodes the reversed-DFA search must win",
    ),
    Invariant(
        id="parallel-2x",
        fast="frontier-parallel-4w",
        slow="frontier-forward",
        factor=2.0,
        min_cpus=4,
        note="per-seed process fan-out at 4 workers must give >= 2x",
    ),
    # The dedicated store benchmark historically showed ~4.5-6x; the bound
    # here is looser because the scenario repays service construction and
    # batch evaluation in both arms, which dilutes the ratio and adds noise.
    Invariant(
        id="warm-restart-3.5x",
        fast="store-restart-warm",
        slow="store-restart-cold",
        factor=3.5,
        note="store-backed restart must elide >= 3.5x of the first-contact cost",
    ),
    Invariant(
        id="service-cache-wins",
        fast="service-throughput-warm",
        slow="service-throughput-cold",
        note="a warm shared cache must beat per-batch rebuilds",
    ),
    # Deliberately inverted roles: the gate checks slow >= factor * fast, so
    # naming the *untraced* arm as 'slow' with factor 0.8 bounds the traced
    # arm at <= 1.25x of the untraced baseline.
    Invariant(
        id="tracer-overhead",
        fast="obs-traced",
        slow="obs-untraced",
        factor=0.8,
        note="a recording tracer may cost at most 25% over the null-tracer path",
    ),
)


def get_scenario(scenario_id: str) -> Scenario:
    for scenario in CATALOG:
        if scenario.id == scenario_id:
            return scenario
    raise ScenarioError(
        f"unknown scenario {scenario_id!r}; run 'repro bench list' for the catalog"
    )


def select(
    *, suite: str = "ci", ids: Sequence[str] | None = None
) -> tuple[Scenario, ...]:
    """Scenarios to run: an explicit id list, or every member of a suite."""
    if ids:
        return tuple(get_scenario(scenario_id) for scenario_id in ids)
    chosen = tuple(scenario for scenario in CATALOG if scenario.in_suite(suite))
    if not chosen:
        known = sorted({name for scenario in CATALOG for name in scenario.suites})
        raise ScenarioError(f"no scenarios in suite {suite!r}; known suites: {known + ['all']}")
    return chosen


def check_catalog(
    *,
    runnable: bool = False,
    scale: str = "smoke",
    progress: Callable[[str], None] | None = None,
) -> list[str]:
    """Validate the catalog; returns a list of problems (empty = healthy).

    Static checks: unique ids, resolvable grammar factors, known query
    classes and scales, executor factors that construct, invariants that
    reference existing scenarios.  With ``runnable=True`` every entry is
    additionally *executed* at the given scale, so a broken benchmark
    definition fails fast without timing anything meaningful.
    """
    problems: list[str] = []
    seen: set[str] = set()
    for scenario in CATALOG:
        if scenario.id in seen:
            problems.append(f"duplicate scenario id {scenario.id!r}")
        seen.add(scenario.id)
        if scenario.query_class not in WORKLOADS:
            problems.append(
                f"{scenario.id}: unknown query class {scenario.query_class!r}"
            )
        try:
            resolve_grammar(scenario.grammar)
        except ScenarioError as error:
            problems.append(f"{scenario.id}: {error}")
        try:
            from repro.core.exec import ExecutorConfig

            ExecutorConfig(
                direction=scenario.executor.direction,
                workers=scenario.executor.workers,
            )
            if scenario.executor.strategy not in ("auto", "frontier", "join"):
                raise ValueError(f"unknown strategy {scenario.executor.strategy!r}")
        except ValueError as error:
            problems.append(f"{scenario.id}: bad executor factors: {error}")
        unknown_suites = set(scenario.suites) - set(_CI) - {"smoke"}
        if not scenario.suites or unknown_suites:
            problems.append(f"{scenario.id}: bad suites {scenario.suites!r}")
    for invariant in INVARIANTS:
        for reference in (invariant.fast, invariant.slow):
            if reference not in seen:
                problems.append(
                    f"invariant {invariant.id!r} references unknown scenario {reference!r}"
                )
    if scale not in SCALES:
        problems.append(f"unknown scale {scale!r}")
    if runnable and not problems:
        for scenario in CATALOG:
            if progress is not None:
                progress(f"running {scenario.id} at scale {scale} ...")
            try:
                result = run_scenario(scenario, scale, repetitions=1)
            except (ReproError, ValueError, KeyError) as error:
                problems.append(f"{scenario.id}: failed at scale {scale}: {error}")
            else:
                if not result.checksum:
                    problems.append(f"{scenario.id}: produced no checksum")
    return problems
