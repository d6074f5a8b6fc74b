"""The scenario catalog: every benchmark of the repo as a declarative entry.

The entries fall into three groups:

* **ported** — the claims the old hand-rolled ``bench_*.py`` scripts tracked
  (fig13 overhead/pairwise/all-pairs/Kleene, fig15 restriction pushdown,
  service throughput, store warm restarts, frontier direction),
  now expressed as points in the factor space of
  :class:`~repro.bench.scenarios.Scenario`;
* **new coverage** — the synthetic grammar families (deep recursion, wide
  alternation, dense wildcards), an adversarial dense-wildcard unsafe query,
  and a mixed safe/unsafe service batch, which the declarative matrix makes
  cheap to add;
* **figures** — :data:`FIGURES`, the paper's Section V figures and the
  ablations as :class:`~repro.bench.scenarios.FigureGroup` sweeps, expanded
  into the ``figures`` suite that ``repro bench figures`` renders as tables.

:data:`INVARIANTS` declares the cross-scenario performance relations the old
scripts asserted inline (backward < forward, warm restart ≥ 4.5x) plus the
sweep's margin over the per-seed search; ``repro bench gate`` enforces them
on every gated run.
:func:`check_catalog` is the fail-fast validation behind ``repro bench
check``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.scenarios import (
    SCALES,
    ExecutorFactors,
    FigureGroup,
    Invariant,
    Params,
    Scenario,
    ScenarioError,
    WORKLOADS,
    figure_disagreements,
    resolve_grammar,
    run_scenario,
)
from repro.datasets.myexperiment import BIOAID_KLEENE_TAG, QBLAST_KLEENE_TAG
from repro.errors import ReproError

__all__ = ["CATALOG", "FIGURES", "INVARIANTS", "check_catalog", "get_scenario", "select"]

_CI = ("ci", "full")

#: The frontier workload shared by three entries below: a large loop-heavy
#: QBLast run, every node as a source, three high-fan-in targets — the
#: regime where the direction and the number of seeds matter.
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
    # -- ported: executor direction (PR 5) ---------------------------------------
    Scenario(
        id="frontier-forward",
        title="frontier search, forward from every source",
        executor=ExecutorFactors(direction="forward"),
        **_FRONTIER,
    ),
    Scenario(
        id="frontier-backward",
        title="frontier search, backward from the three targets",
        executor=ExecutorFactors(direction="backward"),
        **_FRONTIER,
    ),
    # The same forward workload searched one seed at a time: the baseline
    # the multi-source sweep replaced.
    Scenario(
        id="frontier-per-seed",
        title="frontier search, forward, one search per source (baseline)",
        executor=ExecutorFactors(direction="forward"),
        **{**_FRONTIER, "query_class": "per-seed-frontier"},
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
    # -- new coverage: dense-wildcard all-pairs ----------------------------------
    # A wildcard-dense unsafe all-pairs query with node lists, on the
    # production path (one frontier sweep).  It used to force the packed
    # join; it keeps its id so the gate keeps checking its answer.
    Scenario(
        id="kernel-packed-join",
        title="dense-wildcard all-pairs on the production frontier sweep",
        grammar="dense-wildcard:250",
        query_class="unsafe-allpairs",
        run_edges=1200,
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

# -- the paper's Section V figures and the ablations, as sweeps ----------------
# Every group expands into the 'figures' suite; 'repro bench figures' renders
# each one as the paper's table.  Sweep sizes are the ci sizes; the ci scale
# caps node lists at 150, the full scale (the paper's setting) does not.


def _arms(production: str, *engines: str) -> tuple[tuple[str, Params], ...]:
    """The production arm, then one arm per baseline engine; ``"rpl=s1"``
    labels the ``s1`` engine's column ``rpl``."""
    arms: list[tuple[str, Params]] = [(production, ())]
    for engine in engines:
        label, _, name = engine.rpartition("=")
        arms.append((label or name, (("engine", name),)))
    return tuple(arms)


def _sweep(key: str, *values: object) -> tuple[Params, ...]:
    return tuple(((key, value),) for value in values)


#: The two workflows of Section V, each figure pair's second axis.
_WORKFLOWS = (("bioaid", "BioAID"), ("qblast", "QBLast"))

FIGURES: tuple[FigureGroup, ...] = (
    FigureGroup(
        id="fig13a",
        title="safety-check overhead vs grammar size (synthetic workflows, IFQ k=3)",
        expected="overhead grows with grammar size but stays far below query time",
        grammar="synthetic:200",
        query_class="overhead",
        params=(("queries", 10), ("k", 3)),
        points=_sweep("grammar", *(f"synthetic:{size}" for size in (200, 400, 600, 800))),
        arms=_arms("rpl"),
        columns=("queries", "states"),
    ),
    FigureGroup(
        id="fig13b",
        title="safety-check overhead vs query size k (BioAID and QBLast IFQs)",
        expected="overhead grows with k; both workflows stay in the same low range",
        grammar="bioaid",
        query_class="overhead",
        params=(("queries", 10),),
        points=tuple(
            (("grammar", grammar), ("k", k)) for grammar, _ in _WORKFLOWS for k in range(0, 11, 2)
        ),
        arms=_arms("rpl"),
        columns=("states",),
    ),
    FigureGroup(
        id="fig13c",
        title="pairwise IFQ (k=3) over 1000 node pairs vs run size (BioAID)",
        expected="RPL stays flat as the run grows; G3 and G2 grow with run size",
        grammar="bioaid",
        query_class="pairwise",
        run_edges=1000,
        params=(("pairs", 1000), ("k", 3)),
        points=_sweep("run_edges", 250, 500, 1000, 2000),
        arms=_arms("rpl", "g3", "g2"),
        columns=("edges", "pairs"),
    ),
    FigureGroup(
        id="fig13d",
        title="pairwise IFQ over 1000 node pairs vs query size k (BioAID)",
        expected="RPL grows mildly with k and stays below G2/G3 for k >= 1",
        grammar="bioaid",
        query_class="pairwise",
        run_edges=1000,
        params=(("pairs", 1000),),
        points=_sweep("k", *range(0, 11, 2)),
        arms=_arms("rpl", "g3", "g2"),
        seed=2,
        columns=("pairs",),
    ),
    # fig13e/f split 8 safe IFQs by selectivity: 4 from rare tags, 4 frequent.
    *(
        FigureGroup(
            id=f"fig13{letter}",
            title=f"all-pairs IFQs (k=3) on {name}: baseline G3 vs RPL vs optRPL",
            expected=(
                "the G3 baseline wins on highly selective IFQs and loses badly on lowly "
                "selective ones; optRPL <= RPL and both are insensitive to selectivity"
            ),
            grammar=grammar,
            query_class="safe-allpairs",
            run_edges=1500,
            params=(("k", 3),),
            points=tuple(
                (("prefer", prefer), ("query_rank", rank))
                for prefer in ("rare", "frequent")
                for rank in range(4)
            ),
            arms=_arms("optrpl", "rpl=s1", "g3"),
            columns=("matches",),
        )
        for letter, (grammar, name) in zip("ef", _WORKFLOWS)
    ),
    *(
        FigureGroup(
            id=f"fig13{letter}",
            title=f"all-pairs Kleene star {tag}* on fork-heavy {name} runs: G1 vs RPL vs optRPL",
            expected=(
                "the G1 fixpoint baseline grows sharply with run size; RPL/optRPL grow "
                "slowly and win by a widening margin; optRPL is close to RPL"
            ),
            grammar=grammar,
            query_class="kleene-allpairs",
            params=(("kleene_tag", tag),),
            points=_sweep("run_edges", 1000, 2000, 4000, 8000, 16000),
            arms=_arms("optrpl", "rpl=s1", "g1"),
            columns=("edges", "l1", "matches"),
        )
        for letter, (grammar, name), tag in zip(
            "gh", _WORKFLOWS, (BIOAID_KLEENE_TAG, QBLAST_KLEENE_TAG)
        )
    ),
    # fig15: G1 against the decomposition on the sampled lists, then the
    # paper's evaluate-then-restrict scheme against pushdown on 5x5 lists.
    *(
        FigureGroup(
            id=f"fig15{letter}",
            title=f"general (unsafe) queries on {name}: the decomposition vs G1",
            expected=(
                "for unsafe queries with lowly selective safe components the "
                "decomposition (optRPL) improves over the G1 baseline, often by more "
                "than 40%; on 5x5 lists pushdown beats evaluate-then-restrict"
            ),
            grammar=grammar,
            query_class="unsafe-allpairs",
            run_edges=400,
            points=_sweep("general_query", *range(12)),
            arms=(
                *_arms("optrpl", "g1"),
                ("optrpl_5x5", (("lists", "restricted"),)),
                ("paper_5x5", (("lists", "restricted"), ("engine", "paper-decomposition"))),
            ),
            seed=8,
            columns=("routed", "matches"),
        )
        for letter, (grammar, name) in zip("ab", _WORKFLOWS)
    ),
    FigureGroup(
        id="ablation-s1-vs-s2",
        title=(
            "Option S1 (nested loop) vs S2 (reachability filter) vs the group-at-a-time "
            "decode across selectivities (BioAID)"
        ),
        expected=(
            "S2 wins when few pairs are reachable; the two converge when most are; "
            "the group-at-a-time decode beats both"
        ),
        grammar="bioaid",
        query_class="safe-allpairs",
        run_edges=1500,
        points=(
            (("query", "_*"),),
            (("prefer", "rare"),),
            (("prefer", "frequent"),),
            (("query", f"{BIOAID_KLEENE_TAG}*"),),
        ),
        arms=_arms("grouped", "s1", "s2"),
        seed=20,
        columns=("matches",),
    ),
    FigureGroup(
        id="ablation-dfa-minimization",
        title="safety check on the minimal vs the unminimized DFA (Lemma 3.2, BioAID IFQs)",
        expected=(
            "the minimal DFA is smaller and cheaper to check; an unminimized DFA may "
            "look unsafe when the query is safe, so the raw arm must then minimize too"
        ),
        grammar="bioaid",
        query_class="overhead",
        params=(("queries", 1),),
        points=tuple((("k", k), ("seed", k)) for k in (1, 3, 5, 8)),
        arms=(("minimal", ()), ("raw", (("engine", "raw-dfa"),))),
        columns=("states", "raw_states"),
    ),
    FigureGroup(
        id="ablation-optimizer",
        title="cost-model strategy choice vs the measured fastest engine (BioAID)",
        expected="the cost model routes rare IFQs to G3 and everything else to the labels",
        grammar="bioaid",
        query_class="safe-allpairs",
        run_edges=1500,
        points=(
            (("prefer", "rare"),),
            (("prefer", "frequent"),),
            (("query", f"{BIOAID_KLEENE_TAG}*"),),
        ),
        arms=_arms("labels", "g3"),
        seed=32,
        columns=("choice", "fastest"),
    ),
)

CATALOG += tuple(scenario for group in FIGURES for scenario in group.expand())

INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        id="backward-beats-forward",
        fast="frontier-backward",
        slow="frontier-forward",
        note="with |l2|=3 and |l1|=all nodes the reversed-DFA search must win",
    ),
    Invariant(
        id="sweep-beats-per-seed",
        fast="frontier-forward",
        slow="frontier-per-seed",
        factor=10.0,
        note="one multi-source sweep must beat one search per source by >= 10x",
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
    classes and scales, known direction factors, invariants
    that reference existing scenarios.  With ``runnable=True`` every entry
    is additionally *executed* at the given scale, so a broken benchmark
    definition fails fast without timing anything meaningful, and the arms
    of every figure row that differ only in engine must agree.
    """
    from repro.core.exec import check_direction

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
            check_direction(scenario.executor.direction)
        except ValueError as error:
            problems.append(f"{scenario.id}: bad executor factors: {error}")
        unknown_suites = set(scenario.suites) - set(_CI) - {"smoke", "figures"}
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
        entries: dict[str, dict[str, object]] = {}
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
                entries[scenario.id] = result.as_dict()
        for group in FIGURES:
            problems.extend(figure_disagreements(group, entries))
    return problems
