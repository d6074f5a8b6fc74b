"""The scenario catalog: unique ids, resolvable factors, sound invariants."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import catalog as catalog_module
from repro.bench.catalog import (
    CATALOG,
    FIGURES,
    INVARIANTS,
    check_catalog,
    get_scenario,
    select,
)
from repro.bench.scenarios import (
    ExecutorFactors,
    ScenarioError,
    ScenarioResult,
    resolve_grammar,
)

TRAJECTORY = Path(__file__).resolve().parents[2] / "benchmarks" / "trajectory" / "trajectory.json"


class TestCatalogShape:
    def test_ids_are_unique(self):
        ids = [scenario.id for scenario in CATALOG]
        assert len(ids) == len(set(ids))

    def test_static_check_is_clean(self):
        assert check_catalog(runnable=False) == []

    def test_invariants_reference_existing_scenarios(self):
        ids = {scenario.id for scenario in CATALOG}
        for invariant in INVARIANTS:
            assert invariant.fast in ids, invariant.id
            assert invariant.slow in ids, invariant.id

    def test_every_grammar_token_resolves(self):
        for scenario in CATALOG:
            assert resolve_grammar(scenario.grammar) is not None

    def test_ci_suite_is_nonempty_and_within_catalog(self):
        ci = select(suite="ci")
        assert ci
        assert {scenario.id for scenario in ci} <= {scenario.id for scenario in CATALOG}

    def test_per_seed_baseline_shares_the_forward_workload(self):
        """The two arms of 'sweep-beats-per-seed' differ only in evaluator."""
        sweep = get_scenario("frontier-forward")
        per_seed = get_scenario("frontier-per-seed")
        assert per_seed.query_class == "per-seed-frontier"
        assert (per_seed.grammar, per_seed.run_edges, per_seed.params, per_seed.executor) == (
            sweep.grammar, sweep.run_edges, sweep.params, sweep.executor
        )
        [invariant] = [item for item in INVARIANTS if item.id == "sweep-beats-per-seed"]
        assert (invariant.fast, invariant.slow, invariant.factor) == (
            "frontier-forward", "frontier-per-seed", 10.0
        )

    def test_no_fan_out_scenario_remains(self):
        assert "workers" not in CATALOG[0].executor.as_dict()
        ids = {scenario.id for scenario in CATALOG} | {item.id for item in INVARIANTS}
        assert not {"frontier-parallel-4w", "parallel-2x"} & ids

    def test_static_check_flags_an_unknown_direction(self, monkeypatch):
        broken = dataclasses.replace(
            CATALOG[0], executor=ExecutorFactors(direction="sideways")
        )
        monkeypatch.setattr(catalog_module, "CATALOG", (broken, *CATALOG[1:]))
        [problem] = check_catalog(runnable=False)
        assert problem.startswith(f"{broken.id}: bad executor factors: unknown direction")

    def test_dense_wildcard_kernel_runs_on_the_production_path(self):
        """The old packed-join entry keeps its id, workload and seed and now
        runs with default executor factors (one auto-direction sweep)."""
        kernel = get_scenario("kernel-packed-join")
        assert kernel.executor == ExecutorFactors()
        assert (kernel.grammar, kernel.query_class, kernel.seed) == (
            "dense-wildcard:250", "unsafe-allpairs", 1
        )
        assert dict(kernel.params) == {"query": "_* op0 _*"}

    def test_synthetic_grammar_families_are_covered(self):
        families = {scenario.grammar.split(":")[0] for scenario in CATALOG}
        assert {"deep-recursion", "wide-alternation", "dense-wildcard"} <= families


class TestSelection:
    def test_get_scenario_unknown_id_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_select_explicit_ids_preserves_argument_order(self):
        ids = [scenario.id for scenario in reversed(CATALOG[:3])]
        picked = select(ids=ids)
        assert [scenario.id for scenario in picked] == ids

    def test_select_unknown_suite_raises(self):
        with pytest.raises(ScenarioError, match="known suites"):
            select(suite="nightly")

    def test_select_all_suite_returns_everything(self):
        assert len(select(suite="all")) == len(CATALOG)


class TestFigureGroups:
    def test_every_figure_and_ablation_is_one_group(self):
        assert sorted(group.id for group in FIGURES) == sorted(
            [
                *(f"fig13{letter}" for letter in "abcdefgh"),
                "fig15a",
                "fig15b",
                "ablation-s1-vs-s2",
                "ablation-dfa-minimization",
                "ablation-optimizer",
            ]
        )

    def test_group_scenarios_are_in_the_figures_suite_only(self):
        expanded = {scenario.id for group in FIGURES for scenario in group.expand()}
        in_figures = {scenario.id for scenario in select(suite="figures")}
        assert expanded == in_figures
        for scenario in CATALOG:
            assert (scenario.id in expanded) == (scenario.suites == ("figures",))

    def test_ci_suite_is_the_stored_trajectory(self):
        stored = json.loads(TRAJECTORY.read_text())["scenarios"]
        assert [scenario.id for scenario in select(suite="ci")] == [
            entry["id"] for entry in stored
        ]
        for scenario, entry in zip(select(suite="ci"), stored):
            factors = json.loads(json.dumps(scenario.factors()))
            # Entries recorded before the strategy knob went still carry it.
            entry["factors"]["executor"].pop("strategy", None)
            assert factors == entry["factors"], scenario.id

    def test_one_scenario_per_point_and_arm(self):
        group = next(group for group in FIGURES if group.id == "fig13c")
        scenarios = group.expand()
        assert len(scenarios) == len(group.points) * len(group.arms) == 12
        engines = {scenario.param("engine") for scenario in scenarios}
        assert engines == {None, "g3", "g2"}
        assert {scenario.run_edges for scenario in scenarios} == {250, 500, 1000, 2000}

    def test_g3_is_left_out_where_the_query_is_not_an_ifq(self):
        group = next(group for group in FIGURES if group.id == "ablation-optimizer")
        arms = [
            (scenario.param("query"), scenario.param("engine")) for scenario in group.expand()
        ]
        assert arms.count((None, "g3")) == 2  # the two generated IFQs
        assert ("f1_fork*", "g3") not in arms
        assert ("f1_fork*", None) in arms

    def test_check_reports_engines_that_disagree(self, monkeypatch):
        group = next(group for group in FIGURES if group.id == "ablation-dfa-minimization")
        scenarios = group.expand()

        def fake_run(scenario, scale, repetitions):
            checksum = "1:bbb" if scenario.param("engine") == "raw-dfa" else "1:aaa"
            return ScenarioResult(scenario.id, {}, 1, [0.001], checksum, {})

        monkeypatch.setattr(catalog_module, "CATALOG", scenarios)
        monkeypatch.setattr(catalog_module, "INVARIANTS", ())
        monkeypatch.setattr(catalog_module, "FIGURES", (group,))
        monkeypatch.setattr(catalog_module, "run_scenario", fake_run)
        problems = check_catalog(runnable=True)
        assert len(problems) == len(group.points)
        assert all("engines disagree" in problem for problem in problems)
