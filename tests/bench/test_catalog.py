"""The scenario catalog: unique ids, resolvable factors, sound invariants."""

import dataclasses

import pytest

from repro.bench import catalog as catalog_module
from repro.bench.catalog import CATALOG, INVARIANTS, check_catalog, get_scenario, select
from repro.bench.scenarios import ExecutorFactors, ScenarioError, resolve_grammar


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
