"""The generic scenario harness: checksums, determinism, document schema."""

import pytest

from repro.bench.catalog import get_scenario
from repro.bench.scenarios import (
    MIN_P95_REPETITIONS,
    SCHEMA,
    ExecutorFactors,
    FigureGroup,
    Scenario,
    ScenarioError,
    figure_rows,
    resolve_grammar,
    resolve_scale,
    result_checksum,
    run_scenario,
    run_suite,
    run_table,
)

#: A cheap catalog entry used wherever a real workload must execute.
CHEAP_ID = "fig13d-pairwise-qblast"


class TestChecksum:
    def test_sets_and_tuples_are_order_independent(self):
        assert result_checksum({("a", "b"), ("c", "d")}) == result_checksum(
            {("c", "d"), ("a", "b")}
        )

    def test_checksum_carries_the_result_size(self):
        assert result_checksum([1, 2, 3]).startswith("3:")
        assert result_checksum({}).startswith("0:")

    def test_different_answers_flip_the_checksum(self):
        assert result_checksum({("a", "b")}) != result_checksum({("a", "c")})


class TestFewTargetsShape:
    def test_ancestor_counts_are_backward_closure_sizes(self):
        """The one-pass ancestor count that ranks ``few-targets`` targets
        equals each node's set-based backward closure, itself included."""
        from repro.bench.scenarios import _ancestor_counts
        from repro.datasets.myexperiment import qblast_specification
        from repro.workflow.derivation import derive_run

        run = derive_run(qblast_specification(), seed=2, target_edges=120)
        nodes = run.node_ids()
        reaches = {node: run.reachable_from(node) for node in nodes}
        assert _ancestor_counts(run) == {
            node: 1 + sum(node in reaches[other] for other in nodes) for node in nodes
        }


class TestResolvers:
    def test_unknown_scale_raises(self):
        with pytest.raises(ScenarioError, match="unknown scale"):
            resolve_scale("enormous")

    def test_unknown_grammar_family_raises(self):
        with pytest.raises(ScenarioError, match="grammar"):
            resolve_grammar("no-such-family:100")

    def test_synthetic_families_resolve(self):
        for token in ("deep-recursion:60", "wide-alternation:60", "dense-wildcard:60"):
            assert resolve_grammar(token) is not None

    def test_unknown_query_class_raises(self):
        bogus = Scenario(
            id="x", title="x", grammar="paper-example", query_class="nonsense",
            run_edges=50,
        )
        with pytest.raises(ScenarioError, match="query class"):
            run_scenario(bogus, "smoke")


class TestRunScenario:
    def test_smoke_run_is_deterministic(self):
        scenario = get_scenario(CHEAP_ID)
        first = run_scenario(scenario, "smoke", repetitions=2)
        second = run_scenario(scenario, "smoke", repetitions=2)
        assert first.checksum == second.checksum
        assert first.repetitions == 2
        assert len(first.times_s) == 2
        assert first.median_s >= 0.0
        assert first.p95_s >= first.median_s >= 0.0

    def test_result_row_shape(self):
        result = run_scenario(get_scenario(CHEAP_ID), "smoke", repetitions=1)
        row = result.as_dict()
        assert row["id"] == CHEAP_ID
        assert set(row) == {
            "id", "factors", "repetitions", "times_s", "median_s", "p95_s",
            "checksum", "detail",
        }
        assert row["factors"]["grammar"] == "qblast"
        assert row["factors"]["executor"] == ExecutorFactors().as_dict()


    def test_per_seed_baseline_answers_like_the_sweep(self):
        """At smoke scale the per-seed arm and the forward sweep return the
        same pairs (the checksum), so the gated ratio compares like with
        like."""
        sweep = run_scenario(get_scenario("frontier-forward"), "smoke", repetitions=1)
        per_seed = run_scenario(get_scenario("frontier-per-seed"), "smoke", repetitions=1)
        assert per_seed.checksum == sweep.checksum
        assert not sweep.checksum.startswith("0:")


class TestRunSuite:
    def test_document_schema_and_table(self):
        document = run_suite([get_scenario(CHEAP_ID)], "smoke", suite="ci", repetitions=1)
        assert document["schema"] == SCHEMA
        assert document["scale"] == "smoke"
        assert document["calibration_s"] > 0.0
        assert document["cpus"] >= 1
        [entry] = document["scenarios"]
        assert entry["id"] == CHEAP_ID
        [row] = run_table(document)
        assert row["scenario"] == CHEAP_ID
        assert 'median_ms' in row
        assert 'checksum' in row

    def test_table_exec_column_shows_direction_and_store(self):
        document = {
            "scenarios": [
                {"id": "x", "factors": {"executor": {"direction": "backward", "store": True}}},
                {"id": "y", "factors": {"executor": {"direction": "auto", "store": False}}},
                {"id": "z", "factors": {}},
            ]
        }
        assert [row["exec"] for row in run_table(document)] == [
            "backward+store", "auto", "-"
        ]

    def test_p95_is_printed_only_when_the_sample_supports_it(self):
        def entry(repetitions):
            return {
                "id": f"r{repetitions}", "repetitions": repetitions,
                "median_s": 0.010, "p95_s": 0.020,
            }

        short, long = run_table(
            {"scenarios": [entry(3), entry(MIN_P95_REPETITIONS)]}
        )
        assert short["p95_ms"] == "-"
        assert long["p95_ms"] == pytest.approx(20.0)


#: A two-point group comparing the production decode with the G3 baseline.
GROUP = FigureGroup(
    id="figx",
    title="test figure",
    expected="g3 loses",
    grammar="bioaid",
    query_class="safe-allpairs",
    run_edges=100,
    points=((("k", 1),), (("k", 2),)),
    arms=(("optrpl", ()), ("g3", (("engine", "g3"),))),
    columns=("matches", "fastest", "query"),
)


def _document(checksums):
    """A hand-built run document: one row per (point, arm) with a checksum."""
    rows = []
    for (point, label), checksum in zip(
        [(point, label) for point in GROUP.points for label, _ in GROUP.arms], checksums
    ):
        rows.append(
            {
                "id": GROUP.scenario_id(point, label),
                "repetitions": 3,
                "median_s": 0.001 if label == "optrpl" else 0.004,
                "p95_s": 0.005,
                "checksum": checksum,
                "detail": {"query": f"q{dict(point)['k']}"},
            }
        )
    return {"scenarios": rows}


class TestFigureRendering:
    def test_rows_pivot_one_median_column_per_engine(self):
        rows = figure_rows(GROUP, _document(["7:a", "7:a", "0:b", "0:b"]))
        assert rows == [
            {
                "k": 1, "matches": 7, "fastest": "optrpl", "query": "q1",
                "optrpl_ms": 1.0, "optrpl_p95_ms": "-", "g3_ms": 4.0, "g3_p95_ms": "-",
            },
            {
                "k": 2, "matches": 0, "fastest": "optrpl", "query": "q2",
                "optrpl_ms": 1.0, "optrpl_p95_ms": "-", "g3_ms": 4.0, "g3_p95_ms": "-",
            },
        ]

    def test_engines_that_disagree_raise(self):
        with pytest.raises(ScenarioError, match=r"figx at k=2: engines disagree"):
            figure_rows(GROUP, _document(["7:a", "7:a", "0:b", "1:c"]))

    def test_expansion_ids_match_the_renderer(self):
        assert [scenario.id for scenario in GROUP.expand()] == [
            "figx-1-optrpl", "figx-1-g3", "figx-2-optrpl", "figx-2-g3"
        ]
        assert {scenario.suites for scenario in GROUP.expand()} == {("figures",)}
