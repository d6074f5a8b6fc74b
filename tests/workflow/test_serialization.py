"""Tests for JSON persistence of specifications and runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.myexperiment import bioaid_specification
from repro.datasets.paper_example import paper_run, paper_specification
from repro.errors import ReproError
from repro.workflow.serialization import (
    load_run,
    load_specification,
    run_from_dict,
    run_to_dict,
    save_run,
    save_specification,
    specification_from_dict,
    specification_to_dict,
)


class TestSpecificationRoundTrip:
    def test_paper_example(self):
        spec = paper_specification()
        clone = specification_from_dict(specification_to_dict(spec))
        assert clone.start == spec.start
        assert clone.modules == spec.modules
        assert clone.size() == spec.size()
        assert [p.head for p in clone.productions] == [p.head for p in spec.productions]
        assert clone.production(0).body == spec.production(0).body

    def test_bioaid_through_files(self, tmp_path):
        spec = bioaid_specification()
        path = tmp_path / "bioaid.json"
        save_specification(spec, path)
        loaded = load_specification(path)
        assert loaded.size() == spec.size()
        assert loaded.production_graph.recursive_productions == (
            spec.production_graph.recursive_productions
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            specification_from_dict({"kind": "something-else"})


#: How a stored topological order is broken, and the error that refuses it.
_BROKEN_ORDER_ERRORS = {
    "reversed": "not a topological order",
    "dropped": "not a permutation",
    "repeated": "not a permutation",
    "duplicate-node": "node id twice",
    "unknown-endpoint": "not a topological order",
    "missing": "no topological order",
}


class TestRunRoundTrip:
    def test_labels_survive(self, tmp_path):
        run = paper_run(recursion_depth=3)
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        assert set(loaded.node_ids()) == set(run.node_ids())
        assert loaded.edge_count == run.edge_count
        for node_id in run.node_ids():
            assert loaded.label_of(node_id) == run.label_of(node_id)

    def test_queries_work_on_reloaded_runs(self, tmp_path):
        from repro.core.engine import ProvenanceQueryEngine

        run = paper_run()
        payload = run_to_dict(run)
        reloaded = run_from_dict(payload)
        engine = ProvenanceQueryEngine(reloaded.spec)
        assert engine.pairwise(reloaded, "c:1", "b:1", "_* e _*")
        assert not engine.pairwise(reloaded, "c:1", "b:3", "_* e _*")

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            run_from_dict({"kind": "specification"})

    def test_topological_order_survives_the_file(self, tmp_path):
        run = paper_run(recursion_depth=3)
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        assert "topological_order" in loaded.__dict__  # restored, not re-sorted
        assert loaded.topological_order == run.topological_order

    @pytest.mark.parametrize("breakage", sorted(_BROKEN_ORDER_ERRORS))
    def test_broken_order_is_refused(self, breakage):
        payload = run_to_dict(paper_run(recursion_depth=2))
        order = payload["order"]
        if breakage == "reversed":
            order.reverse()
        elif breakage == "dropped":
            order.pop()
        elif breakage == "repeated":
            order[-1] = order[0]
        elif breakage == "duplicate-node":
            first, second = payload["nodes"][:2]
            payload["nodes"].append(dict(first, label=second["label"]))
        elif breakage == "unknown-endpoint":
            payload["edges"][0]["target"] = "nowhere:1"
        else:
            del payload["order"]
        with pytest.raises(ReproError, match=_BROKEN_ORDER_ERRORS[breakage]):
            run_from_dict(payload)

    def test_format_one_run_is_refused_with_an_explanation(self):
        payload = run_to_dict(paper_run())
        payload["format"] = 1
        with pytest.raises(ReproError, match="format 1 .*derive the run again"):
            run_from_dict(payload)


_SAVE_UNDER_SEED = """
import sys
from repro.datasets.myexperiment import qblast_specification
from repro.workflow.derivation import derive_run
from repro.workflow.serialization import save_run
save_run(derive_run(qblast_specification(), seed=3, target_edges=300), sys.argv[1])
"""

_LOAD_UNDER_SEED = """
import sys
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.core.engine import ProvenanceQueryEngine
from repro.workflow.serialization import load_run
run = load_run(sys.argv[1])
answer = ProvenanceQueryEngine(run.spec).evaluate(run, "q1_loop*")
oracle = product_bfs_all_pairs(run, None, None, "q1_loop*")
print(len(answer), len(oracle), answer == oracle)
"""


def _python(script, hash_seed, *args):
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src),
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_run_saved_under_one_hash_seed_decodes_under_another(tmp_path):
    """Labels name recursion cycles by number; the numbering must not follow
    the string hash seed, or a run saved by one process answers wrongly in
    the next (QBLast's four cycles come out in another order under seeds 0
    and 2 when modules are walked in set order)."""
    path = tmp_path / "qblast.json"
    _python(_SAVE_UNDER_SEED, 0, str(path))
    answer, oracle, equal = _python(_LOAD_UNDER_SEED, 2, str(path)).split()
    assert equal == "True", f"{answer} pairs decoded, the oracle finds {oracle}"
    assert int(oracle) > 0
