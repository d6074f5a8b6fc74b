"""The store's opt-in execution-profile tier."""

import json

from repro.obs import ExecutionProfile
from repro.obs.tracer import Span
from repro.store import IndexStore


def _profile(query="a b", run="run-1"):
    spans = [
        Span(
            name="exec.plan",
            trace_id=1,
            span_id=2,
            parent_id=1,
            start=0.2,
            end=0.4,
            attrs={"operator": "frontier_search"},
            thread="main",
        ),
        Span(
            name="query.evaluate",
            trace_id=1,
            span_id=1,
            parent_id=None,
            start=0.0,
            end=1.0,
            attrs={},
            thread="main",
        ),
    ]
    return ExecutionProfile.from_spans(
        spans, query=query, run=run, meta={"command": "query"}
    )


class TestProfilePersistence:
    def test_round_trip(self, tmp_path):
        store = IndexStore(tmp_path)
        assert store.save_profile(_profile())
        (restored,) = store.load_profiles("run-1")
        assert restored.query == "a b"
        assert restored.run == "run-1"
        assert restored.meta == {"command": "query"}
        assert restored.root is not None
        assert restored.root.children[0].attrs == {"operator": "frontier_search"}
        assert store.counters.writes == 1

    def test_saves_are_content_addressed(self, tmp_path):
        store = IndexStore(tmp_path)
        store.save_profile(_profile())
        store.save_profile(_profile())  # identical payload, same artifact
        store.save_profile(_profile(query="c d"))
        assert len(list(store.profile_dir("run-1").glob("*.json"))) == 2
        queries = [profile.query for profile in store.load_profiles("run-1")]
        assert queries == ["a b", "c d"]  # sorted by query text

    def test_runs_are_isolated(self, tmp_path):
        store = IndexStore(tmp_path)
        store.save_profile(_profile(run="run-1"))
        store.save_profile(_profile(run="run-2", query="z"))
        assert [p.run for p in store.load_profiles("run-1")] == ["run-1"]
        assert [p.query for p in store.load_profiles("run-2")] == ["z"]

    def test_missing_run_yields_empty(self, tmp_path):
        store = IndexStore(tmp_path)
        assert store.load_profiles("nowhere") == []

    def test_corrupt_artifacts_are_counted_and_skipped(self, tmp_path):
        store = IndexStore(tmp_path)
        store.save_profile(_profile())
        target = next(store.profile_dir("run-1").glob("*.json"))
        envelope = json.loads(target.read_text())
        envelope["checksum"] = "0" * 64
        target.write_text(json.dumps(envelope))
        (store.profile_dir("run-1") / "junk.json").write_text("not json")
        assert store.load_profiles("run-1") == []
        assert store.counters.errors == 2

    def test_awkward_run_ids_are_quoted(self, tmp_path):
        store = IndexStore(tmp_path)
        run_id = "runs/a=b 2"
        store.save_profile(_profile(run=run_id))
        (restored,) = store.load_profiles(run_id)
        assert restored.run == run_id
        assert store.profile_dir(run_id).is_dir()
        # The quoted directory stays inside the profiles tier.
        assert store.profile_dir(run_id).parent == tmp_path / "profiles"
