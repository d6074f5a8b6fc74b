"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestSpecCommand:
    def test_builtin_spec(self, capsys):
        assert main(["spec", "paper-example"]) == 0
        out = capsys.readouterr().out
        assert "start module : S" in out

    def test_spec_export_and_reload(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["spec", "bioaid", "--output", str(path)]) == 0
        assert path.exists()
        assert main(["spec", str(path)]) == 0

    def test_synthetic_spec(self, capsys):
        assert main(["spec", "synthetic:150"]) == 0

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            main(["spec", "does-not-exist"])


class TestSafetyCommand:
    def test_safe_query(self, capsys):
        assert main(["safety", "paper-example", "_* e _*"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_unsafe_query(self, capsys):
        assert main(["safety", "paper-example", "e"]) == 1
        out = capsys.readouterr().out
        assert 'UNSAFE' in out
        assert 'A' in out


class TestDeriveAndQuery:
    def test_derive_and_query_round_trip(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        assert main(["derive", "paper-example", "--edges", "40", "--seed", "3", "--output", str(run_path)]) == 0
        assert run_path.exists()

        assert main(["query", str(run_path), "_*", "--json"]) == 0
        pairs = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert pairs
        assert all((len(pair) == 2 for pair in pairs))

    def test_pairwise_query(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "10", "--seed", "0", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "_* e _*", "--source", "c:1", "--target", "b:1"]) == 0
        assert "True" in capsys.readouterr().out

    def test_ids_absent_from_the_run_match_nothing(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "40", "--seed", "3", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "_* e _*", "--sources", "c:1", "--json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        assert expected
        assert main(
            ["query", str(run_path), "_* e _*", "--sources", "c:1,ghost", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == expected
        assert "Traceback" not in captured.err
        assert main(
            ["query", str(run_path), "_* e _*", "--source", "ghost", "--target", "b:1"]
        ) == 0
        assert "ghost -[_* e _*]-> b:1 : False" in capsys.readouterr().out

    def test_all_pairs_with_limit(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "60", "--seed", "1", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "A+", "--limit", "3"]) == 0
        assert "matching pairs" in capsys.readouterr().out

    def test_lone_source_or_target_is_an_error(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "10", "--output", str(run_path)])
        capsys.readouterr()
        for flag in (["--source", "c:1"], ["--target", "b:1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["query", str(run_path), "_*", *flag])
            assert '--source' in str(excinfo.value)
            assert '--target' in str(excinfo.value)

    def test_stream_matches_materialized_output(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "40", "--seed", "3", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "A+", "--json"]) == 0
        expected = json.loads(capsys.readouterr().out.strip())

        assert main(["query", str(run_path), "A+", "--stream", "--json"]) == 0
        captured = capsys.readouterr()
        streamed = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert sorted(streamed) == sorted(expected)
        assert f"{len(streamed)} matching pairs" in captured.err

    def test_stream_plain_text(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "40", "--seed", "3", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "A+", "--stream"]) == 0
        out = capsys.readouterr().out.strip()
        assert out
        assert all((' -> ' in line for line in out.splitlines()))

    def test_stream_rejected_for_pairwise(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "10", "--output", str(run_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(run_path), "_*", "--source", "c:1", "--target", "b:1",
                  "--stream"])
        assert "--stream" in str(excinfo.value)


class TestBenchCommand:
    def test_figures_prints_the_paper_table(self, capsys):
        assert main(["bench", "figures", "fig13c", "--scale", "smoke"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("== fig13c:")
        header = lines[2].split()
        assert header[0] == "run_edges"
        assert {"rpl_ms", "g3_ms", "g2_ms"} <= set(header)
        assert [line.split()[0] for line in lines[4:8]] == ["250", "500", "1000", "2000"]

    def test_figures_exit_nonzero_when_engines_disagree(self, monkeypatch, capsys):
        from repro.bench import scenarios

        def disagreeing_run(scenarios_to_run, scale, **_):
            return {
                "scenarios": [
                    {
                        "id": scenario.id, "repetitions": 1, "median_s": 0.001,
                        "p95_s": 0.001, "detail": {},
                        "checksum": "2:g3" if scenario.param("engine") == "g3" else "1:a",
                    }
                    for scenario in scenarios_to_run
                ]
            }

        monkeypatch.setattr(scenarios, "run_suite", disagreeing_run)
        assert main(["bench", "figures", "fig13c", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro bench: error: fig13c at run_edges=250: engines disagree")

    def test_a_bare_figure_name_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "fig13a"])
        assert "invalid choice: 'fig13a'" in capsys.readouterr().err

    def test_bench_list_prints_the_catalog(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert 'fig13a-overhead-synthetic' in out
        assert 'frontier-backward' in out

    def test_bench_check_static(self, capsys):
        assert main(["bench", "check", "--static", "--quiet"]) == 0
        assert "statically valid" in capsys.readouterr().out

    def test_bench_run_single_scenario_writes_trajectory(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_trajectory.json"
        assert main(["bench", "run", "--scenario", "fig13d-pairwise-qblast",
                     "--scale", "smoke", "--json", str(out_path), "--quiet"]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-bench-trajectory/1"
        assert [entry["id"] for entry in document["scenarios"]] == ["fig13d-pairwise-qblast"]

    def test_bench_gate_error_is_clean(self, tmp_path, capsys):
        assert main(["bench", "gate", str(tmp_path / "none.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith('repro bench: error:')
        assert err.count('\n') == 1


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCleanErrors:
    """Library failures exit non-zero with one-line errors, not tracebacks."""

    def test_malformed_regex_in_safety(self, capsys):
        assert main(["safety", "paper-example", "a |"]) == 2
        err = capsys.readouterr().err
        assert err.startswith('repro: error:')
        assert err.count('\n') == 1

    def test_malformed_regex_in_query(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        main(["derive", "paper-example", "--edges", "10", "--output", str(run_path)])
        capsys.readouterr()
        assert main(["query", str(run_path), "((b"]) == 2
        err = capsys.readouterr().err
        assert "missing ')'" in err
        assert err.count('\n') == 1

    def test_missing_run_file(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "none.json"), "a"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_corrupt_run_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["query", str(bad), "a"]) == 2
        assert "repro: error:" in capsys.readouterr().err


@pytest.fixture
def run_path(tmp_path, capsys):
    """A small derived run, shared by the batch/store/cache command tests."""
    path = tmp_path / "r1.json"
    main(["derive", "paper-example", "--edges", "40", "--seed", "3",
          "--output", str(path)])
    capsys.readouterr()
    return path


class TestBatchCommand:
    def _write_requests(self, tmp_path, records):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(json.dumps(record) for record in records) + "\n")
        return path

    def test_batch_streams_results_in_order(self, tmp_path, run_path, capsys):
        requests = self._write_requests(
            tmp_path,
            [
                {"op": "allpairs", "run": "r1", "query": "A+", "id": "first"},
                {"op": "allpairs", "run": "r1", "query": "_* e _*", "id": "second"},
            ],
        )
        assert main(["batch", str(requests), "--run", str(run_path)]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [line["id"] for line in lines] == ["first", "second"]
        assert all(line["ok"] for line in lines)
        assert "index builds" in captured.err

    def test_batch_run_id_syntax_and_output_file(self, tmp_path, run_path, capsys):
        requests = self._write_requests(
            tmp_path, [{"op": "allpairs", "run": "mine", "query": "A+"}]
        )
        out_path = tmp_path / "results.jsonl"
        assert main(["batch", str(requests), "--run", f"mine={run_path}",
                     "--output", str(out_path)]) == 0
        [record] = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert record['ok']
        assert record['run'] == 'mine'

    def test_batch_with_failing_request_exits_nonzero(self, tmp_path, run_path, capsys):
        requests = self._write_requests(
            tmp_path,
            [
                {"op": "allpairs", "run": "r1", "query": "A+"},
                {"op": "allpairs", "run": "absent", "query": "A+"},
            ],
        )
        assert main(["batch", str(requests), "--run", str(run_path)]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [True, False]

    def test_batch_stats_json_summary(self, tmp_path, run_path, capsys):
        """--stats-json gives CI a machine-readable cache summary (replacing
        the old practice of grepping the human stderr line)."""
        requests = self._write_requests(
            tmp_path,
            [
                {"op": "allpairs", "run": "r1", "query": "A+"},
                {"op": "allpairs", "run": "r1", "query": "A+"},
            ],
        )
        stats_path = tmp_path / "stats.json"
        assert main(["batch", str(requests), "--run", str(run_path),
                     "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        summary = json.loads(stats_path.read_text())
        assert summary['requests'] == 2
        assert summary['ok'] == 2
        assert summary['failed'] == 0
        # the duplicate query hits the cache: builds stay below request count
        assert summary["index_builds"] >= 1
        assert summary["hits"] >= 1
        assert 0.0 <= summary["hit_rate"] <= 1.0

    def test_batch_cache_entries_bounds_the_cache(self, tmp_path, run_path, capsys):
        queries = ["A+", "_* e _*", "_*"]
        requests = self._write_requests(
            tmp_path, [{"op": "allpairs", "run": "r1", "query": q} for q in queries]
        )
        summaries = {}
        for bound in ("1", "512"):
            stats_path = tmp_path / f"stats-{bound}.json"
            assert main(["batch", str(requests), "--run", str(run_path),
                         "--cache-entries", bound, "--workers", "1",
                         "--stats-json", str(stats_path)]) == 0
            summaries[bound] = json.loads(stats_path.read_text())
        capsys.readouterr()
        assert summaries["1"]["entries"] == 1
        assert summaries["1"]["evictions"] >= len(queries) - 1
        assert summaries["512"]["entries"] == len(queries)
        assert summaries["512"]["evictions"] == 0

    def test_batch_stats_json_metrics_schema(self, tmp_path, run_path, capsys):
        """The summary's 'metrics' block is read from this batch's own
        service — cache/store counters, spans recorded, service latency —
        so it equals the flat CacheStats fields next to it."""
        requests = self._write_requests(
            tmp_path,
            [
                {"op": "allpairs", "run": "r1", "query": "A+"},
                {"op": "allpairs", "run": "r1", "query": "A+"},
            ],
        )
        stats_path = tmp_path / "stats.json"
        store_dir = tmp_path / "store"
        assert main(["batch", str(requests), "--run", str(run_path),
                     "--store", str(store_dir),
                     "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        summary = json.loads(stats_path.read_text())
        assert summary["index_builds"] >= 1  # the flat schema is intact
        metrics = summary["metrics"]
        for metric, field in (
            ("repro_cache_hits_total", "hits"),
            ("repro_cache_misses_total", "misses"),
            ("repro_cache_index_builds_total", "index_builds"),
            ("repro_store_hits_total", "store_hits"),
            ("repro_store_misses_total", "store_misses"),
            ("repro_store_writes_total", "store_writes"),
            ("repro_cache_entries", "entries"),
        ):
            assert metrics[metric] == summary[field], (metric, metrics, summary)
        assert metrics["repro_service_request_seconds_count"] == summary["requests"]
        assert metrics["repro_obs_spans_total"] == 0  # no recording tracer
        assert not [key for key in metrics if key.startswith("repro_worker_budget")]

    def test_batch_malformed_request_is_clean_error(self, tmp_path, run_path, capsys):
        requests = self._write_requests(tmp_path, [{"op": "bogus"}])
        assert main(["batch", str(requests), "--run", str(run_path)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_batch_requires_a_run(self, tmp_path):
        requests = self._write_requests(tmp_path, [])
        with pytest.raises(SystemExit):
            main(["batch", str(requests)])

    def test_batch_run_path_containing_equals_sign(self, tmp_path, run_path, capsys):
        """A bare --run path whose file name contains '=' must register under
        its stem, not be split at the '=' (rpartition used to eat it)."""
        odd_path = tmp_path / "scale=big.json"
        odd_path.write_bytes(run_path.read_bytes())
        requests = self._write_requests(
            tmp_path, [{"op": "allpairs", "run": "scale=big", "query": "A+"}]
        )
        assert main(["batch", str(requests), "--run", str(odd_path)]) == 0
        [record] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert record['ok']
        assert record['run'] == 'scale=big'

    def test_batch_explicit_id_with_equals_in_path(self, tmp_path, run_path, capsys):
        odd_path = tmp_path / "a=b.json"
        odd_path.write_bytes(run_path.read_bytes())
        requests = self._write_requests(
            tmp_path, [{"op": "allpairs", "run": "mine", "query": "A+"}]
        )
        assert main(["batch", str(requests), "--run", f"mine={odd_path}"]) == 0
        [record] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert record['ok']
        assert record['run'] == 'mine'

    def test_batch_stdin_and_file_parse_identically(
        self, tmp_path, run_path, capsys, monkeypatch
    ):
        """Blank and whitespace-only lines are skipped for both sources, and
        stdin's trailing newlines do not change parsing."""
        body = (
            "\n   \n"
            + json.dumps({"op": "allpairs", "run": "r1", "query": "A+"})
            + "\r\n\t\n# comment\n"
            + json.dumps({"op": "reachability", "run": "r1", "source": "c:1", "target": "b:1"})
            + "\n\n"
        )
        requests = tmp_path / "requests.jsonl"
        requests.write_text(body)
        assert main(["batch", str(requests), "--run", str(run_path)]) == 0
        from_file = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(body))
        assert main(["batch", "-", "--run", str(run_path)]) == 0
        from_stdin = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

        def strip_timing(records):
            return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]

        assert len(from_file) == 2
        assert strip_timing(from_file) == strip_timing(from_stdin)


class TestStoreCommands:
    def test_build_ls_stats_gc(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "build", str(store), "--spec", "paper-example",
                     "_* e _*", "_* a _*"]) == 0
        out = capsys.readouterr().out
        assert "safe: index stored" in out
        assert "unsafe: safety verdict and plan stored" in out

        assert main(["store", "ls", str(store)]) == 0
        out = capsys.readouterr().out
        # Planning "_* a _*" probed its subtrees through the cache, so their
        # entries were persisted as a side effect too.
        assert "4 entries, 0 runs" in out

        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "entries       : 4 (3 safe, 1 unsafe, 1 with plans)" in out

        assert main(["store", "gc", str(store), "--max-bytes", "1"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "ls", str(store)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_warm_then_batch_restarts_with_zero_builds(
        self, tmp_path, run_path, capsys
    ):
        store = tmp_path / "store"
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     "_* e _*", "_* a _*"]) == 0
        capsys.readouterr()
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "allpairs", "run": "r1", "query": "_* a _*"}) + "\n"
        )
        # No --run: the store's persisted registry supplies the run.
        assert main(["batch", str(requests), "--store", str(store)]) == 0
        captured = capsys.readouterr()
        assert "0 index builds" in captured.err
        assert json.loads(captured.out.strip())["ok"] is True

    def test_warm_and_restart_leave_no_lock_files(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     "_* e _*", "_* a _*"]) == 0
        assert not list(store.rglob("*.lock"))
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "allpairs", "run": "r1", "query": "_* e _*"}) + "\n"
        )
        assert main(["batch", str(requests), "--store", str(store)]) == 0
        capsys.readouterr()
        assert not list(store.rglob("*.lock"))

    def test_warm_without_runs_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "warm", str(tmp_path / "store"), "_*"])

    def test_warm_reports_cache_and_store_statistics(self, tmp_path, run_path, capsys):
        assert main(["store", "warm", str(tmp_path / "store"), "--run", str(run_path),
                     "_* e _*", "_* a _*"]) == 0
        out = capsys.readouterr().out
        assert "run r1:" in out
        assert "_* e _* -> safe" in out
        assert "_* a _* -> unsafe" in out
        assert "IndexCache" in out
        assert "IndexStore" in out

    def test_warm_from_the_registry_needs_no_run(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     "_* e _*"]) == 0
        capsys.readouterr()
        # A later process finds the run in the store's registry.
        assert main(["store", "warm", str(store), "_* e _*"]) == 0
        out = capsys.readouterr().out
        assert "run r1:" in out
        assert "index_builds=0" in out
        assert "store_writes=0" in out

    def test_batch_stats_json_restarts_warm_across_invocations(
        self, tmp_path, run_path, capsys
    ):
        store = tmp_path / "store"
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "allpairs", "run": "r1", "query": "_* e _*"}) + "\n"
        )
        stats_path = tmp_path / "stats.json"
        argv = ["batch", str(requests), "--run", str(run_path), "--store", str(store),
                "--stats-json", str(stats_path)]
        assert main(argv) == 0
        record = json.loads(stats_path.read_text())
        assert record["index_builds"] == 1
        assert record["store_writes"] >= 1
        # Second invocation: a fresh service restarts warm from the store.
        assert main(argv) == 0
        record = json.loads(stats_path.read_text())
        assert record["index_builds"] == 0
        assert record["store_hits"] >= 1
        assert record["store_writes"] == 0

    def test_inspection_of_missing_store_is_an_error(self, tmp_path):
        # A mistyped path must not silently create an empty store.
        for command in (["ls"], ["stats"], ["gc", "--max-bytes", "1"]):
            with pytest.raises(SystemExit, match="no store directory"):
                main(["store", *command[:1], str(tmp_path / "typo"), *command[1:]])
        assert not (tmp_path / "typo").exists()

    def test_batch_without_any_run_source_is_an_error(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n")
        with pytest.raises(SystemExit):
            main(["batch", str(requests), "--store", str(tmp_path / "store")])


class TestOlderStoreLeftovers:
    """An older store may hold ``profiles/<run>/*.json`` and a
    ``<entry>.json.lock``: listing, stats, ``gc --max-bytes`` and a warm
    restart pass over them and leave them as they are; ``gc --orphans``
    deletes them."""

    QUERIES = ("_* e _*", "_* a _*")

    @pytest.fixture
    def store(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     *self.QUERIES]) == 0
        capsys.readouterr()
        entry = sorted((store / "entries").glob("*/*.json"))[0]
        entry.with_name(entry.name + ".lock").touch()
        profile = store / "profiles" / "r1" / f"{'0' * 32}.json"
        profile.parent.mkdir(parents=True)
        profile.write_text(json.dumps({
            "format": 3, "kind": "store-profile", "run_id": "r1",
            "query": "_* e _*", "checksum": "0" * 64, "payload64": "",
        }))
        self.entries = sorted((store / "entries").glob("*/*.json"))
        self.leftovers = self._leftovers(store)
        assert len(self.leftovers) == 2
        return store

    @staticmethod
    def _leftovers(store):
        paths = [*store.rglob("*.lock"), *(store / "profiles").rglob("*.json")]
        return {path: path.read_bytes() for path in paths}

    def test_ls(self, store, capsys):
        assert main(["store", "ls", str(store)]) == 0
        assert f"{len(self.entries)} entries, 1 runs" in capsys.readouterr().out
        assert self._leftovers(store) == self.leftovers

    def test_stats(self, store, capsys):
        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"entries       : {len(self.entries)} (" in out
        assert "runs          : 1" in out
        assert self._leftovers(store) == self.leftovers

    def test_warm_restart_builds_and_writes_nothing(self, store, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(
            json.dumps({"op": "allpairs", "run": "r1", "query": query}) + "\n"
            for query in self.QUERIES
        ))
        stats_path = tmp_path / "stats.json"
        assert main(["batch", str(requests), "--store", str(store),
                     "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert (stats["index_builds"], stats["safety_checks"],
                stats["plan_builds"], stats["store_writes"]) == (0, 0, 0, 0)
        assert self._leftovers(store) == self.leftovers

    def test_gc_orphans(self, store, capsys):
        leftover_bytes = sum(len(data) for data in self.leftovers.values())
        assert main(["store", "gc", str(store), "--orphans"]) == 0
        assert (f"orphans: removed 0 entries ({leftover_bytes} bytes)"
                in capsys.readouterr().out)
        assert sorted((store / "entries").glob("*/*.json")) == self.entries
        assert self._leftovers(store) == {}
        assert not (store / "profiles").exists()

    def test_gc_max_bytes(self, store, capsys):
        entry_bytes = sum(path.stat().st_size for path in self.entries)
        assert main(["store", "gc", str(store), "--max-bytes", str(entry_bytes)]) == 0
        assert (f"lru: removed 0 entries (0 bytes); {entry_bytes} bytes remain"
                in capsys.readouterr().out)
        assert self._leftovers(store) == self.leftovers


class TestRemovedSubcommands:
    """``store warm``, ``batch --stats-json`` and ``lint --statistics``
    report what ``cache`` and ``analyze`` used to; both are gone."""

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "lock-graph", "src/repro"], ["cache", "--warm", "_*"]],
        ids=["analyze", "cache"],
    )
    def test_is_an_unknown_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


class TestDirectionFlag:
    def test_direction_matches_default_output(self, tmp_path, run_path, capsys):
        base = ["query", str(run_path), "_* a _*", "--json"]
        assert main(base) == 0
        expected = json.loads(capsys.readouterr().out)
        for extra in (
            ["--direction", "forward"],
            ["--direction", "backward"],
        ):
            assert main(base + extra) == 0
            assert json.loads(capsys.readouterr().out) == expected, extra

    def test_stream_accepts_direction(self, tmp_path, run_path, capsys):
        assert main(["query", str(run_path), "_* a _*", "--stream", "--json",
                     "--direction", "backward"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert main(["query", str(run_path), "_* a _*", "--json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, lines)) == sorted(map(tuple, expected))

    @pytest.mark.parametrize("direction", ["forward", "backward", None],
                             ids=["forward", "backward", "join"])
    def test_stream_is_the_sorted_json_answer(self, run_path, capsys, direction):
        """The streamed lines, sorted, are the ``--json`` answer: through the
        frontier sweep in either direction (lists given) and the join (no lists)."""
        nodes = [node["id"] for node in json.loads(run_path.read_text())["nodes"]]
        base = ["query", str(run_path), "_* a _*"]
        if direction is not None:
            base += ["--sources", ",".join(nodes[:8]), "--targets", ",".join(nodes[-8:]),
                     "--direction", direction]
        assert main(base + ["--json"]) == 0
        expected = [tuple(pair) for pair in json.loads(capsys.readouterr().out)]
        assert expected
        assert main(base + ["--stream", "--json"]) == 0
        streamed = [tuple(json.loads(line)) for line in capsys.readouterr().out.splitlines()]
        assert sorted(streamed) == expected

    def test_invalid_direction_is_rejected(self, tmp_path, run_path):
        with pytest.raises(SystemExit):
            main(["query", str(run_path), "_* a _*", "--direction", "sideways"])

    def test_query_has_no_workers_flag(self, tmp_path, run_path):
        with pytest.raises(SystemExit):
            main(["query", str(run_path), "_* a _*", "--workers", "2"])

    def test_query_has_no_strategy_flag(self, tmp_path, run_path):
        with pytest.raises(SystemExit):
            main(["query", str(run_path), "_* a _*", "--strategy", "join"])


class TestStoreGcOrphans:
    def test_gc_orphans_drops_unregistered_grammars(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        # Entries for a grammar with no registered run (build registers none).
        assert main(["store", "build", str(store), "--spec", "qblast", "_* B1 _*"]) == 0
        # Entries + registered run for the paper grammar.
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     "_* e _*"]) == 0
        capsys.readouterr()
        assert main(["store", "gc", str(store), "--orphans"]) == 0
        out = capsys.readouterr().out
        assert "orphans: removed 1 entries" in out
        assert main(["store", "ls", str(store)]) == 0
        out = capsys.readouterr().out
        assert "B1" not in out
        assert "1 entries, 1 runs" in out

    def test_gc_without_mode_is_an_error(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "build", str(store), "--spec", "paper-example", "_*"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--max-bytes"):
            main(["store", "gc", str(store)])

    def test_gc_orphans_composes_with_max_bytes(self, tmp_path, run_path, capsys):
        store = tmp_path / "store"
        assert main(["store", "warm", str(store), "--run", str(run_path),
                     "_* e _*", "_* b _*"]) == 0
        capsys.readouterr()
        assert main(["store", "gc", str(store), "--orphans", "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "orphans: removed 0 entries" in out  # both grammars registered
        assert main(["store", "ls", str(store)]) == 0
        assert "0 entries" in capsys.readouterr().out  # LRU sweep took the rest


class TestObservabilityCommands:
    def test_query_profile_reports_covering_span_tree(self, run_path, capsys):
        """The acceptance bar: per-operator spans cover >= 95% of the root
        span's wall time on the paper-example run."""
        assert main(["query", str(run_path), "_* e _*", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "matching pairs" in captured.out  # stdout output is unchanged
        assert "query.evaluate" in captured.err
        match = re.search(r"coverage: (\d+(?:\.\d+)?)%", captured.err)
        assert match is not None, captured.err
        assert float(match.group(1)) >= 95.0

    def test_query_trace_json_writes_a_chrome_trace(self, tmp_path, run_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["query", str(run_path), "A+",
                     "--trace-json", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        assert "query.evaluate" in {event["name"] for event in events}
        complete = [event for event in events if event["ph"] == "X"]
        assert complete and all(event["dur"] >= 0 for event in complete)

    def test_metrics_replay_renders_prometheus_text(self, tmp_path, run_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "allpairs", "run": "r1", "query": "A+"}) + "\n"
        )
        assert main(["metrics", "--requests", str(requests),
                     "--run", str(run_path), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_hits_total counter" in out
        assert "# TYPE repro_service_request_seconds histogram" in out
        # the replaying service's own count, not a process-wide total
        assert "\nrepro_service_request_seconds_count 1\n" in out
        assert re.search(r"repro_obs_spans_total [1-9]", out)

    def test_metrics_requires_a_replay(self, run_path, capsys):
        # A fresh process has nothing to report before it serves a batch.
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--run", str(run_path)])
        assert excinfo.value.code == 2
        assert "--requests" in capsys.readouterr().err
