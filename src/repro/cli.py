"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands cover the typical workflow of the library:

* ``repro spec``      — inspect a built-in or stored specification,
* ``repro derive``    — derive a labeled run and store it as JSON,
* ``repro safety``    — check whether a query is safe for a specification,
* ``repro query``     — answer a pairwise or all-pairs query over a stored run
  (``--trace-json`` writes the evaluation's spans as Chrome trace-event JSON,
  which loads in Perfetto / ``chrome://tracing``),
* ``repro batch``     — stream a JSONL batch of queries through the query service,
* ``repro metrics``   — print the metrics registry in Prometheus text
  exposition format, optionally after replaying a JSONL batch,
* ``repro store``     — manage a persistent index store (build/warm/ls/stats/gc),
* ``repro bench``     — benchmark scenarios and trajectory gating (``run`` /
  ``gate`` / ``check`` / ``list`` / ``figures``; same as ``python -m repro.bench``),
* ``repro lint``      — the project's own static-analysis rules
  (:mod:`repro.analysis`), exiting 1 on any finding (a lock-order cycle is
  a REP108 finding), with ``--json`` output and ``--statistics`` call- and
  lock-graph totals.

Library errors (unsafe queries, malformed regexes, broken input files) exit
non-zero with a one-line ``repro: error: ...`` message instead of a
traceback, so the CLI composes cleanly in shell pipelines and CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro import __version__
from repro.core.engine import ProvenanceQueryEngine
from repro.core.exec.plan import DIRECTIONS
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.errors import ReproError
from repro.obs import (
    NULL_TRACER,
    ExecutionProfile,
    Tracer,
    chrome_trace,
    get_registry,
    prometheus_text,
    use_tracer,
)
from repro.service import IndexCache, QueryService, read_requests_jsonl, result_to_dict
from repro.store import IndexStore
from repro.workflow.run import Run
from repro.workflow.serialization import (
    load_run,
    load_specification,
    save_run,
    save_specification,
)
from repro.workflow.spec import Specification

__all__ = ["main"]

_BUILTIN_SPECS = {
    "paper-example": paper_specification,
    "bioaid": bioaid_specification,
    "qblast": qblast_specification,
}


def _resolve_spec(name_or_path: str) -> Specification:
    """A built-in specification name, a JSON file, or ``synthetic:<size>``."""
    if name_or_path in _BUILTIN_SPECS:
        return _BUILTIN_SPECS[name_or_path]()
    if name_or_path.startswith("synthetic:"):
        size = int(name_or_path.split(":", 1)[1])
        return generate_synthetic_specification(size)
    path = Path(name_or_path)
    if path.exists():
        return load_specification(path)
    raise SystemExit(
        f"unknown specification {name_or_path!r}; use one of {sorted(_BUILTIN_SPECS)}, "
        "'synthetic:<size>', or a path to a specification JSON file"
    )


def _cmd_spec(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    print(spec.describe())
    if args.output:
        save_specification(spec, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    engine = ProvenanceQueryEngine(spec)
    run = engine.derive(seed=args.seed, target_edges=args.edges)
    print(run.describe())
    if args.output:
        save_run(run, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_safety(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    engine = ProvenanceQueryEngine(spec)
    report = engine.safety_report(args.query)
    if report.is_safe:
        print(f"SAFE: {args.query!r} is safe for {spec.name!r}")
        return 0
    modules = sorted({violation.module for violation in report.violations})
    print(f"UNSAFE: {args.query!r} is not safe for {spec.name!r}")
    print(f"  modules with execution-dependent behaviour: {modules}")
    plan = engine.plan(args.query)
    print(f"  {plan.describe()}")
    return 1


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.source is None) != (args.target is None):
        given, missing = ("--source", "--target") if args.target is None else ("--target", "--source")
        raise SystemExit(
            f"repro query: {given} also needs {missing} (a pairwise query names both "
            "endpoints; use --sources/--targets for one-sided all-pairs lists)"
        )
    run = load_run(args.run)
    engine = ProvenanceQueryEngine(run.spec)
    observing = bool(args.profile or args.trace_json)
    if not observing:
        return _evaluate_query(args, run, engine)
    tracer = Tracer()
    with use_tracer(tracer):
        code = _evaluate_query(args, run, engine)
    _emit_query_observability(args, tracer, run_id=Path(args.run).stem)
    return code


def _emit_query_observability(
    args: argparse.Namespace, tracer: Tracer, *, run_id: str
) -> None:
    """Profile/trace output for ``repro query``; everything human-oriented
    goes to stderr so piped pair output stays pure."""
    spans = tracer.spans()
    if args.trace_json:
        document = chrome_trace(spans, process_name=f"repro query {run_id}")
        Path(args.trace_json).write_text(json.dumps(document) + "\n")
        print(f"trace: {len(spans)} spans -> {args.trace_json}", file=sys.stderr)
    if args.profile:
        print(ExecutionProfile.from_spans(spans).render(), file=sys.stderr)


def _evaluate_query(
    args: argparse.Namespace, run: Run, engine: ProvenanceQueryEngine
) -> int:
    if args.source is not None:
        if args.stream:
            raise SystemExit(
                "repro query: --stream only applies to all-pairs queries, not "
                "--source/--target pairwise queries"
            )
        answer = (
            engine.pairwise(run, args.source, args.target, args.query)
            if engine.is_safe(args.query)
            else not engine.evaluate_packed(
                run, args.query, [args.source], [args.target]
            ).is_empty()
        )
        print(f"{args.source} -[{args.query}]-> {args.target} : {answer}")
        return 0
    l1 = args.sources.split(",") if args.sources else None
    l2 = args.targets.split(",") if args.targets else None
    if args.stream:
        # Pairs go to stdout unsorted as they are unpacked; the count goes
        # to stderr so piped output stays pure.
        count = 0
        for source, target in engine.evaluate_iter(
            run, args.query, l1, l2, direction=args.direction
        ):
            print(
                json.dumps([source, target]) if args.json else f"{source} -> {target}",
                flush=True,
            )
            count += 1
        print(f"{count} matching pairs", file=sys.stderr)
        return 0
    # The same ordered unpack as the service's answers.
    pairs = engine.evaluate_packed(run, args.query, l1, l2, direction=args.direction).to_pairs(
        run.packed.interner
    )
    if args.json:
        print(json.dumps(pairs))
    else:
        print(f"{len(pairs)} matching pairs")
        for source, target in pairs[: args.limit]:
            print(f"  {source} -> {target}")
        if len(pairs) > args.limit:
            print(f"  ... ({len(pairs) - args.limit} more; use --json for all)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.requests:
        service = QueryService(max_entries=args.cache_entries, store_dir=args.store)
        _register_cli_runs(service, args.run)
        if not service.run_ids():
            raise SystemExit(
                "repro metrics --requests needs at least one run (--run RUN.json, "
                "or --store pointing at a store with a persisted run registry)"
            )
        request_source = (
            sys.stdin if args.requests == "-" else Path(args.requests).open()
        )
        # --trace swaps in a recording tracer so span counters tick too;
        # installing the null tracer otherwise is a no-op re-install.
        tracer = Tracer() if args.trace else NULL_TRACER
        try:
            with use_tracer(tracer):
                for _ in service.iter_batch(read_requests_jsonl(request_source)):
                    pass
        finally:
            if request_source is not sys.stdin:
                request_source.close()
    print(prometheus_text(get_registry()), end="")
    return 0


def _parse_run_entry(entry: str) -> tuple[str | None, str]:
    """Split one ``--run [ID=]PATH`` flag into ``(run id, path)``.

    A bare path wins even when the file name itself contains ``=``
    (``runs/a=b.json`` is a path, not id ``runs/a`` + file ``b.json``);
    otherwise everything before the *first* ``=`` is the id, so an explicit
    id still composes with ``=`` in the file name (``mine=runs/a=b.json``).
    """
    if "=" not in entry or Path(entry).exists():
        return None, entry
    run_id, _, path = entry.partition("=")
    return run_id or None, path


def _register_cli_runs(service: QueryService, entries: list[str]) -> None:
    for entry in entries:
        run_id, path = _parse_run_entry(entry)
        service.load_run_file(path, run_id=run_id)


def _cmd_batch(args: argparse.Namespace) -> int:
    service = QueryService(
        max_entries=args.cache_entries,
        max_workers=args.workers,
        store_dir=args.store,
    )
    _register_cli_runs(service, args.run)
    if not service.run_ids():
        raise SystemExit(
            "repro batch needs at least one run: pass --run RUN.json, or --store "
            "pointing at a store with a persisted run registry"
        )

    # Both sources hand raw lines (trailing newlines and all) to
    # read_requests_jsonl, which normalizes whitespace and skips blanks —
    # stdin and file input see identical parsing, and files stream instead
    # of being read whole.
    request_source = sys.stdin if args.requests == "-" else Path(args.requests).open()
    requests = read_requests_jsonl(request_source)

    output = open(args.output, "w") if args.output else sys.stdout
    ok_count = failed = 0
    try:
        for result in service.iter_batch(requests):
            print(json.dumps(result_to_dict(result)), file=output, flush=True)
            if result.ok:
                ok_count += 1
            else:
                failed += 1
    finally:
        if args.output:
            output.close()
        if request_source is not sys.stdin:
            request_source.close()
    stats = service.cache_stats
    print(
        f"repro batch: {ok_count + failed} requests ({failed} failed), "
        f"{stats.index_builds} index builds, cache hit rate {stats.hit_rate:.1%}",
        file=sys.stderr,
    )
    if args.stats_json:
        # A machine-readable run summary, so CI and scripts assert on fields
        # (e.g. index_builds == 0 after a warm restart) instead of grepping
        # the human-oriented stderr line.
        summary = dataclasses.asdict(stats)
        summary.update(
            requests=ok_count + failed,
            ok=ok_count,
            failed=failed,
            hit_rate=stats.hit_rate,
        )
        # The registry snapshot rides along under its own key: process-wide
        # counters (cache hits/misses, store reads/writes, spans recorded)
        # plus live collector samples, without disturbing the flat
        # CacheStats schema scripts already assert on.
        summary["metrics"] = get_registry().snapshot()
        Path(args.stats_json).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


def _cmd_store_build(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    store = IndexStore(args.dir)
    cache = IndexCache(store=store)
    for query in args.queries:
        try:
            if cache.safety(spec, query).is_safe:
                cache.index(spec, query)
                status = "safe: index stored"
            else:
                cache.plan(spec, query)
                status = "unsafe: safety verdict and plan stored"
        except ReproError as error:
            status = f"error: {error}"
        print(f"  {query} -> {status}")
    print(store.describe())
    return 0


def _cmd_store_warm(args: argparse.Namespace) -> int:
    service = QueryService(store_dir=args.dir)
    _register_cli_runs(service, args.run)
    run_ids = service.run_ids()
    if not run_ids:
        raise SystemExit(
            "repro store warm needs at least one run (--run RUN.json, or a store "
            "with a persisted run registry)"
        )
    for run_id in run_ids:
        print(f"run {run_id}:")
        try:
            statuses = service.warm(run_id, args.queries)
        except KeyError:
            print("  (skipped: persisted run artifact is unreadable)")
            continue
        for query, status in statuses.items():
            print(f"  {query} -> {status}")
    print(service.cache.describe())
    print(service.store.describe())
    return 0


def _existing_store(path: str) -> IndexStore:
    """A store for read-only commands: a missing directory is a user error
    (likely a typo), not a cue to create an empty store."""
    if not Path(path).is_dir():
        raise SystemExit(f"no store directory at {path!r}")
    return IndexStore(path)


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    entries = store.entries()
    for info in entries:
        kind = "safe  " if info.is_safe else "unsafe"
        plan = "+plan" if info.has_plan else "     "
        print(f"{info.fingerprint[:12]}  {kind} {plan} {info.bytes:>8}B  {info.query}")
    run_ids = store.run_ids()
    print(f"{len(entries)} entries, {len(run_ids)} runs" + (f": {run_ids}" if run_ids else ""))
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    entries = store.entries()
    fingerprints: dict[str, int] = {}
    safe = plans = 0
    for info in entries:
        fingerprints[info.fingerprint] = fingerprints.get(info.fingerprint, 0) + 1
        safe += info.is_safe
        plans += info.has_plan
    print(f"store         : {store.root}")
    print(f"entries       : {len(entries)} ({safe} safe, {len(entries) - safe} unsafe, {plans} with plans)")
    print(f"entry bytes   : {store.total_bytes()}")
    print(f"runs          : {len(store.run_ids())}")
    print(f"grammars      : {len(fingerprints)}")
    for fingerprint, count in sorted(fingerprints.items()):
        print(f"  {fingerprint[:16]}...: {count} entries")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    if args.max_bytes is None and not args.orphans:
        raise SystemExit(
            "repro store gc needs --max-bytes (size-budgeted LRU sweep), "
            "--orphans (drop entries of unregistered grammars), or both"
        )
    if args.orphans:
        result = store.gc_orphans()
        print(
            f"orphans: removed {result.removed} entries ({result.freed_bytes} bytes); "
            f"{result.remaining_bytes} bytes remain"
        )
    if args.max_bytes is not None:
        result = store.gc(args.max_bytes)
        print(
            f"lru: removed {result.removed} entries ({result.freed_bytes} bytes); "
            f"{result.remaining_bytes} bytes remain"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(list(args.args))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import all_rules, analyze_paths

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.name}: {rule.description}")
        return 0
    if args.select:
        wanted = {token.strip() for token in args.select.split(",") if token.strip()}
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        rules = [rule for rule in rules if rule.id in wanted]
    paths = [Path(p) for p in args.paths] if args.paths else [Path("src/repro")]
    result = analyze_paths(paths, root=Path.cwd(), rules=rules)
    findings = result.findings
    if args.json:
        payload: dict[str, object] = {
            "version": 2,
            "rules": [rule.id for rule in rules],
            "findings": [finding.to_dict() for finding in findings],
        }
        if args.statistics:
            payload["statistics"] = result.statistics.to_payload()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.describe())
        print(f"{len(findings)} finding(s)")
        if args.statistics:
            stats = result.statistics
            print(
                f"analyzed {stats.modules} module(s), {stats.functions} "
                f"function(s), {stats.call_edges} call edge(s) "
                f"({stats.unresolved_calls}/{stats.total_calls} calls unresolved)"
            )
            print(
                f"locks: {stats.locks}, lock-order edges: "
                f"{stats.lock_order_edges}, cycles: {stats.lock_cycles}"
            )
            per_rule = ", ".join(
                f"{rule_id}={count}"
                for rule_id, count in sorted(stats.rule_findings.items())
            )
            print(f"findings by rule: {per_rule}")
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular path queries on workflow provenance (ICDE 2015 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_parser = sub.add_parser("spec", help="inspect a specification")
    spec_parser.add_argument("spec", help="built-in name, synthetic:<size>, or JSON path")
    spec_parser.add_argument("--output", help="write the specification to a JSON file")
    spec_parser.set_defaults(handler=_cmd_spec)

    derive_parser = sub.add_parser("derive", help="derive a labeled run")
    derive_parser.add_argument("spec")
    derive_parser.add_argument("--edges", type=int, default=1000, help="target edge count")
    derive_parser.add_argument("--seed", type=int, default=0)
    derive_parser.add_argument("--output", help="write the run to a JSON file")
    derive_parser.set_defaults(handler=_cmd_derive)

    safety_parser = sub.add_parser("safety", help="check query safety")
    safety_parser.add_argument("spec")
    safety_parser.add_argument("query")
    safety_parser.set_defaults(handler=_cmd_safety)

    query_parser = sub.add_parser("query", help="answer a query over a stored run")
    query_parser.add_argument("run", help="path to a run JSON file (see 'repro derive')")
    query_parser.add_argument("query")
    query_parser.add_argument("--source", help="pairwise query: source node id")
    query_parser.add_argument("--target", help="pairwise query: target node id")
    query_parser.add_argument("--sources", help="all-pairs: comma-separated source ids")
    query_parser.add_argument("--targets", help="all-pairs: comma-separated target ids")
    query_parser.add_argument("--limit", type=int, default=20, help="pairs to print")
    query_parser.add_argument("--json", action="store_true", help="print all pairs as JSON")
    query_parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "all-pairs only: print pairs one per line, unsorted, no limit; "
            "safe queries stream as they are decoded, in constant memory; "
            "unsafe queries are computed whole (one bit per node pair at "
            "most), then printed unordered"
        ),
    )
    query_parser.add_argument(
        "--direction",
        choices=DIRECTIONS,
        default="auto",
        help=(
            "frontier search direction for unsafe all-pairs queries: forward "
            "seeds the sweep with the requested sources, backward with the "
            "requested targets over the reversed query DFA (wins when "
            "--targets is much smaller than --sources); auto (default) "
            "goes backward when --targets has fewer seeds"
        ),
    )
    query_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record an execution profile: evaluate under the tracer and "
            "print the per-operator span tree (with the coverage line) to "
            "stderr, leaving stdout output unchanged"
        ),
    )
    query_parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help=(
            "record the evaluation's spans and write them as Chrome "
            "trace-event JSON (loads in Perfetto / chrome://tracing)"
        ),
    )
    query_parser.set_defaults(handler=_cmd_query)

    metrics_parser = sub.add_parser(
        "metrics",
        help="print the metrics registry in Prometheus text format",
        description=(
            "Print every registered counter/gauge/histogram plus live "
            "collector samples in the Prometheus text exposition format. "
            "With --requests, a JSONL batch is replayed through the query "
            "service first so the exposition reflects real traffic."
        ),
    )
    metrics_parser.add_argument(
        "--requests",
        metavar="PATH",
        help="JSONL request file (or '-' for stdin) to replay before reporting",
    )
    metrics_parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help="register a run JSON file (repeatable; default ID is the file stem)",
    )
    metrics_parser.add_argument(
        "--store", help="persistent store directory backing the service"
    )
    metrics_parser.add_argument(
        "--cache-entries", type=int, default=512, help="index cache entry bound"
    )
    metrics_parser.add_argument(
        "--trace",
        action="store_true",
        help="install a recording tracer during the replay (span counters tick)",
    )
    metrics_parser.set_defaults(handler=_cmd_metrics)

    batch_parser = sub.add_parser(
        "batch",
        help="evaluate a JSONL batch of queries through the shared-cache service",
        description=(
            "Read one JSON request per line (op/run/query/source/target fields; "
            "see repro.service.requests) and stream one JSON result per line, "
            "in request order.  Runs are registered with --run; requests refer "
            "to them by id (default: the file stem)."
        ),
    )
    batch_parser.add_argument("requests", help="JSONL request file, or '-' for stdin")
    batch_parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help=(
            "register a run JSON file under ID (repeatable; default ID is the "
            "file stem, and an existing path containing '=' is taken as-is)"
        ),
    )
    batch_parser.add_argument("--output", help="write JSONL results here instead of stdout")
    batch_parser.add_argument(
        "--workers", type=int, default=None, help="evaluation thread count"
    )
    batch_parser.add_argument(
        "--cache-entries", type=int, default=512, help="index cache entry bound"
    )
    batch_parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write a machine-readable JSON run summary (request/ok/failed "
            "counts plus every cache/store counter) to this file"
        ),
    )
    batch_parser.add_argument(
        "--store",
        help=(
            "persistent index store directory: cached indexes/plans are read "
            "from and written to it, and runs persisted there (see 'repro "
            "store warm') are registered automatically"
        ),
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    store_parser = sub.add_parser(
        "store",
        help="manage a persistent index store (warm service restarts)",
        description=(
            "A store directory holds versioned, checksummed JSON artifacts of "
            "everything the index cache computes (safety reports, query "
            "indexes, decomposition plans with macro DFAs) plus a registry of "
            "labeled runs, keyed by (specification fingerprint, canonical "
            "query).  Services opened with the same store restart warm."
        ),
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    store_build = store_sub.add_parser(
        "build", help="build index/plan entries for queries against a specification"
    )
    store_build.add_argument("dir", help="store directory (created if missing)")
    store_build.add_argument("--spec", required=True, help="built-in name, synthetic:<size>, or JSON path")
    store_build.add_argument("queries", nargs="+", metavar="QUERY")
    store_build.set_defaults(handler=_cmd_store_build)

    store_warm = store_sub.add_parser(
        "warm",
        help=(
            "register runs and warm queries through a store-backed service "
            "(persists runs, indexes, plans and routed subquery indexes)"
        ),
    )
    store_warm.add_argument("dir", help="store directory (created if missing)")
    store_warm.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help="register a run JSON file (repeatable; default ID is the file stem)",
    )
    store_warm.add_argument("queries", nargs="+", metavar="QUERY")
    store_warm.set_defaults(handler=_cmd_store_warm)

    store_ls = store_sub.add_parser("ls", help="list stored entries and runs")
    store_ls.add_argument("dir")
    store_ls.set_defaults(handler=_cmd_store_ls)

    store_stats = store_sub.add_parser("stats", help="summarize a store directory")
    store_stats.add_argument("dir")
    store_stats.set_defaults(handler=_cmd_store_stats)

    store_gc = store_sub.add_parser(
        "gc",
        help=(
            "reclaim entries: LRU down to a size budget and/or drop entries "
            "of grammars with no registered run"
        ),
    )
    store_gc.add_argument("dir")
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="entry-tier size budget (LRU sweep); runs are never evicted",
    )
    store_gc.add_argument(
        "--orphans",
        action="store_true",
        help=(
            "drop entries whose specification fingerprint matches no run in "
            "the store's registry (note: a store used only via 'repro store "
            "build', with no registered runs, is all orphans by definition)"
        ),
    )
    store_gc.set_defaults(handler=_cmd_store_gc)

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark scenarios, trajectory gating, and the paper's figures",
        description=(
            "Everything after 'bench' is forwarded to the benchmark front-end: "
            "'run' executes catalog scenarios, 'gate' compares a run against "
            "the stored trajectory, 'check' validates the catalog and "
            "smoke-runs every entry, 'list' prints it, 'figures' runs the "
            "paper's figure groups (fig13a ... fig15b, ablation-*) and prints "
            "their tables."
        ),
    )
    bench_parser.add_argument("args", nargs=argparse.REMAINDER)
    bench_parser.set_defaults(handler=_cmd_bench)

    lint_parser = sub.add_parser(
        "lint",
        help="run the project's static-analysis rules (repro.analysis)",
        description=(
            "Run the project-specific rules (lock discipline, lock order, "
            "planner purity, exception discipline, streaming discipline, "
            "typed defs) over the given paths. Any finding exits 1; a path "
            "that does not exist exits 2."
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    lint_parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--rules",
        dest="list_rules",
        action="store_true",
        help="list the rule catalog and exit",
    )
    lint_parser.add_argument(
        "--statistics",
        action="store_true",
        help="report per-rule finding counts and call/lock-graph totals",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError, ValueError) as error:
        # ValueError covers json.JSONDecodeError plus bad CLI values that
        # surface from the library (duplicate run ids, zero workers, ...).
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
