"""The four workloads of the rpq benchmark and their answer oracle.

Each workload drives one or more ``QueryService`` instances built with
production defaults (``max_workers=os.cpu_count()``; no executor, kernel,
strategy or direction knob) from a single closed-loop client.  The data sets
(grammars, runs, query pools and the adhoc query sequence) are fixed, and
each request class has a fixed share of every cycle of the stream;
``--seed`` draws the nodes of every request and the order of the stream.
Costs differ several-fold between queries, so letting the seed pick queries
would let the seed, rather than the program, move the numbers.

Why these four (each stresses layers the others leave idle):

* ``hot-serve`` — the steady state the paper optimises: every cache lookup
  hits, so time goes to label decode and the unsafe remainder.
* ``adhoc-queries`` — every request carries a query the service has never
  seen: regex -> DFA -> safety -> index -> plan, with the 512-entry index
  cache overflowing so evictions happen.
* ``heavy-allpairs`` — large unsafe all-pairs requests: packed joins and
  closures (a request without node lists) and frontier search, with
  automata and store idle.
* ``store-cycle`` — the persistent store's write path (ingest + warm, every
  artifact fsync'd, the program's default flush policy) and read path (a
  restarted service answering from disk).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import shutil
import time
from collections.abc import Callable, Hashable, Iterator
from pathlib import Path
from typing import Any

from repro import (
    IndexCache,
    QueryRequest,
    QueryResult,
    QueryService,
    Run,
    bioaid_specification,
    derive_run,
    generate_synthetic_specification,
    qblast_specification,
)
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.datasets.index import EdgeTagIndex
from repro.datasets.myexperiment import fork_production_indices
from repro.datasets.queries import (
    discriminating_tags,
    generate_ifq,
    generate_ifq_along_path,
    generate_random_query,
)
from repro.datasets.runs import generate_fork_heavy_run
from repro.workflow.serialization import save_run

#: Seed of the fixed data sets (runs and query pools), independent of --seed.
DATA_SEED = 7

#: All-pairs requests with more sources than this are checked on a
#: deterministic sample of this many sources.
ORACLE_SOURCES = 300

#: One client operation: request class, request identity, the timed call.
Op = tuple[str, Hashable, Callable[[], Any]]


class OpFailed(Exception):
    """An operation returned an error result."""


class Stopwatch:
    """Accumulates the wall time spent inside ``with stopwatch:`` blocks;
    set-up wraps only program calls in it, never benchmark-side choices."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.seconds += time.perf_counter() - self._start


def new_service(**kwargs: Any) -> QueryService:
    return QueryService(max_workers=os.cpu_count(), **kwargs)


def answer_of(kind: str, result: Any) -> Hashable:
    """The comparable answer of one operation, or :class:`OpFailed`."""
    if isinstance(result, BaseException):
        raise OpFailed(f"{type(result).__name__}: {result}")
    if kind == "ingest":
        errors = [status for status in result.values() if status.startswith("error:")]
        if errors:
            raise OpFailed(errors[0])
        return tuple(sorted(result.items()))
    assert isinstance(result, QueryResult)
    if not result.ok:
        raise OpFailed(result.error or "error result")
    return result.answer if result.pairs is None else result.pairs


def random_walk_target(run: Run, source: str, rng: random.Random) -> str:
    """A node reached from ``source`` by a short random forward walk."""
    node = source
    for _ in range(rng.randint(1, 12)):
        successors = run.successors[node]
        if not successors:
            break
        node = successors[rng.randrange(len(successors))][0]
    return node


def highest_fan_in(run: Run, count: int) -> list[str]:
    """The ``count`` nodes with the most ancestors (ties by id)."""
    indegree = {node: 0 for node in run.node_ids()}
    for node in run.node_ids():
        for target, _ in run.successors[node]:
            indegree[target] += 1
    bit = {node: 1 << position for position, node in enumerate(run.node_ids())}
    ancestors = {node: 0 for node in run.node_ids()}
    ready = [node for node, degree in indegree.items() if degree == 0]
    while ready:
        node = ready.pop()
        reach = ancestors[node] | bit[node]
        for target, _ in run.successors[node]:
            ancestors[target] |= reach
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    ranked = sorted(run.node_ids(), key=lambda node: (-ancestors[node].bit_count(), node))
    return ranked[:count]


class Workload:
    """One workload: set-up, the operation stream, and counters.

    ``check_limit`` is how many distinct query requests, in stream order,
    are checked against the oracle; ``cycle`` is the number of operations
    the window always completes together; ``classes`` maps a latency-class
    metric prefix to the request classes it pools.
    """

    name = ""
    check_limit = 0
    cycle = 1
    classes: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.runs: dict[str, Run] = {}
        self.service: QueryService | None = None

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def setup(self, program: Stopwatch) -> None:
        raise NotImplementedError

    def requests(self) -> Iterator[QueryRequest]:
        """The window's request stream (workloads of plain requests)."""
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        assert self.service is not None
        execute = self.service.execute
        for request in self.requests():
            yield request.op, request, functools.partial(execute, request)

    def counters(self) -> dict[str, float]:
        assert self.service is not None
        return stats_counters(self.service)

    def extra_metrics(self, delta: dict[str, float]) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Release what set-up created (services and working files)."""


def stats_counters(service: QueryService) -> dict[str, float]:
    stats = service.cache_stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "builds": stats.safety_checks + stats.plan_builds,
        "store_hits": stats.store_hits,
        "store_misses": stats.store_misses,
    }


def _sample(rng: random.Random, nodes: list[str], size: int) -> tuple[str, ...]:
    return tuple(rng.sample(nodes, min(size, len(nodes))))


# ---------------------------------------------------------------------------
# hot-serve and adhoc-queries share one data set
# ---------------------------------------------------------------------------

SERVE_EDGES = 1500


def serve_runs() -> dict[str, Run]:
    """A BioAID run and a QBLast run of ~1500 edges each (derive + label)."""
    return {
        "bioaid": derive_run(bioaid_specification(), seed=DATA_SEED, target_edges=SERVE_EDGES),
        "qblast": derive_run(qblast_specification(), seed=DATA_SEED, target_edges=SERVE_EDGES),
    }


def query_pool(run: Run, index: EdgeTagIndex) -> tuple[str, ...]:
    """The fixed pool of one run: IFQs of k = 2..6 along run paths, three
    ``_* <discriminating tag> _*`` queries and four random depth-2 queries."""
    spec = run.spec
    rng = random.Random(f"pool:{spec.name}:{DATA_SEED}")
    queries = [generate_ifq_along_path(run, k, seed=k, index=index) for k in range(2, 7)]
    queries += [f"_* {tag} _*" for tag in rng.sample(sorted(discriminating_tags(spec)), 3)]
    queries += [generate_random_query(spec, seed=seed, depth=2) for seed in range(4)]
    return tuple(dict.fromkeys(queries))


class _ServeWorkload(Workload):
    def _pair(self, rng: random.Random, run_id: str) -> tuple[str, str]:
        """Half uniformly random pairs, half pairs joined by a path."""
        nodes = self.nodes[run_id]
        source = rng.choice(nodes)
        if rng.random() < 0.5:
            return source, rng.choice(nodes)
        return source, random_walk_target(self.runs[run_id], source, rng)

    def _start(self, program: Stopwatch) -> None:
        with program:
            self.runs = serve_runs()
            self.service = new_service()
            for run_id, run in self.runs.items():
                self.service.register_run(run, run_id)
        self.nodes = {run_id: list(run.node_ids()) for run_id, run in self.runs.items()}
        self.run_ids = sorted(self.runs)


class HotServe(_ServeWorkload):
    name = "hot-serve"
    check_limit = 300
    cycle = 20
    classes = {"pairwise": ("pairwise",), "allpairs": ("allpairs",)}
    #: One cycle of request classes (55% / 15% / 30%), shuffled per cycle.
    MIX = ("pairwise",) * 11 + ("reachability",) * 3 + ("allpairs",) * 6
    LIST_SIZE = 40
    WARMUP_REQUESTS = 200

    def setup(self, program: Stopwatch) -> None:
        self._start(program)
        self.pools = {
            run_id: query_pool(run, EdgeTagIndex.from_run(run))
            for run_id, run in self.runs.items()
        }
        warmup = list(itertools.islice(self._stream(self.rng("warmup")), self.WARMUP_REQUESTS))
        assert self.service is not None
        with program:
            for run_id, pool in self.pools.items():
                self.service.warm(run_id, pool)
            for request in warmup:
                self.service.execute(request)

    def _stream(self, rng: random.Random) -> Iterator[QueryRequest]:
        """Exact class shares per cycle, runs alternating, and each run's
        pool queried round-robin per class from a seeded offset, so the
        seed moves node choices and order but not the mix."""
        runs = itertools.cycle(self.run_ids)
        queries = {
            (run_id, kind): itertools.islice(
                itertools.cycle(pool), rng.randrange(len(pool)), None
            )
            for run_id, pool in self.pools.items()
            for kind in ("pairwise", "allpairs")
        }
        while True:
            cycle = list(self.MIX)
            rng.shuffle(cycle)
            for kind in cycle:
                run_id = next(runs)
                if kind == "allpairs":
                    nodes = self.nodes[run_id]
                    yield QueryRequest(
                        op="allpairs",
                        run=run_id,
                        query=next(queries[run_id, kind]),
                        sources=_sample(rng, nodes, self.LIST_SIZE),
                        targets=_sample(rng, nodes, self.LIST_SIZE),
                    )
                    continue
                source, target = self._pair(rng, run_id)
                query = next(queries[run_id, kind]) if kind == "pairwise" else None
                yield QueryRequest(op=kind, run=run_id, query=query, source=source, target=target)

    def requests(self) -> Iterator[QueryRequest]:
        return self._stream(self.rng("stream"))


class AdhocQueries(_ServeWorkload):
    name = "adhoc-queries"
    check_limit = 300
    #: Every (operation, query family, k) combination once per 30 requests.
    cycle = 30
    classes = {"first_query": ("pairwise", "allpairs")}
    LIST_SIZE = 10
    WARMUP_REQUESTS = 60

    def setup(self, program: Stopwatch) -> None:
        self._start(program)
        self.tag_index = {run_id: EdgeTagIndex.from_run(run) for run_id, run in self.runs.items()}
        self.seen: set[tuple[str, str]] = set()
        warmup = list(
            itertools.islice(self._stream("warmup", self.rng("warmup")), self.WARMUP_REQUESTS)
        )
        self.stream = self._stream("stream", self.rng("stream"))
        assert self.service is not None
        with program:
            for request in warmup:
                self.service.execute(request)

    def _new_query(self, rng: random.Random, run_id: str, family: int, k: int) -> str:
        """A query whose cache key no earlier request used: an IFQ of k
        random tags (family 0), an IFQ of k tags along a run path (1), or a
        random depth-3 query (2)."""
        run = self.runs[run_id]
        while True:
            seed = rng.randrange(1 << 30)
            if family == 0:
                query = generate_ifq(run.spec, k, seed=seed)
            elif family == 1:
                query = generate_ifq_along_path(run, k, seed=seed, index=self.tag_index[run_id])
            else:
                query = generate_random_query(run.spec, seed=seed, depth=3)
            key = IndexCache.key_for(run.spec, query)
            if key not in self.seen:
                self.seen.add(key)
                return query

    def _stream(self, name: str, rng: random.Random) -> Iterator[QueryRequest]:
        """Requests alternate pairwise/all-pairs; family and k (3..7) are
        stratified over each cycle and the runs alternate by cycle.  The
        query sequence is part of the fixed data set; ``rng`` draws the
        nodes."""
        queries = random.Random(f"{self.name}:{DATA_SEED}:{name}")
        for position in itertools.count():
            run_id = self.run_ids[(position // self.cycle) % len(self.run_ids)]
            query = self._new_query(queries, run_id, family=position % 3, k=3 + position % 5)
            if position % 2 == 0:
                source, target = self._pair(rng, run_id)
                yield QueryRequest(
                    op="pairwise", run=run_id, query=query, source=source, target=target
                )
            else:
                nodes = self.nodes[run_id]
                yield QueryRequest(
                    op="allpairs",
                    run=run_id,
                    query=query,
                    sources=_sample(rng, nodes, self.LIST_SIZE),
                    targets=_sample(rng, nodes, self.LIST_SIZE),
                )

    def requests(self) -> Iterator[QueryRequest]:
        # Continues one stream across windows: a query must stay unseen.
        return self.stream


# ---------------------------------------------------------------------------
# heavy-allpairs
# ---------------------------------------------------------------------------

#: Grammar families built with ``generate_synthetic_specification``.
DENSE_WILDCARD = {"tag_vocabulary_size": 5, "branchiness": 0.5}
DEEP_RECURSION = {"recursion_fraction": 0.85, "alternative_fraction": 0.1}


class HeavyAllPairs(Workload):
    name = "heavy-allpairs"
    check_limit = 10
    cycle = 5
    classes = {"allpairs": ("allpairs",)}
    #: 100 x 100 lists keep a request at tens of milliseconds, so a window
    #: holds enough requests for a p95.
    LIST_SIZE = 100
    FAN_IN_TARGETS = 3
    #: Without node lists the planner routes the unsafe remainder to packed
    #: joins and closures; the run is small because the answer is ~|V|^2.
    UNRESTRICTED = "dense-wildcard"
    ALL_SOURCES = "qblast-9000"

    def setup(self, program: Stopwatch) -> None:
        with program:
            dense = generate_synthetic_specification(
                250, seed=1, name="dense-wildcard-250", **DENSE_WILDCARD
            )
            deep = generate_synthetic_specification(
                300, seed=1, name="deep-recursion-300", **DEEP_RECURSION
            )
            bioaid = bioaid_specification()
            qblast = qblast_specification()
            self.runs = {
                self.UNRESTRICTED: derive_run(dense, seed=DATA_SEED, target_edges=120),
                "deep-recursion": derive_run(deep, seed=DATA_SEED, target_edges=1200),
                "bioaid": derive_run(bioaid, seed=DATA_SEED, target_edges=1500),
                "qblast-fork": generate_fork_heavy_run(
                    qblast, 4000, fork_production_indices(qblast, "q1_loop"), seed=DATA_SEED
                ),
                self.ALL_SOURCES: derive_run(qblast, seed=DATA_SEED, target_edges=9000),
            }
        self.queries = {
            self.UNRESTRICTED: "_* op0 _* op0 _*",
            "deep-recursion": generate_ifq(deep, 3, seed=0),
            "bioaid": "_* f1_fork _*",
            "qblast-fork": "q1_loop*",
            self.ALL_SOURCES: "_* qx_b _*",
        }
        self.nodes = {run_id: list(run.node_ids()) for run_id, run in self.runs.items()}
        self.fixed = {
            self.UNRESTRICTED: QueryRequest(
                op="allpairs", run=self.UNRESTRICTED, query=self.queries[self.UNRESTRICTED]
            ),
            self.ALL_SOURCES: QueryRequest(
                op="allpairs",
                run=self.ALL_SOURCES,
                query=self.queries[self.ALL_SOURCES],
                sources=tuple(self.nodes[self.ALL_SOURCES]),
                targets=tuple(highest_fan_in(self.runs[self.ALL_SOURCES], self.FAN_IN_TARGETS)),
            ),
        }
        warmup = list(itertools.islice(self._stream(self.rng("warmup")), self.cycle))
        with program:
            self.service = new_service()
            for run_id, run in self.runs.items():
                self.service.register_run(run, run_id)
                self.service.warm(run_id, [self.queries[run_id]])
            for request in warmup:
                self.service.execute(request)

    def _stream(self, rng: random.Random) -> Iterator[QueryRequest]:
        """One request per run in turn: fresh seeded lists, except the
        unrestricted request and every source of the 9000-edge run against
        its 3 highest fan-in targets."""
        for run_id in itertools.cycle(self.queries):
            if run_id in self.fixed:
                yield self.fixed[run_id]
                continue
            nodes = self.nodes[run_id]
            yield QueryRequest(
                op="allpairs",
                run=run_id,
                query=self.queries[run_id],
                sources=_sample(rng, nodes, self.LIST_SIZE),
                targets=_sample(rng, nodes, self.LIST_SIZE),
            )

    def requests(self) -> Iterator[QueryRequest]:
        return self._stream(self.rng("stream"))


# ---------------------------------------------------------------------------
# store-cycle
# ---------------------------------------------------------------------------


class _StoreRound:
    """One store-cycle round: a store directory and the services started on
    it, the first of each role on first use (so its start-up is timed)."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.services: dict[str, QueryService] = {}

    def service(self, role: str) -> QueryService:
        if role not in self.services:
            self.services[role] = new_service(store_dir=self.directory)
        return self.services[role]


class StoreCycle(Workload):
    name = "store-cycle"
    check_limit = 12
    cycle = 8
    classes = {"ingest": ("ingest",), "restart_query": ("restart_query",)}
    RUN_EDGES = 600
    LIST_SIZE = 20

    def setup(self, program: Stopwatch) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {run_id: self.workdir / f"{run_id}.json" for run_id in ("bioaid", "qblast")}
        with program:
            self.runs = {
                "bioaid": derive_run(
                    bioaid_specification(), seed=DATA_SEED, target_edges=self.RUN_EDGES
                ),
                "qblast": derive_run(
                    qblast_specification(), seed=DATA_SEED, target_edges=self.RUN_EDGES
                ),
            }
            for run_id, run in self.runs.items():
                save_run(run, self.files[run_id])
        self.queries = {run_id: self._standing(run) for run_id, run in self.runs.items()}
        self.nodes = {run_id: list(run.node_ids()) for run_id, run in self.runs.items()}
        self.totals = dict.fromkeys(
            ("hits", "misses", "evictions", "builds", "store_hits", "store_misses",
             "store_bytes", "runs_ingested"),
            0.0,
        )
        warmup = self._cycles(self.rng("warmup"))
        with program:
            for _ in range(self.cycle):
                _, _, call = next(warmup)
                call()
        warmup.close()

    @staticmethod
    def _standing(run: Run) -> tuple[str, ...]:
        """Three standing queries per run: an IFQ along a run path, an
        IFQ of five random tags, and a discriminating-tag query."""
        spec = run.spec
        index = EdgeTagIndex.from_run(run)
        tag = sorted(discriminating_tags(spec))[0]
        return (
            generate_ifq_along_path(run, 3, seed=DATA_SEED, index=index),
            generate_ifq(spec, 5, seed=DATA_SEED),
            f"_* {tag} _*",
        )

    def _ingest(self, cycle: _StoreRound, run_id: str) -> dict[str, str]:
        service = cycle.service("ingest")
        service.load_run_file(self.files[run_id], run_id=run_id)
        return service.warm(run_id, self.queries[run_id])

    @staticmethod
    def _restart(cycle: _StoreRound, request: QueryRequest) -> QueryResult:
        return cycle.service("restart").execute(request)

    def ops(self) -> Iterator[Op]:
        return self._cycles(self.rng("stream"))

    def _cycles(self, rng: random.Random) -> Iterator[Op]:
        """Cycles of 2 ingests then the 6 standing queries on fresh seeded
        20 x 20 lists, each cycle in a fresh store directory.  A cycle is
        accounted once its last operation ran: the consumer runs every
        yielded call before it resumes or closes this generator, and the
        window always ends on a cycle boundary."""
        for number in itertools.count():
            cycle = _StoreRound(self.workdir / f"store-{number}")
            requests = [
                QueryRequest(
                    op="allpairs",
                    run=run_id,
                    query=query,
                    sources=_sample(rng, self.nodes[run_id], self.LIST_SIZE),
                    targets=_sample(rng, self.nodes[run_id], self.LIST_SIZE),
                )
                for run_id, queries in self.queries.items()
                for query in queries
            ]
            ops: list[Op] = [
                ("ingest", ("ingest", run_id), functools.partial(self._ingest, cycle, run_id))
                for run_id in self.files
            ]
            ops += [
                ("restart_query", request, functools.partial(self._restart, cycle, request))
                for request in requests
            ]
            yielded = 0
            try:
                for op in ops:
                    yielded += 1
                    yield op
            finally:
                if yielded == len(ops):
                    self._account(cycle)
                shutil.rmtree(cycle.directory, ignore_errors=True)

    def _account(self, cycle: _StoreRound) -> None:
        for service in cycle.services.values():
            for name, value in stats_counters(service).items():
                self.totals[name] += value
        restarted = cycle.services.get("restart")
        if restarted is not None and restarted.store is not None:
            self.totals["store_bytes"] += restarted.store.total_bytes()
            self.totals["runs_ingested"] += len(self.files)

    def counters(self) -> dict[str, float]:
        return dict(self.totals)

    def extra_metrics(self, delta: dict[str, float]) -> dict[str, float]:
        if not delta["runs_ingested"]:
            return {}
        return {"store_kb_per_run": delta["store_bytes"] / 1024 / delta["runs_ingested"]}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (HotServe, AdhocQueries, HeavyAllPairs, StoreCycle)
}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def check_answers(
    runs: dict[str, Run], checked: list[tuple[QueryRequest, Hashable]], seed: int
) -> list[str]:
    """Compare service answers with ``product_bfs`` (one oracle search per
    distinct source of each run/query group); returns mismatch messages.

    Reachability is checked as the query ``_*``, and missing node lists mean
    every node of the run.  An all-pairs request with more than
    :data:`ORACLE_SOURCES` sources is checked on a deterministic sample of
    that many sources.
    """
    sampler = random.Random(f"oracle:{seed}")
    Member = tuple[QueryRequest, Hashable, frozenset[str], frozenset[str]]
    groups: dict[tuple[str, str], list[Member]] = {}
    for request, answer in checked:
        query = request.query if request.query is not None else "_*"
        nodes = runs[request.run].node_ids()
        if request.op == "allpairs":
            sources = sorted(set(request.sources if request.sources is not None else nodes))
            if len(sources) > ORACLE_SOURCES:
                sources = sampler.sample(sources, ORACLE_SOURCES)
            targets = request.targets if request.targets is not None else nodes
        else:
            sources, targets = [request.source], [request.target]
        groups.setdefault((request.run, query), []).append(
            (request, answer, frozenset(sources), frozenset(targets))
        )
    mismatches = []
    for (run_id, query), members in groups.items():
        sources = sorted(set().union(*(member[2] for member in members)))
        targets = sorted(set().union(*(member[3] for member in members)))
        expected_pairs = product_bfs_all_pairs(runs[run_id], sources, targets, query)
        for request, answer, checked_sources, wanted in members:
            if request.op == "allpairs":
                expected: Any = {
                    pair for pair in expected_pairs
                    if pair[0] in checked_sources and pair[1] in wanted
                }
                got: Any = {pair for pair in answer if pair[0] in checked_sources}
            else:
                expected = (request.source, request.target) in expected_pairs
                got = answer
            if got != expected:
                mismatches.append(f"{request.op} {run_id} {query!r}: differs from product_bfs")
    return mismatches


def answers_digest(checked: list[tuple[QueryRequest, Hashable]]) -> str:
    """A digest of the checked requests and their answers, in stream order."""
    records = [
        [
            request.op,
            request.run,
            request.query,
            request.source,
            request.target,
            list(request.sources or ()),
            list(request.targets or ()),
            answer if isinstance(answer, bool) else [list(pair) for pair in answer],
        ]
        for request, answer in checked
    ]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
