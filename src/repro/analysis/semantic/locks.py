"""Lock-order graph construction and deadlock-cycle detection.

From the call graph's acquisition and call-site facts this module derives:

* ``transitive``: for each function, every lock it can acquire — directly or
  through any resolved callee (a fixpoint, so call cycles are handled);
* ``edges``: the lock-order relation — an edge ``A -> B`` means some
  execution path acquires ``B`` while already holding ``A``, either directly
  (``with A: ... with B:``) or interprocedurally (``with A: f()`` where
  ``f`` transitively acquires ``B``).  Every edge carries a human-readable
  witness naming the function, file and line that create it;
* ``cycles``: strongly connected components of the edge relation with more
  than one lock, plus self-loops on non-reentrant locks (acquiring a plain
  ``threading.Lock`` you already hold deadlocks a single thread).  Each
  cycle becomes one REP108 finding.

Reentrant locks (``threading.RLock``) may be re-acquired by design, so
``A -> A`` edges on an ``rlock`` are dropped; they still order normally
against other locks.  This follows the static side of the lockset tradition
(Eraser, SOSP '97; RacerD, OOPSLA '18): a consistent global acquisition
order is the property, the graph is the proof obligation, and a cycle is a
schedule waiting to happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.semantic.callgraph import CallGraph

__all__ = ["LockEdge", "LockGraph", "build_lock_graph"]


@dataclass(frozen=True)
class LockEdge:
    """One lock-order edge with the program point that witnesses it."""

    source: str
    target: str
    function: str
    path: str
    line: int
    witness: str


@dataclass
class LockGraph:
    """The derived lock-order relation over canonical lock names."""

    locks: dict[str, str]
    """canonical name -> ``lock`` | ``rlock``."""
    edges: list[LockEdge]
    cycles: list[list[str]]
    transitive: dict[str, frozenset[str]]
    """function qualified name -> every lock it can (transitively) acquire."""

    @property
    def acyclic(self) -> bool:
        return not self.cycles

    def edge(self, source: str, target: str) -> LockEdge | None:
        for candidate in self.edges:
            if candidate.source == source and candidate.target == target:
                return candidate
        return None


def _transitive_locks(graph: CallGraph) -> dict[str, frozenset[str]]:
    direct: dict[str, set[str]] = {name: set() for name in graph.functions}
    for acquisition in graph.acquisitions:
        if acquisition.function in direct:
            direct[acquisition.function].add(acquisition.lock)
    callees: dict[str, set[str]] = {}
    for site in graph.calls:
        if site.caller in direct and site.callee in direct:
            callees.setdefault(site.caller, set()).add(site.callee)
    changed = True
    while changed:
        changed = False
        for caller, targets in callees.items():
            merged = direct[caller]
            before = len(merged)
            for callee in targets:
                merged |= direct[callee]
            if len(merged) != before:
                changed = True
    return {name: frozenset(locks) for name, locks in direct.items()}


def _is_reentrant(lock: str, kinds: Mapping[str, str]) -> bool:
    return kinds.get(lock) == "rlock"


def build_lock_graph(graph: CallGraph) -> LockGraph:
    """Derive the lock-order graph from call-graph facts."""
    transitive = _transitive_locks(graph)
    kinds = dict(graph.lock_kinds)
    edges: dict[tuple[str, str], LockEdge] = {}

    def add_edge(source: str, target: str, function: str, line: int, witness: str) -> None:
        if source == target and _is_reentrant(source, kinds):
            return
        key = (source, target)
        if key not in edges:
            info = graph.functions[function]
            edges[key] = LockEdge(
                source=source,
                target=target,
                function=function,
                path=info.display_path,
                line=line,
                witness=witness,
            )

    for acquisition in sorted(
        graph.acquisitions, key=lambda a: (a.function, a.line, a.lock)
    ):
        info = graph.functions.get(acquisition.function)
        if info is None:
            continue
        for held in acquisition.held:
            add_edge(
                held,
                acquisition.lock,
                acquisition.function,
                acquisition.line,
                f"{info.qualname} ({info.display_path}:{acquisition.line}) "
                f"acquires {acquisition.lock} while holding {held}",
            )
    for site in sorted(graph.calls, key=lambda s: (s.caller, s.line, s.callee)):
        if not site.held:
            continue
        caller = graph.functions.get(site.caller)
        callee_locks = transitive.get(site.callee, frozenset())
        if caller is None or not callee_locks:
            continue
        callee_name = graph.functions[site.callee].qualname
        for held in site.held:
            for target in sorted(callee_locks):
                add_edge(
                    held,
                    target,
                    site.caller,
                    site.line,
                    f"{caller.qualname} ({caller.display_path}:{site.line}) "
                    f"holds {held} and calls {callee_name}, which acquires "
                    f"{target}",
                )

    edge_list = [edges[key] for key in sorted(edges)]
    return LockGraph(
        locks=kinds,
        edges=edge_list,
        cycles=_find_cycles(edge_list, kinds),
        transitive=transitive,
    )


def _find_cycles(
    edges: list[LockEdge], kinds: Mapping[str, str]
) -> list[list[str]]:
    """Tarjan SCCs of the edge relation; multi-lock components and
    non-reentrant self-loops are deadlock cycles.  Iterative, so a long
    acquisition chain cannot hit the recursion limit."""
    adjacency: dict[str, list[str]] = {}
    nodes: list[str] = []
    for edge in edges:
        for node in (edge.source, edge.target):
            if node not in adjacency:
                adjacency[node] = []
                nodes.append(node)
        adjacency[edge.source].append(edge.target)

    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbors = adjacency[node]
            while child_index < len(neighbors):
                neighbor = neighbors[child_index]
                child_index += 1
                if neighbor not in index:
                    work[-1] = (node, child_index)
                    work.append((neighbor, 0))
                    advanced = True
                    break
                if neighbor in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))

    self_loops = {edge.source for edge in edges if edge.source == edge.target}
    cycles = [
        component
        for component in components
        if len(component) > 1
        or (component[0] in self_loops and not _is_reentrant(component[0], kinds))
    ]
    return sorted(cycles)
