"""Derivation of runs from workflow specifications.

A run is obtained by a sequence of *node replacements* (Definition 4 of the
paper): starting from a single node named ``S``, each step replaces one
composite node with the body of one of its productions, rewiring the node's
incoming edges to the body's source and its outgoing edges to the body's
sink.  The :class:`Derivation` class maintains the partially-derived graph,
assigns reachability labels to nodes as they are created (via
:class:`repro.labeling.labeler.Labeler`) and produces a
:class:`~repro.workflow.run.Run` when no composite node remains.

:func:`derive_run` wraps the step-by-step API in a convenient size-targeting
policy used throughout the test suite and the benchmark workload generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import DerivationError
from repro.labeling.labeler import ChainContext, Labeler
from repro.labeling.labels import Label
from repro.workflow.run import Run, RunEdge, RunNode
from repro.workflow.spec import Specification

__all__ = ["Derivation", "derive_run", "min_completion_cost"]


@dataclass
class _LiveNode:
    """A node of the partially-derived graph."""

    node_id: str
    name: str
    label: Label
    chain: ChainContext | None
    is_composite: bool


def min_completion_cost(spec: Specification) -> Mapping[str, int]:
    """Minimum number of *additional edges* needed to fully derive one
    occurrence of each module.

    Atomic modules cost 0.  For a composite module the cheapest production is
    the one minimizing ``len(body.edges) + sum(cost of body modules)``.  The
    derivation policy uses these costs to wind a run down once the target
    size has been reached; productivity of the specification guarantees the
    fixpoint below assigns a finite cost to every module.
    """
    costs: dict[str, int] = {module: 0 for module in spec.atomic_modules}
    remaining = set(spec.composite_modules)
    while remaining:
        progressed = False
        for module in sorted(remaining):
            best: int | None = None
            for production_index in spec.productions_of.get(module, ()):
                body = spec.production(production_index).body
                if any(m not in costs for m in body.nodes):
                    continue
                candidate = len(body.edges) + sum(costs[m] for m in body.nodes)
                if best is None or candidate < best:
                    best = candidate
            if best is not None:
                costs[module] = best
                remaining.discard(module)
                progressed = True
        if not progressed:  # pragma: no cover - spec validation prevents this
            raise DerivationError(f"modules are not productive: {sorted(remaining)}")
    return costs


class Derivation:
    """A stepwise derivation of a run from a specification."""

    def __init__(self, spec: Specification, seed: int | None = None) -> None:
        self._spec = spec
        self._labeler = Labeler(spec)
        self._rng = random.Random(seed)
        self._seed = seed
        self._nodes: dict[str, _LiveNode] = {}
        self._out: dict[str, list[tuple[str, str]]] = {}
        self._in: dict[str, list[tuple[str, str]]] = {}
        self._name_counters: dict[str, int] = {}
        self._composite_ids: list[str] = []
        self._steps = 0
        self._edge_count = 0
        root_label, root_chain = self._labeler.root()
        self._add_node(spec.start, root_label, root_chain)

    # -- observers ----------------------------------------------------------------

    @property
    def spec(self) -> Specification:
        return self._spec

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def composite_nodes(self) -> tuple[str, ...]:
        """Ids of the composite nodes still awaiting replacement."""
        return tuple(self._composite_ids)

    def is_complete(self) -> bool:
        return not self._composite_ids

    def node_name(self, node_id: str) -> str:
        return self._nodes[node_id].name

    # -- graph surgery --------------------------------------------------------------

    def _new_id(self, name: str) -> str:
        counter = self._name_counters.get(name, 0) + 1
        self._name_counters[name] = counter
        return f"{name}:{counter}"

    def _add_node(self, name: str, label: Label, chain: ChainContext | None) -> str:
        node_id = self._new_id(name)
        is_composite = self._spec.is_composite(name)
        self._nodes[node_id] = _LiveNode(node_id, name, label, chain, is_composite)
        self._out[node_id] = []
        self._in[node_id] = []
        if is_composite:
            self._composite_ids.append(node_id)
        return node_id

    def _add_edge(self, source: str, target: str, tag: str) -> None:
        self._out[source].append((target, tag))
        self._in[target].append((source, tag))
        self._edge_count += 1

    def _remove_node(self, node_id: str) -> None:
        for target, tag in self._out.pop(node_id):
            self._in[target] = [(s, t) for s, t in self._in[target] if s != node_id]
        for source, tag in self._in.pop(node_id):
            self._out[source] = [(t, g) for t, g in self._out[source] if t != node_id]
        del self._nodes[node_id]

    # -- derivation steps -------------------------------------------------------------

    def step(self, node_id: str, production_index: int) -> tuple[str, ...]:
        """Replace a composite node with the body of the given production.

        Returns the ids of the newly created nodes, in body-position order.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise DerivationError(f"unknown node {node_id!r}")
        if not node.is_composite:
            raise DerivationError(f"node {node_id!r} ({node.name}) is atomic")
        self._labeler.check_production_applicable(node.name, production_index)

        production = self._spec.production(production_index)
        body = production.body
        children = self._labeler.children(node.label, node.chain, production_index)

        incoming = list(self._in[node_id])
        outgoing = list(self._out[node_id])
        self._edge_count -= len(incoming) + len(outgoing)
        self._remove_node(node_id)
        self._composite_ids.remove(node_id)

        new_ids: list[str] = []
        for child in children:
            new_ids.append(self._add_node(child.module, child.label, child.chain))
        for edge in body.edges:
            self._add_edge(new_ids[edge.source], new_ids[edge.target], edge.tag)
        entry = new_ids[body.source]
        exit_ = new_ids[body.sink]
        for source, tag in incoming:
            self._add_edge(source, entry, tag)
        for target, tag in outgoing:
            self._add_edge(exit_, target, tag)

        self._steps += 1
        return tuple(new_ids)

    def random_step(
        self, production_chooser: Callable[[str], int] | None = None
    ) -> tuple[str, ...]:
        """Replace a uniformly chosen composite node.

        ``production_chooser(module_name) -> production index`` selects the
        production; by default one of the module's productions is chosen
        uniformly at random.
        """
        if not self._composite_ids:
            raise DerivationError("derivation already complete")
        node_id = self._rng.choice(self._composite_ids)
        module = self._nodes[node_id].name
        if production_chooser is None:
            production_index = self._rng.choice(self._spec.productions_of[module])
        else:
            production_index = production_chooser(module)
        return self.step(node_id, production_index)

    # -- finishing ----------------------------------------------------------------------

    def to_run(self) -> Run:
        """Freeze the derived graph into a :class:`Run` (must be complete)."""
        if not self.is_complete():
            raise DerivationError(
                f"derivation is not complete: {len(self._composite_ids)} composite "
                "nodes remain"
            )
        nodes = [
            RunNode(node_id=node.node_id, name=node.name, label=node.label)
            for node_id, node in self._nodes.items()
        ]
        edges = [
            RunEdge(source=source, target=target, tag=tag)
            for source, targets in self._out.items()
            for target, tag in targets
        ]
        return Run.from_parts(
            self._spec, nodes, edges, derivation_steps=self._steps, seed=self._seed
        )


def derive_run(
    spec: Specification,
    *,
    seed: int | None = None,
    target_edges: int | None = None,
    max_steps: int = 1_000_000,
    recursion_bias: float = 0.7,
    preferred_productions: Sequence[int] = (),
) -> Run:
    """Derive a complete run, optionally steering its size.

    Parameters
    ----------
    target_edges:
        While the run has fewer edges than this, productions are chosen with a
        bias towards recursive ones (probability ``recursion_bias`` of picking
        a recursive production when the module has one); once the target is
        reached the cheapest-completion production is chosen so the run winds
        down quickly.  ``None`` picks productions uniformly at random.
    preferred_productions:
        Production indices to favour while growing (used by the Kleene-star
        workloads of Section V, which fire one specific fork recursion many
        times and all other recursions only once).
    """
    derivation = Derivation(spec, seed=seed)
    rng = derivation._rng
    recursive = spec.production_graph.recursive_productions
    costs = min_completion_cost(spec)
    preferred = set(preferred_productions)

    def candidates_of(node_id: str, pool: set[int]) -> list[int]:
        module = derivation.node_name(node_id)
        return [index for index in spec.productions_of[module] if index in pool]

    def cheapest(module: str) -> int:
        candidates = spec.productions_of[module]
        return min(
            candidates,
            key=lambda index: len(spec.production(index).body.edges)
            + sum(costs[m] for m in spec.production(index).body.nodes),
        )

    def forced_grow(capable: list[str]) -> None:
        pools = (preferred, recursive) if preferred else (recursive,)
        for pool in pools:
            eligible = [node_id for node_id in capable if candidates_of(node_id, pool)]
            if eligible:
                node_id = rng.choice(eligible)
                derivation.step(node_id, rng.choice(candidates_of(node_id, pool)))
                return

    def grow_step() -> None:
        """One derivation step that keeps the run growing towards the target.

        Nodes able to fire a recursive (or explicitly preferred) production
        form the *growth frontier*.  While the target has not been reached,
        frontier nodes only ever fire recursive productions — terminating one
        early could strand the run far below the requested size — while the
        remaining probability mass expands non-frontier composite nodes
        uniformly so the rest of the specification is explored too.
        """
        growth_pool = (preferred | recursive) if preferred else recursive
        capable = [
            node_id
            for node_id in derivation.composite_nodes
            if candidates_of(node_id, growth_pool)
        ]
        others = [node_id for node_id in derivation.composite_nodes if node_id not in capable]
        if not capable:
            derivation.random_step()
        elif not others or rng.random() < recursion_bias:
            forced_grow(capable)
        else:
            node_id = rng.choice(others)
            module = derivation.node_name(node_id)
            derivation.step(node_id, rng.choice(spec.productions_of[module]))

    while not derivation.is_complete():
        if derivation.steps >= max_steps:
            raise DerivationError(f"derivation exceeded {max_steps} steps")
        if target_edges is None:
            derivation.random_step()
        elif derivation.edge_count < target_edges:
            grow_step()
        else:
            derivation.random_step(production_chooser=cheapest)
    return derivation.to_run()
