"""The production graph P(G) and strict-linear-recursion analysis.

The production graph (Definition 5 of the paper) has one vertex per module
and, for the ``k``-th production ``M -> W`` and each position ``i`` of ``W``,
an edge ``M -> W[i]`` identified by the pair ``(k, i)``.  A specification is
*strictly linear-recursive* (Definition 6) when all cycles of this multigraph
are vertex-disjoint; with multi-edges this is equivalent to every non-trivial
strongly connected component being a single elementary cycle in which each
member has exactly one in-SCC outgoing edge and one in-SCC incoming edge.

Each cycle is materialized as a :class:`Cycle`, which records, for every
module around the cycle, the production used to continue the recursion (the
"cycle production") and the position of the next cycle module inside that
production's body (the "recursive position").  These are exactly the pieces
the labeler and the pairwise decoder need to reason about recursion chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.spec import Specification

__all__ = ["Cycle", "ProductionGraph"]


@dataclass(frozen=True)
class Cycle:
    """One cycle of the production graph.

    ``modules[offset]`` is a module on the cycle; its cycle production is
    ``productions[offset]`` and the next module of the cycle,
    ``modules[(offset + 1) % len(modules)]``, sits at position
    ``positions[offset]`` inside that production's body.
    """

    index: int
    modules: tuple[str, ...]
    productions: tuple[int, ...]
    positions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modules)

    def offset_of(self, module: str) -> int:
        """The cycle offset of ``module`` (raises ``ValueError`` if absent)."""
        return self.modules.index(module)

    def module_at(self, offset: int) -> str:
        return self.modules[offset % len(self.modules)]

    def step(self, offset: int) -> tuple[int, int]:
        """Return ``(cycle production index, recursive position)`` for the
        module at the given cycle offset."""
        offset %= len(self.modules)
        return self.productions[offset], self.positions[offset]

    def chain_offset(self, start_offset: int, ordinal: int) -> int:
        """Cycle offset of the ``ordinal``-th chain child (0-based) for a chain
        entered at ``start_offset``."""
        return (start_offset + ordinal) % len(self.modules)


class ProductionGraph:
    """The production multigraph of a specification, with recursion analysis."""

    def __init__(self, spec: "Specification") -> None:
        self._spec = spec
        # edges[module] = list of (target module, production index, position).
        # Modules go in sorted order: the SCC walk follows this order, and
        # labels name cycles by number, so the numbering must not follow the
        # string hash seed (a run saved by one process is decoded by another).
        edges: dict[str, list[tuple[str, int, int]]] = {
            module: [] for module in sorted(spec.modules)
        }
        for production_index, production in enumerate(spec.productions):
            for position, module in enumerate(production.body.nodes):
                edges[production.head].append((module, production_index, position))
        self._edges = {module: tuple(targets) for module, targets in edges.items()}
        self._analyze()

    # -- basic structure --------------------------------------------------------

    @property
    def spec(self) -> "Specification":
        return self._spec

    def out_edges(self, module: str) -> tuple[tuple[str, int, int], ...]:
        """Outgoing edges of a module: ``(target, production index, position)``."""
        return self._edges.get(module, ())

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def __iter__(self) -> Iterator[str]:
        return iter(self._edges)

    # -- recursion analysis -----------------------------------------------------

    def _strongly_connected_components(self) -> list[frozenset[str]]:
        """Tarjan's algorithm (iterative) over the module graph."""
        index_counter = 0
        indices: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[frozenset[str]] = []

        for root in self._edges:
            if root in indices:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                module, child_index = work[-1]
                if child_index == 0:
                    indices[module] = index_counter
                    lowlinks[module] = index_counter
                    index_counter += 1
                    stack.append(module)
                    on_stack.add(module)
                advanced = False
                targets = self._edges.get(module, ())
                while child_index < len(targets):
                    target = targets[child_index][0]
                    child_index += 1
                    if target not in indices:
                        work[-1] = (module, child_index)
                        work.append((target, 0))
                        advanced = True
                        break
                    if target in on_stack:
                        lowlinks[module] = min(lowlinks[module], indices[target])
                if advanced:
                    continue
                work[-1] = (module, child_index)
                if child_index >= len(targets):
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlinks[parent] = min(lowlinks[parent], lowlinks[module])
                    if lowlinks[module] == indices[module]:
                        component = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                            if member == module:
                                break
                        components.append(frozenset(component))
        return components

    def _analyze(self) -> None:
        self._cycles: list[Cycle] = []
        self._non_linear: set[str] = set()
        cycle_of_module: dict[str, int] = {}
        offset_of_module: dict[str, int] = {}

        for component in self._strongly_connected_components():
            internal_edges: dict[str, list[tuple[str, int, int]]] = {}
            for module in component:
                internal = [
                    (target, production, position)
                    for target, production, position in self._edges.get(module, ())
                    if target in component
                ]
                if internal:
                    internal_edges[module] = internal
            is_trivial = len(component) == 1 and not internal_edges
            if is_trivial:
                continue
            # Non-trivial SCC: must be a single elementary cycle.
            linear = all(len(targets) == 1 for targets in internal_edges.values()) and len(
                internal_edges
            ) == len(component)
            incoming_counts: dict[str, int] = {module: 0 for module in component}
            for targets in internal_edges.values():
                for target, _, _ in targets:
                    incoming_counts[target] += 1
            linear = linear and all(count == 1 for count in incoming_counts.values())
            if not linear:
                self._non_linear |= component
                continue
            # Walk the cycle starting from the lexicographically smallest module.
            start = min(component)
            modules: list[str] = []
            productions: list[int] = []
            positions: list[int] = []
            current = start
            while True:
                target, production, position = internal_edges[current][0]
                modules.append(current)
                productions.append(production)
                positions.append(position)
                current = target
                if current == start:
                    break
            cycle = Cycle(
                index=len(self._cycles),
                modules=tuple(modules),
                productions=tuple(productions),
                positions=tuple(positions),
            )
            self._cycles.append(cycle)
            for offset, module in enumerate(cycle.modules):
                cycle_of_module[module] = cycle.index
                offset_of_module[module] = offset

        self._cycle_of_module = cycle_of_module
        self._offset_of_module = offset_of_module

    # -- public recursion API ----------------------------------------------------

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        return tuple(self._cycles)

    @property
    def is_strictly_linear_recursive(self) -> bool:
        return not self._non_linear

    @property
    def non_linear_modules(self) -> frozenset[str]:
        """Modules belonging to more than one cycle (empty iff strictly linear)."""
        return frozenset(self._non_linear)

    @property
    def recursive_modules(self) -> frozenset[str]:
        return frozenset(self._cycle_of_module) | frozenset(self._non_linear)

    @property
    def recursive_productions(self) -> frozenset[int]:
        """Indices of productions that extend a recursion cycle."""
        return frozenset(p for cycle in self._cycles for p in cycle.productions)

    def is_cyclic(self) -> bool:
        return bool(self._cycles) or bool(self._non_linear)

    def cycle_of(self, module: str) -> Cycle | None:
        """The cycle a module lies on, or ``None`` for non-recursive modules."""
        index = self._cycle_of_module.get(module)
        if index is None:
            return None
        return self._cycles[index]

    def cycle_offset_of(self, module: str) -> int | None:
        return self._offset_of_module.get(module)
