"""Query-intersected specifications and runs (Section III-B of the paper).

The paper reduces a regular path query ``R`` over a coarse-grained run to a
*reachability* question over a fine-grained run generated by ``G^R``, the
specification obtained by intersecting ``G`` with a DFA for ``R``:

* every module acquires ``|Q|`` input ports and ``|Q|`` output ports, one per
  DFA state;
* an atomic module connects input port ``q`` to output port ``q`` (atomic
  modules do not consume edge tags);
* inside each production body, output port ``q`` of a node connects to input
  port ``q'`` of a successor node iff the connecting edge's tag drives the
  DFA from ``q`` to ``q'``.

:func:`intersect_specification` materializes this port-level view of every
production (useful for inspection, documentation and the safety tests), and
:class:`FineGrainedRun` applies the same construction directly to a run —
the "simple algorithm" the paper describes as linear in run size.
``tests/core/test_intersection.py::TestFineGrainedRun`` checks it against
label decoding on the paper's example (Lemma 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.automata.dfa import DFA
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = [
    "Port",
    "FineGrainedProduction",
    "FineGrainedSpecification",
    "intersect_specification",
    "FineGrainedRun",
]


@dataclass(frozen=True)
class Port:
    """One port of a fine-grained module occurrence.

    ``position`` identifies the body position (or the run node id for
    fine-grained runs), ``direction`` is ``"in"`` or ``"out"`` and ``state``
    is the DFA state the port represents.
    """

    position: object
    direction: str
    state: int


@dataclass(frozen=True)
class FineGrainedProduction:
    """The port-level view of one production of ``G^R``."""

    head: str
    body_modules: tuple[str, ...]
    edges: tuple[tuple[Port, Port], ...]

    def successors(self, port: Port) -> tuple[Port, ...]:
        return tuple(target for source, target in self.edges if source == port)


@dataclass(frozen=True)
class FineGrainedSpecification:
    """``G^R``: the specification intersected with a query DFA."""

    spec: Specification
    dfa: DFA
    productions: tuple[FineGrainedProduction, ...]

    @property
    def state_count(self) -> int:
        return self.dfa.state_count

    def production(self, index: int) -> FineGrainedProduction:
        return self.productions[index]


def intersect_specification(spec: Specification, dfa: DFA) -> FineGrainedSpecification:
    """Build the explicit port-level representation of ``G^R``.

    The sequence of productions is unchanged (this is the key property that
    lets the run's existing derivation-based labels be reused); only the
    internal wiring of each production body is refined with DFA states.
    """
    if not (spec.tags <= dfa.alphabet):
        dfa = dfa.with_alphabet(spec.tags)
    states = range(dfa.state_count)
    productions = []
    for production in spec.productions:
        body = production.body
        edges: list[tuple[Port, Port]] = []
        # Atomic modules keep the DFA state unchanged between their ports.
        for position, module in body.iter_positions():
            if module not in spec.composite_modules:
                for state in states:
                    edges.append(
                        (Port(position, "in", state), Port(position, "out", state))
                    )
        # Data edges consume their tag.
        for edge in body.edges:
            for state in states:
                target_state = dfa.transitions[state][edge.tag]
                edges.append(
                    (
                        Port(edge.source, "out", state),
                        Port(edge.target, "in", target_state),
                    )
                )
        productions.append(
            FineGrainedProduction(
                head=production.head,
                body_modules=body.nodes,
                edges=tuple(edges),
            )
        )
    return FineGrainedSpecification(spec=spec, dfa=dfa, productions=tuple(productions))


class FineGrainedRun:
    """A run intersected with a query DFA (the fine-grained run of Fig. 8).

    The node set is ``{(run node, DFA state)}`` visited implicitly; the
    central operation is :meth:`accepting_targets`, which reports which run
    nodes are reachable from a node's start-state input port through an
    accepting output port — i.e. the pairwise query answers of Lemma 3.1.
    """

    def __init__(self, run: Run, dfa: DFA) -> None:
        if not (run.tags() <= dfa.alphabet):
            dfa = dfa.with_alphabet(run.tags())
        self._run = run
        self._dfa = dfa

    @property
    def run(self) -> Run:
        return self._run

    @property
    def dfa(self) -> DFA:
        return self._dfa

    def reachable_states(self, source: str) -> Mapping[str, frozenset[int]]:
        """For every run node, the DFA states reachable at its *output ports*
        when starting from ``source``'s input port in the DFA start state."""
        dfa = self._dfa
        run = self._run
        start = (source, dfa.start)
        seen = {start}
        stack = [start]
        reached: dict[str, set[int]] = {source: {dfa.start}}
        while stack:
            node, state = stack.pop()
            for target, tag in run.successors[node]:
                next_state = dfa.transitions[state][tag]
                key = (target, next_state)
                if key in seen:
                    continue
                seen.add(key)
                stack.append(key)
                reached.setdefault(target, set()).add(next_state)
        return {node: frozenset(states) for node, states in reached.items()}

    def pairwise(self, source: str, target: str) -> bool:
        """``source —R→ target`` by explicit traversal of the fine-grained run."""
        states = self.reachable_states(source).get(target, frozenset())
        return any(state in self._dfa.accepting for state in states)

    def accepting_targets(self, source: str) -> frozenset[str]:
        """All run nodes ``v`` with ``source —R→ v``."""
        reachable = self.reachable_states(source)
        accepting = self._dfa.accepting
        return frozenset(
            node for node, states in reachable.items() if states & accepting
        )
