"""DFA minimization (Hopcroft's partition-refinement algorithm).

Lemma 3.2 of the paper shows that safety of a query only needs to be checked
on the *minimal* DFA, and the size of the query-intersected specification
``G^R`` is proportional to the number of DFA states, so minimization directly
reduces both the safety-check and the decoding cost.
"""

from __future__ import annotations

from collections import defaultdict

from repro.automata.dfa import DFA

__all__ = ["minimize_dfa"]


def _prune_unreachable(dfa: DFA) -> DFA:
    """Drop states not reachable from the start state."""
    reachable = sorted(dfa.reachable_states())
    if len(reachable) == dfa.state_count:
        return dfa
    remap = {old: new for new, old in enumerate(reachable)}
    transitions = tuple(
        {tag: remap[target] for tag, target in dfa.transitions[old].items()}
        for old in reachable
    )
    return DFA(
        state_count=len(reachable),
        alphabet=dfa.alphabet,
        transitions=transitions,
        start=remap[dfa.start],
        accepting=frozenset(remap[s] for s in dfa.accepting if s in remap),
    )


def minimize_dfa(dfa: DFA) -> DFA:
    """Return the minimal complete DFA equivalent to ``dfa``.

    Uses Hopcroft's algorithm on the reachable part of the automaton.  The
    result is complete over the same alphabet; a dead state survives exactly
    when some string is rejected only by falling off the language.
    """
    dfa = _prune_unreachable(dfa)
    states = range(dfa.state_count)
    # Tags with equal transition columns split every block alike, so the
    # refinement reads one representative per column class.
    splitters = [members[0] for members in dfa.tag_classes]

    accepting = set(dfa.accepting)
    non_accepting = set(states) - accepting

    # Initial partition: accepting vs. non-accepting (drop empty blocks).
    partition: list[set[int]] = [block for block in (accepting, non_accepting) if block]
    worklist: list[set[int]] = [set(block) for block in partition]

    # Precompute inverse transitions: for each splitter tag, target -> set of
    # sources.
    inverse: dict[str, dict[int, set[int]]] = {tag: defaultdict(set) for tag in splitters}
    for state in states:
        row = dfa.transitions[state]
        for tag in splitters:
            inverse[tag][row[tag]].add(state)

    while worklist:
        splitter = worklist.pop()
        for tag in splitters:
            predecessors: set[int] = set()
            for target in splitter:
                predecessors |= inverse[tag].get(target, set())
            if not predecessors:
                continue
            next_partition: list[set[int]] = []
            for block in partition:
                inside = block & predecessors
                outside = block - predecessors
                if inside and outside:
                    next_partition.append(inside)
                    next_partition.append(outside)
                    # Keep the worklist consistent: replace the block if it is
                    # pending, otherwise enqueue the smaller half.
                    replaced = False
                    for index, pending in enumerate(worklist):
                        if pending == block:
                            worklist[index] = inside
                            worklist.append(outside)
                            replaced = True
                            break
                    if not replaced:
                        worklist.append(inside if len(inside) <= len(outside) else outside)
                else:
                    next_partition.append(block)
            partition = next_partition

    # Build the quotient automaton.
    block_of: dict[int, int] = {}
    for block_index, block in enumerate(partition):
        for state in block:
            block_of[state] = block_index
    transitions = []
    for block in partition:
        representative = next(iter(block))
        transitions.append(
            {tag: block_of[target] for tag, target in dfa.transitions[representative].items()}
        )
    minimal = DFA(
        state_count=len(partition),
        alphabet=dfa.alphabet,
        transitions=tuple(transitions),
        start=block_of[dfa.start],
        accepting=frozenset(block_of[state] for state in dfa.accepting),
    )
    return _prune_unreachable(minimal)
