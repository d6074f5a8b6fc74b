"""Label tries: projections of the compressed parse tree.

Algorithm 2 of the paper represents a list of node labels as an edge-labeled
tree which is the projection of the run's compressed parse tree onto that
list (Fig. 12).  :class:`LabelTrie` is exactly that structure: a trie over
label step sequences whose leaves carry the node ids of the input list.

The same structure doubles as an inspectable compressed parse tree: building
a trie over *all* node labels of a run yields the tree of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.labeling.labels import Label, LabelStep, ProductionStep, RecursionStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.run import Run

__all__ = ["TrieNode", "LabelTrie"]


@dataclass
class TrieNode:
    """One node of a label trie.

    ``payload`` holds the identifiers of the input-list entries whose label
    ends exactly here (for run nodes there is at most one, since labels are
    unique, but the structure does not rely on that).
    """

    depth: int
    children: dict[LabelStep, "TrieNode"] = field(default_factory=dict)
    payload: list[str] = field(default_factory=list)
    leaf_count: int = 0

    # -- structure ----------------------------------------------------------------

    def is_leaf(self) -> bool:
        return not self.children

    def is_recursive(self) -> bool:
        """True when this node is an ``R`` node of the compressed parse tree
        (its outgoing edges are recursion steps)."""
        return any(isinstance(step, RecursionStep) for step in self.children)

    def child(self, step: LabelStep) -> "TrieNode | None":
        return self.children.get(step)

    def sorted_children(self) -> list[tuple[LabelStep, "TrieNode"]]:
        def key(item: tuple[LabelStep, TrieNode]) -> tuple[int, int, int, int]:
            step = item[0]
            if isinstance(step, ProductionStep):
                return (0, step.production, step.position, 0)
            return (1, step.cycle, step.start, step.ordinal)

        return sorted(self.children.items(), key=key)

    # -- leaves ---------------------------------------------------------------------

    def iter_leaf_payloads(self) -> Iterator[str]:
        """All payload identifiers in the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield from node.payload
            stack.extend(node.children.values())

    def leaves(self) -> list[str]:
        return list(self.iter_leaf_payloads())


class LabelTrie:
    """A trie over node labels (the tree representation of a node list)."""

    def __init__(self, entries: Iterable[tuple[Label, str]] = ()) -> None:
        self._root = TrieNode(depth=0)
        self._size = 0
        for label, identifier in entries:
            self.insert(label, identifier)

    @classmethod
    def from_run_nodes(cls, run: "Run", node_ids: Iterable[str]) -> "LabelTrie":
        """Build a trie for a list of node ids of a run."""
        return cls((run.label_of(node_id), node_id) for node_id in node_ids)

    # -- construction -----------------------------------------------------------------

    def insert(self, label: Label, identifier: str) -> None:
        node = self._root
        node.leaf_count += 1
        for step in label:
            child = node.children.get(step)
            if child is None:
                child = TrieNode(depth=node.depth + 1)
                node.children[step] = child
            node = child
            node.leaf_count += 1
        node.payload.append(identifier)
        self._size += 1

    # -- observers ----------------------------------------------------------------------

    @property
    def root(self) -> TrieNode:
        return self._root

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return self._size == 0

    def height(self) -> int:
        best = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children.values())
        return best

    def find(self, label: Label) -> TrieNode | None:
        node = self._root
        for step in label:
            node = node.children.get(step)
            if node is None:
                return None
        return node

    def render(self, max_nodes: int = 200) -> str:
        """A small ASCII rendering, handy for debugging and the CLI."""
        lines: list[str] = []
        count = 0

        def visit(node: TrieNode, step: LabelStep | None, indent: int) -> None:
            nonlocal count
            if count >= max_nodes:
                return
            count += 1
            if step is None:
                text = "<root>"
            elif isinstance(step, ProductionStep):
                text = f"({step.production},{step.position})"
            else:
                text = f"R({step.cycle},{step.start})#{step.ordinal}"
            suffix = f" -> {','.join(node.payload)}" if node.payload else ""
            lines.append("  " * indent + text + suffix)
            for child_step, child in node.sorted_children():
                visit(child, child_step, indent + 1)

        visit(self._root, None, 0)
        if count >= max_nodes:
            lines.append("  ... (truncated)")
        return "\n".join(lines)
