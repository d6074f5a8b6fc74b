"""The edge-tag inverted index used by baseline G3.

Section V-A: "For each run, an index maps an edge tag γ ∈ Γ to a list of node
pairs that are connected by an edge tagged γ.  We store indices as Java
serializable objects and materialize them on disk."  This module provides the
same structure with JSON persistence; load time is cheap (the paper notes the
inverted index lookup stays below 10 ms) and is included in all-pairs query
times just as in the paper.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.workflow.run import Run

__all__ = ["EdgeTagIndex"]


class EdgeTagIndex:
    """Maps each edge tag to the list of node pairs connected by that tag."""

    def __init__(self, pairs_by_tag: Mapping[str, Iterable[tuple[str, str]]]) -> None:
        self._pairs: dict[str, tuple[tuple[str, str], ...]] = {
            tag: tuple(pairs) for tag, pairs in pairs_by_tag.items()
        }

    @classmethod
    def from_run(cls, run: Run) -> "EdgeTagIndex":
        pairs: dict[str, list[tuple[str, str]]] = {}
        for edge in run.edges:
            pairs.setdefault(edge.tag, []).append((edge.source, edge.target))
        return cls(pairs)

    # -- queries ------------------------------------------------------------------

    def pairs(self, tag: str) -> tuple[tuple[str, str], ...]:
        """All ``(source, target)`` pairs connected by an edge with this tag."""
        return self._pairs.get(tag, ())

    def count(self, tag: str) -> int:
        return len(self._pairs.get(tag, ()))

    def tags(self) -> frozenset[str]:
        return frozenset(self._pairs)

    def rarest_tags(self) -> list[str]:
        """Tags ordered from rarest to most frequent (ties broken by name)."""
        return sorted(self._pairs, key=lambda tag: (len(self._pairs[tag]), tag))

    def total_pairs(self) -> int:
        return sum(len(pairs) for pairs in self._pairs.values())

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {tag: [list(pair) for pair in pairs] for tag, pairs in self._pairs.items()}
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "EdgeTagIndex":
        payload = json.loads(Path(path).read_text())
        return cls({tag: [tuple(pair) for pair in pairs] for tag, pairs in payload.items()})

    def __repr__(self) -> str:
        return f"EdgeTagIndex(tags={len(self._pairs)}, pairs={self.total_pairs()})"
