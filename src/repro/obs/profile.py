"""Per-query execution profiles assembled from finished spans.

An :class:`ExecutionProfile` is the in-process record of one evaluation: the
span tree (operator/phase timings) with the observations instrumentation
attached along the way (frontier seed counts, decode group/pair counts,
routing decisions).  ``repro query --profile`` renders it to stderr;
profiles are not persisted.

``coverage()`` is the honesty metric for the instrumentation itself: the
fraction of the root span's wall time covered by its direct children
(overlaps merged), so a phase the tracer misses shows up as a coverage gap
rather than silently vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.tracer import Span

__all__ = ["ExecutionProfile", "ProfileNode"]


@dataclass
class ProfileNode:
    """One span in the assembled tree."""

    name: str
    span_id: int
    start: float
    end: float
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["ProfileNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def _merged_duration(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of intervals (double counting removed)."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


@dataclass
class ExecutionProfile:
    """The observable record of one query evaluation."""

    root: ProfileNode | None
    span_count: int

    @classmethod
    def from_spans(cls, spans: Sequence[Span]) -> "ExecutionProfile":
        """Assemble the tree from a tracer's finished spans.

        The root is the longest parentless span (a CLI evaluation has
        exactly one); spans whose parent never finished hang off the root's
        level as orphans and are dropped from the tree but still counted.
        """
        nodes: dict[int, ProfileNode] = {
            span.span_id: ProfileNode(
                name=span.name,
                span_id=span.span_id,
                start=span.start,
                end=span.end,
                attrs=dict(span.attrs),
            )
            for span in spans
        }
        roots: list[ProfileNode] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = (
                nodes.get(span.parent_id) if span.parent_id is not None else None
            )
            if parent is not None and parent is not node:
                parent.children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda child: (child.start, child.span_id))
        root = max(roots, key=lambda node: node.duration) if roots else None
        return cls(root=root, span_count=len(spans))

    def coverage(self) -> float:
        """Fraction of the root's wall time covered by its direct children
        (child intervals clipped to the root window, overlaps merged)."""
        root = self.root
        if root is None or root.duration <= 0.0:
            return 0.0
        intervals = [
            (max(child.start, root.start), min(child.end, root.end))
            for child in root.children
            if child.end > root.start and child.start < root.end
        ]
        if not intervals:
            return 0.0
        return min(1.0, _merged_duration(intervals) / root.duration)

    def render(self, *, max_depth: int = 6) -> str:
        """A readable tree for the CLI: names, attributes, millisecond
        timings, and the coverage line the acceptance bar reads."""
        lines: list[str] = []
        root = self.root
        if root is None:
            return "profile: no spans recorded"

        def describe(node: ProfileNode) -> str:
            attrs = ", ".join(
                f"{key}={value}" for key, value in sorted(node.attrs.items())
            )
            suffix = f" ({attrs})" if attrs else ""
            return f"{node.name}{suffix}"

        def walk(node: ProfileNode, prefix: str, tail: bool, depth: int) -> None:
            connector = "" if depth == 0 else ("└─ " if tail else "├─ ")
            label = f"{prefix}{connector}{describe(node)}"
            lines.append(f"{label:<64} {node.duration * 1000:9.2f} ms")
            if depth >= max_depth:
                return
            extension = "" if depth == 0 else ("   " if tail else "│  ")
            for position, child in enumerate(node.children):
                walk(
                    child,
                    prefix + extension,
                    position == len(node.children) - 1,
                    depth + 1,
                )

        walk(root, "", False, 0)
        lines.append(
            f"coverage: {self.coverage() * 100:.1f}% of the "
            f"{root.duration * 1000:.2f} ms root span "
            f"({self.span_count} spans)"
        )
        return "\n".join(lines)
