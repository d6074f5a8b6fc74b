"""Label steps and label utilities.

A node label ψV(v) is the concatenation of the edge labels on the path from
the root of the compressed parse tree to ``v`` (Section II-B of the paper).
Two kinds of edge labels exist:

* :class:`ProductionStep` ``(k, i)`` — the child is the ``i``-th position of
  the body of production ``k`` (edges out of composite parse-tree nodes), and
* :class:`RecursionStep` ``(s, t, j)`` — the child is the ``j``-th module
  execution of a recursion chain of cycle ``s`` entered at cycle offset ``t``
  (edges out of the parse tree's recursive ``R`` nodes).

All indices are 0-based (the paper's figures use 1-based indices).  A label
is simply a tuple of steps, which keeps labels hashable, comparable and cheap
to slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import LabelError

__all__ = [
    "ProductionStep",
    "RecursionStep",
    "LabelStep",
    "Label",
    "common_prefix_length",
    "is_strict_prefix",
    "format_label",
    "parse_label",
    "label_sort_key",
]


@dataclass(frozen=True, order=True)
class ProductionStep:
    """Edge label ``(k, i)``: position ``i`` of the body of production ``k``."""

    production: int
    position: int


@dataclass(frozen=True, order=True)
class RecursionStep:
    """Edge label ``(s, t, j)``: the ``j``-th child of a recursion chain of
    cycle ``s`` entered at cycle offset ``t``."""

    cycle: int
    start: int
    ordinal: int


LabelStep = Union[ProductionStep, RecursionStep]
Label = tuple[LabelStep, ...]


def common_prefix_length(left: Label, right: Label) -> int:
    """Length of the longest common prefix of two labels."""
    limit = min(len(left), len(right))
    index = 0
    while index < limit and left[index] == right[index]:
        index += 1
    return index


def is_strict_prefix(prefix: Label, label: Label) -> bool:
    """True when ``prefix`` is a proper prefix of ``label``."""
    return len(prefix) < len(label) and label[: len(prefix)] == prefix


def label_sort_key(label: Label) -> tuple[tuple[int, int, int, int], ...]:
    """A sort key grouping labels by parse-tree position.

    Production steps and recursion steps never occur at the same depth under
    the same parent (a parse-tree node is either composite or recursive), so
    ordering mixed step types only needs to be deterministic, not meaningful.
    """
    key: list[tuple[int, int, int, int]] = []
    for step in label:
        if isinstance(step, ProductionStep):
            key.append((0, step.production, step.position, 0))
        else:
            key.append((1, step.cycle, step.start, step.ordinal))
    return tuple(key)


# ---------------------------------------------------------------------------
# Textual form, used by the JSON serializers and the CLI.
#   production step: "k.i"        e.g. "0.2"
#   recursion step:  "r:s.t.j"    e.g. "r:0.0.3"
# Steps are joined with "/".
# ---------------------------------------------------------------------------


def format_label(label: Label) -> str:
    """Render a label in a compact textual form."""
    parts = []
    for step in label:
        if isinstance(step, ProductionStep):
            parts.append(f"{step.production}.{step.position}")
        elif isinstance(step, RecursionStep):
            parts.append(f"r:{step.cycle}.{step.start}.{step.ordinal}")
        else:  # pragma: no cover - defensive
            raise LabelError(f"unknown label step {step!r}")
    return "/".join(parts)


def _parse_step(part: str) -> LabelStep:
    try:
        if part.startswith("r:"):
            cycle, start, ordinal = (int(x) for x in part[2:].split("."))
            return RecursionStep(cycle, start, ordinal)
        production, position = (int(x) for x in part.split("."))
        return ProductionStep(production, position)
    except ValueError as exc:
        raise LabelError(f"malformed label component {part!r}") from exc


def parse_label(text: str, steps: dict[str, LabelStep] | None = None) -> Label:
    """Parse the textual form produced by :func:`format_label`.

    ``steps`` memoizes parsed components across calls: the labels of one run
    share their prefixes, so a run's loader passes one dict and parses each
    distinct component once.
    """
    if not text:
        return ()
    if steps is None:
        steps = {}
    label: list[LabelStep] = []
    for part in text.split("/"):
        step = steps.get(part)
        if step is None:
            step = steps[part] = _parse_step(part)
        label.append(step)
    return tuple(label)


def ensure_label(value: Iterable[LabelStep]) -> Label:
    """Coerce an iterable of steps to a label tuple, validating step types."""
    label = tuple(value)
    for step in label:
        if not isinstance(step, (ProductionStep, RecursionStep)):
            raise LabelError(f"label steps must be ProductionStep or RecursionStep, got {step!r}")
    return label
