"""Executor tuning: the frontier direction.

An :class:`ExecutorConfig` travels from the API surface (CLI
``--direction``, :class:`~repro.service.service.QueryService`) down to the
executor.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DIRECTIONS", "ExecutorConfig"]

DIRECTIONS = ("auto", "forward", "backward")


@dataclass(frozen=True)
class ExecutorConfig:
    """How the unsafe remainder of a general query is physically executed.

    ``direction`` picks the frontier search orientation (``auto`` lets the
    cost model compare seed counts).

    The compute kernel is fixed per operator, not configured: joins and
    closures run on the packed bitset kernel of :mod:`repro.core.bitset`,
    frontier searches on the topological multi-source sweep of
    :func:`~repro.core.relations.frontier_search`.
    """

    direction: str = "auto"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; use one of {list(DIRECTIONS)}"
            )
