"""Findings: what a rule reports.

A :class:`Finding` pins a rule violation to ``file:line``.  Findings order
by ``(path, line, rule, message)``, so output (and ``repro lint --json``) is
stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one site."""

    path: str
    line: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape of one finding (``repro lint --json``); adding
        keys is allowed, renaming or removing them is a schema break."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }
