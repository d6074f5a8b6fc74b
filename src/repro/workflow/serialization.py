"""JSON persistence for specifications and labeled runs.

The paper stores simulated runs and their inverted indices on disk as Java
serialized objects (Section V-A); this module provides the equivalent
capability so workloads can be generated once and reused across benchmark
invocations, and so external tools can inspect specifications, runs and
labels.  The format is plain JSON with a small version header.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.labeling.labels import LabelStep, format_label, parse_label
from repro.workflow.run import Run, RunEdge, RunNode
from repro.workflow.simple import Edge, SimpleWorkflow
from repro.workflow.spec import Production, Specification

__all__ = [
    "specification_to_dict",
    "specification_from_dict",
    "save_specification",
    "load_specification",
    "run_to_dict",
    "run_from_dict",
    "save_run",
    "load_run",
]

#: Format 2 labels number recursion cycles in sorted-module order, the same
#: in every process, and runs list their topological order; format-1 runs
#: numbered cycles in string-hash order, so their labels are refused rather
#: than decoded against other numbers.
_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


def specification_to_dict(spec: Specification) -> dict[str, Any]:
    """A JSON-ready representation of a specification."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "specification",
        "name": spec.name,
        "start": spec.start,
        "atomic_modules": sorted(spec.atomic_modules),
        "productions": [
            {
                "head": production.head,
                "nodes": list(production.body.nodes),
                "edges": [
                    {"source": edge.source, "target": edge.target, "tag": edge.tag}
                    for edge in production.body.edges
                ],
            }
            for production in spec.productions
        ],
    }


def specification_from_dict(payload: dict[str, Any]) -> Specification:
    """Rebuild a specification from :func:`specification_to_dict` output."""
    if payload.get("kind") != "specification":
        raise ReproError("payload does not describe a specification")
    productions = [
        Production(
            head=entry["head"],
            body=SimpleWorkflow(
                entry["nodes"],
                [Edge(edge["source"], edge["target"], edge["tag"]) for edge in entry["edges"]],
            ),
        )
        for entry in payload["productions"]
    ]
    return Specification(
        start=payload["start"],
        productions=productions,
        atomic_modules=payload.get("atomic_modules", ()),
        name=payload.get("name", "workflow"),
    )


def save_specification(spec: Specification, path: str | Path) -> None:
    Path(path).write_text(json.dumps(specification_to_dict(spec), indent=2))


def load_specification(path: str | Path) -> Specification:
    return specification_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_to_dict(run: Run) -> dict[str, Any]:
    """A JSON-ready representation of a labeled run (includes its spec).

    ``order`` lists the node ids in the run's topological order, so a loader
    restores it without re-sorting the run.
    """
    return {
        "format": _FORMAT_VERSION,
        "kind": "run",
        "specification": specification_to_dict(run.spec),
        "seed": run.seed,
        "derivation_steps": run.derivation_steps,
        "nodes": [
            {"id": node.node_id, "name": node.name, "label": format_label(node.label)}
            for node in run
        ],
        "edges": [
            {"source": edge.source, "target": edge.target, "tag": edge.tag}
            for edge in run.edges
        ],
        "order": list(run.topological_order),
    }


def run_from_dict(payload: dict[str, Any], spec: Specification | None = None) -> Run:
    """Rebuild a labeled run; ``spec`` overrides the embedded specification.

    Runs of another format are refused: format-1 labels number recursion
    cycles in string-hash order.  The stored order is checked before the run
    trusts it: duplicate node ids, an order that is not a permutation of the
    nodes, or an edge that does not point forward in it (an unknown endpoint
    included) raise :class:`~repro.errors.ReproError`.
    """
    if payload.get("kind") != "run":
        raise ReproError("payload does not describe a run")
    if payload.get("format") != _FORMAT_VERSION:
        raise ReproError(
            f"run format {payload.get('format')!r} is not {_FORMAT_VERSION}: runs "
            "saved before format 2 number recursion cycles in string-hash order, "
            "so their labels cannot be decoded safely; derive the run again"
        )
    if spec is None:
        spec = specification_from_dict(payload["specification"])
    steps: dict[str, LabelStep] = {}
    nodes = [
        RunNode(entry["id"], entry["name"], parse_label(entry["label"], steps))
        for entry in payload["nodes"]
    ]
    edges = [
        RunEdge(entry["source"], entry["target"], entry["tag"])
        for entry in payload["edges"]
    ]
    order = payload.get("order")
    if not isinstance(order, list):
        raise ReproError("run payload lists no topological order")
    rank = {node_id: position for position, node_id in enumerate(order)}
    ids = {node.node_id for node in nodes}
    if len(ids) != len(nodes):
        raise ReproError("run payload lists a node id twice")
    if len(rank) != len(order) or rank.keys() != ids:
        raise ReproError("run order is not a permutation of its nodes")
    if any(
        rank.get(edge.source, len(rank)) >= rank.get(edge.target, -1) for edge in edges
    ):
        raise ReproError("run order is not a topological order of its edges")
    return Run.from_parts(
        spec,
        nodes,
        edges,
        derivation_steps=payload.get("derivation_steps", 0),
        seed=payload.get("seed"),
        topological_order=order,
    )


def save_run(run: Run, path: str | Path) -> None:
    Path(path).write_text(json.dumps(run_to_dict(run)))


def load_run(path: str | Path, spec: Specification | None = None) -> Run:
    return run_from_dict(json.loads(Path(path).read_text()), spec=spec)
