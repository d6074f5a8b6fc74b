"""Run-generation policies for the experiments.

The paper simulates runs by applying random sequences of productions
(Section V-A), varying run size from 1K to 8K edges for most experiments and
up to 16K for the Kleene-star experiments, where one specific fork recursion
is fired many times while all other recursions fire only once.
"""

from __future__ import annotations

from repro.workflow.derivation import derive_run
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = ["generate_run", "generate_fork_heavy_run", "node_lists"]


def generate_run(
    spec: Specification,
    target_edges: int,
    *,
    seed: int = 0,
) -> Run:
    """A run of roughly ``target_edges`` edges from a random production
    sequence (recursion is favoured while growing, then wound down)."""
    return derive_run(spec, seed=seed, target_edges=target_edges)


def generate_fork_heavy_run(
    spec: Specification,
    target_edges: int,
    fork_productions: tuple[int, ...],
    *,
    seed: int = 0,
) -> Run:
    """A run dominated by one fork/loop recursion (the Fig. 13g/h workload).

    The listed productions are strongly preferred while the run grows, so the
    resulting provenance graph contains one long recursion chain; all other
    recursive productions fire rarely.
    """
    if not fork_productions:
        raise ValueError("fork_productions must not be empty")
    return derive_run(
        spec,
        seed=seed,
        target_edges=target_edges,
        preferred_productions=fork_productions,
        recursion_bias=0.95,
    )


def node_lists(
    run: Run,
    *,
    limit: int | None = None,
    seed: int = 0,
) -> tuple[list[str], list[str]]:
    """The ``(l1, l2)`` input lists for all-pairs experiments.

    The paper uses *all* run nodes for both lists; ``limit`` optionally
    samples a deterministic subset so pure-Python all-pairs benchmarks stay
    tractable at large run sizes (see the README's *Paper figures*,
    "Substitutions").
    """
    nodes = list(run.node_ids())
    if limit is None or len(nodes) <= limit:
        return list(nodes), list(nodes)
    import random

    rng = random.Random(seed)
    sample = rng.sample(nodes, limit)
    return sample, list(sample)
