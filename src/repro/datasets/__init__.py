"""Workloads: specifications, runs, queries and indices for experiments.

The paper evaluates on two recursive scientific workflows collected from
myExperiment (BioAID and QBLast) plus synthetic workflows, with runs simulated
by firing random production sequences.  myExperiment data is not bundled
here, so :mod:`repro.datasets.myexperiment` *simulates* the two workflows
with exactly the statistics reported in Section V-A (see the README's
*Paper figures*, "Substitutions").  The remaining modules provide the synthetic specification
generator, run-generation policies, query generators (IFQs, Kleene stars,
random combinations) and the edge-tag inverted index used by baseline G3.
"""

from repro.datasets.index import EdgeTagIndex
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_specification, paper_run
from repro.datasets.queries import (
    generate_ifq,
    generate_ifq_along_path,
    generate_kleene_star,
    generate_random_query,
)
from repro.datasets.runs import generate_run, generate_fork_heavy_run
from repro.datasets.synthetic import generate_synthetic_specification

__all__ = [
    "EdgeTagIndex",
    "bioaid_specification",
    "generate_fork_heavy_run",
    "generate_ifq",
    "generate_ifq_along_path",
    "generate_kleene_star",
    "generate_random_query",
    "generate_run",
    "generate_synthetic_specification",
    "paper_run",
    "paper_specification",
    "qblast_specification",
]
