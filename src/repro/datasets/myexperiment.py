"""Simulated myExperiment workflows: BioAID and QBLast.

The paper evaluates on two recursive scientific workflows collected from the
myExperiment repository (Section V-A):

* **BioAID** — size 166, 112 modules (16 composite), 23 productions
  (7 recursive); described as "deep".
* **QBLast** — size 105, 77 modules (11 composite), 15 productions
  (5 recursive); described as "branchy".

The actual myExperiment workflow definitions are not redistributable here, so
this module *constructs* two specifications with exactly those statistics and
the qualitative shapes the paper relies on:

* BioAID is a deep chain of composite stages (``D1 → D2 → … → D8``), each
  stage invoking a self-recursive *fork* module built from the two
  productions of the paper's Fig. 14a (a fork distributor ``f*_fork``, a
  worker and a fork aggregator) — this is the workload behind the Kleene-star
  experiments of Fig. 13g.
* QBLast has wide, diamond-shaped ("branchy") production bodies, three
  self-recursive loop stages and one two-module recursion cycle.

Every statistic is asserted at construction time, so any regression in the
generators is caught immediately.
"""

from __future__ import annotations

from repro.workflow.simple import Edge, SimpleWorkflow
from repro.workflow.spec import Production, Specification

__all__ = [
    "bioaid_specification",
    "qblast_specification",
    "BIOAID_STATS",
    "QBLAST_STATS",
    "BIOAID_KLEENE_TAG",
    "QBLAST_KLEENE_TAG",
    "fork_production_indices",
]

#: Statistics reported in Section V-A of the paper.
BIOAID_STATS = {"size": 166, "modules": 112, "composite": 16, "productions": 23, "recursive": 7}
QBLAST_STATS = {"size": 105, "modules": 77, "composite": 11, "productions": 15, "recursive": 5}

#: Edge tag generated by the first fork distributor; the Kleene-star workload
#: of Fig. 13g/h queries ``<tag>*`` over runs that fire this fork repeatedly.
BIOAID_KLEENE_TAG = "f1_fork"
QBLAST_KLEENE_TAG = "q1_loop"


def _chain(members: list[str], tag_overrides: dict[int, str] | None = None) -> SimpleWorkflow:
    """A chain body; edge ``i -> i+1`` tagged with the head module's name
    unless overridden (override key = target position)."""
    edges = []
    for index in range(len(members) - 1):
        tag = (tag_overrides or {}).get(index + 1, members[index + 1])
        edges.append(Edge(index, index + 1, tag))
    return SimpleWorkflow(members, edges)


def _fork_productions(prefix: str, worker: str) -> tuple[Production, Production]:
    """The fork pattern of Fig. 14a for a recursive module ``prefix_F``.

    Recursive production:  fork -> {worker, F} -> join  (the edge from the
    distributor to the recursive module is tagged with the distributor's own
    name, so repeated firing produces a chain of identically-tagged edges —
    the target of the Kleene-star queries).
    Terminating production: fork -> worker -> join.
    """
    module = f"{prefix}_F"
    fork = f"{prefix}_fork"
    join = f"{prefix}_join"
    recursive = SimpleWorkflow(
        [fork, worker, module, join],
        [
            Edge(0, 1, worker),
            Edge(0, 2, fork),
            Edge(1, 3, join),
            Edge(2, 3, join),
        ],
    )
    terminating = _chain([fork, worker, join])
    return Production(module, recursive), Production(module, terminating)


def bioaid_specification() -> Specification:
    """Build the simulated BioAID specification (deep, fork-recursive)."""
    productions: list[Production] = []

    # Seven fork stages F1..F7 (Fig. 14a pattern), each with a recursive and a
    # terminating production sharing their three atomic modules.
    fork_modules = []
    for index in range(1, 8):
        prefix = f"f{index}"
        worker = f"{prefix}_work"
        recursive, terminating = _fork_productions(prefix, worker)
        productions.append(recursive)
        productions.append(terminating)
        fork_modules.append(f"{prefix}_F")

    # Eight deep stages D1..D8.  D_i chains through 8 fresh atomic steps and
    # invokes D_{i+1} (except D8) plus one fork stage; D8 invokes one fork
    # stage and an extra atomic step instead of a deeper stage.
    stage_modules = [f"D{i}" for i in range(1, 9)]
    for index, stage in enumerate(stage_modules):
        atoms = [f"d{index + 1}_s{j}" for j in range(1, 9)]
        members = [atoms[0], atoms[1], atoms[2], fork_modules[index % 7], atoms[3], atoms[4]]
        if index < 7:
            members += [stage_modules[index + 1], atoms[5], atoms[6], atoms[7]]
        else:
            members += [f"d{index + 1}_s9", atoms[5], atoms[6], atoms[7]]
        productions.append(Production(stage, _chain(members)))

    # The start module: a 14-position chain touching D1..D4 and ten fresh
    # atomic modules (sample preparation / publication steps).
    start_atoms = [f"s_step{j}" for j in range(1, 11)]
    start_members = [
        start_atoms[0],
        start_atoms[1],
        "D1",
        start_atoms[2],
        "D2",
        start_atoms[3],
        start_atoms[4],
        "D3",
        start_atoms[5],
        start_atoms[6],
        "D4",
        start_atoms[7],
        start_atoms[8],
        start_atoms[9],
    ]
    productions.insert(0, Production("BioAID", _chain(start_members)))

    spec = Specification(start="BioAID", productions=productions, name="BioAID (simulated)")
    _assert_stats(spec, BIOAID_STATS)
    return spec


def qblast_specification() -> Specification:
    """Build the simulated QBLast specification (branchy, loop-recursive)."""
    productions: list[Production] = []

    # Three self-recursive loop stages L1..L3.
    loop_modules = []
    for index in range(1, 4):
        prefix = f"q{index}"
        module = f"{prefix}_L"
        loop_modules.append(module)
        atoms = [f"{prefix}_in", f"{prefix}_step", f"{prefix}_work", f"{prefix}_out"]
        recursive = SimpleWorkflow(
            [atoms[0], atoms[1], module, atoms[3]],
            [
                Edge(0, 1, atoms[1]),
                Edge(0, 2, f"{prefix}_loop"),
                Edge(1, 3, atoms[3]),
                Edge(2, 3, atoms[3]),
            ],
        )
        terminating = _chain([atoms[0], atoms[2], atoms[1], f"{prefix}_fin", atoms[3]])
        productions.append(Production(module, recursive))
        productions.append(Production(module, terminating))

    # A two-module recursion cycle X -> ... Y ...,  Y -> ... X ... ; only Y has
    # a terminating production (X stays productive through Y's).
    x_atoms = ["qx_in", "qx_a", "qx_b", "qx_out"]
    y_atoms = ["qy_in", "qy_a", "qy_b", "qy_out"]
    y_final = ["qy_fin1", "qy_fin2", "qy_fin3", "qy_fin4"]
    productions.append(
        Production(
            "qX",
            SimpleWorkflow(
                [x_atoms[0], x_atoms[1], "qY", x_atoms[2], x_atoms[3]],
                [
                    Edge(0, 1, x_atoms[1]),
                    Edge(0, 2, "qY"),
                    Edge(1, 3, x_atoms[2]),
                    Edge(2, 3, x_atoms[2]),
                    Edge(3, 4, x_atoms[3]),
                ],
            ),
        )
    )
    productions.append(
        Production(
            "qY",
            SimpleWorkflow(
                [y_atoms[0], y_atoms[1], "qX", y_atoms[2], y_atoms[3]],
                [
                    Edge(0, 1, y_atoms[1]),
                    Edge(0, 2, "qX"),
                    Edge(1, 3, y_atoms[2]),
                    Edge(2, 3, y_atoms[2]),
                    Edge(3, 4, y_atoms[3]),
                ],
            ),
        )
    )
    productions.append(Production("qY", _chain(y_final)))

    # Five branchy (diamond-shaped) stages B1..B5, each invoking one recursive
    # stage among seven fresh atomic steps.
    recursive_targets = [*loop_modules, "qX", "qY"]
    stage_modules = [f"B{i}" for i in range(1, 6)]
    for index, stage in enumerate(stage_modules):
        atoms = [f"b{index + 1}_s{j}" for j in range(1, 8)]
        body = SimpleWorkflow(
            [atoms[0], atoms[1], atoms[2], recursive_targets[index], atoms[3], atoms[4], atoms[5], atoms[6]],
            [
                Edge(0, 1, atoms[1]),
                Edge(0, 2, atoms[2]),
                Edge(0, 3, recursive_targets[index]),
                Edge(1, 4, atoms[3]),
                Edge(2, 4, atoms[3]),
                Edge(3, 5, atoms[4]),
                Edge(4, 6, atoms[5]),
                Edge(5, 6, atoms[5]),
                Edge(6, 7, atoms[6]),
            ],
        )
        productions.append(Production(stage, body))

    # The start module: a wide diamond over B1..B5 with four fresh atomics.
    start_body = SimpleWorkflow(
        ["q_in", "q_prep", "B1", "B2", "B3", "B4", "B5", "q_merge", "q_out"],
        [
            Edge(0, 1, "q_prep"),
            Edge(1, 2, "B1"),
            Edge(1, 3, "B2"),
            Edge(1, 4, "B3"),
            Edge(0, 5, "B4"),
            Edge(0, 6, "B5"),
            Edge(2, 7, "q_merge"),
            Edge(3, 7, "q_merge"),
            Edge(4, 7, "q_merge"),
            Edge(5, 7, "q_merge"),
            Edge(6, 7, "q_merge"),
            Edge(7, 8, "q_out"),
        ],
    )
    productions.insert(0, Production("QBLast", start_body))

    spec = Specification(start="QBLast", productions=productions, name="QBLast (simulated)")
    _assert_stats(spec, QBLAST_STATS)
    return spec


def fork_production_indices(spec: Specification, kleene_tag: str) -> tuple[int, ...]:
    """Indices of recursive productions whose bodies carry the given tag.

    Used by the Kleene-star workload generator to fire the fork recursion of
    Fig. 14 many times ("we generate runs by firing the specified fork
    recursion many times and other recursions only once").
    """
    recursive = spec.production_graph.recursive_productions
    return tuple(
        index
        for index in sorted(recursive)
        if kleene_tag in spec.production(index).body.tags()
    )


def _assert_stats(spec: Specification, expected: dict[str, int]) -> None:
    actual = {
        "size": spec.size(),
        "modules": len(spec.modules),
        "composite": len(spec.composite_modules),
        "productions": len(spec.productions),
        "recursive": len(spec.production_graph.recursive_productions),
    }
    if actual != expected:
        raise AssertionError(
            f"simulated workflow statistics drifted from the paper's: "
            f"expected {expected}, got {actual}"
        )
