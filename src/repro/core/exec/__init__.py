"""The executor layer: physical plans and their execution.

The evaluation stack splits in two at this package's boundary:

* the **planner** (:mod:`repro.core.decomposition` + the cost model of
  :mod:`repro.core.optimizer`) is logical: safe-subtree decomposition,
  safety analysis, macro rewriting, cost and direction estimation — pure,
  cacheable, store-serializable;
* the **executor** (this package) is physical: ``build_physical_plan``
  resolves a workload into a tree of operators (:class:`FrontierSearchOp`,
  :class:`JoinOp`, :class:`LabelDecodeOp`, :class:`RestrictOp`) and
  ``execute``/``execute_iter`` run it — serially, or fanned across a thread
  or process pool whose chunk results stream in completion order.  Each
  operator has one compute kernel: packed bitsets for joins and closures,
  per-element sets for per-seed frontier searches.

New execution strategies plug in at this seam without touching the planner:
the backward (reversed-DFA) frontier search and the parallel per-seed
executor both live here.
"""

from repro.core.exec.config import DIRECTIONS, ExecutorConfig, WorkerBudget
from repro.core.exec.executor import execute, execute_iter
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    MacroRelation,
    PhysicalOp,
    RestrictOp,
)
from repro.core.exec.plan import PhysicalPlan, build_physical_plan

__all__ = [
    "DIRECTIONS",
    "ExecutorConfig",
    "FrontierSearchOp",
    "JoinOp",
    "LabelDecodeOp",
    "MacroRelation",
    "PhysicalOp",
    "PhysicalPlan",
    "RestrictOp",
    "WorkerBudget",
    "build_physical_plan",
    "execute",
    "execute_iter",
]
