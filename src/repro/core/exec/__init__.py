"""The executor layer: physical plans and their execution.

The evaluation stack splits in two at this package's boundary:

* the **planner** (:mod:`repro.core.decomposition` + the cost model of
  :mod:`repro.core.optimizer`) is logical: safe-subtree decomposition,
  safety analysis, macro rewriting, cost and direction estimation — pure,
  cacheable, store-serializable;
* the **executor** (this package) is physical: ``build_physical_plan``
  resolves a workload into one operator (:class:`FrontierSearchOp`,
  :class:`JoinOp` or :class:`LabelDecodeOp`) and
  ``execute``/``execute_iter`` run it.  Each operator has one compute
  kernel: packed bitsets for joins and closures, one topological
  multi-source sweep per frontier operator.

New execution strategies plug in at this seam without touching the planner:
the backward (reversed-DFA) frontier search lives here.
"""

from repro.core.exec.executor import execute, execute_iter
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    MacroRelation,
    PhysicalOp,
)
from repro.core.exec.plan import (
    DIRECTIONS,
    STRATEGIES,
    PhysicalPlan,
    build_physical_plan,
    check_routing,
)

__all__ = [
    "DIRECTIONS",
    "STRATEGIES",
    "FrontierSearchOp",
    "JoinOp",
    "LabelDecodeOp",
    "MacroRelation",
    "PhysicalOp",
    "PhysicalPlan",
    "build_physical_plan",
    "check_routing",
    "execute",
    "execute_iter",
]
