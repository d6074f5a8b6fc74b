"""The executor layer: physical plans and their execution.

The evaluation stack splits in two at this package's boundary:

* the **planner** (:mod:`repro.core.decomposition` + the cost model of
  :mod:`repro.core.optimizer`) is logical: safe-subtree decomposition,
  safety analysis, label routing, macro rewriting — pure, cacheable,
  store-serializable;
* the **executor** (this package) is physical: ``build_physical_plan``
  resolves a workload into one operator by its shape alone — a
  :class:`LabelDecodeOp` for a fully safe query, a :class:`JoinOp` for an
  unsafe query without node lists, a :class:`FrontierSearchOp` for an
  unsafe query with them — and ``execute``, its one entry, runs it to the
  interned answer.  Each operator has one compute kernel: the
  group-at-a-time label decode, the packed bitset joins and closures, or
  one topological multi-source sweep over the macro DFA, forward or
  backward.
"""

from repro.core.exec.executor import execute
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    MacroRelation,
    PhysicalOp,
)
from repro.core.exec.plan import (
    DIRECTIONS,
    PhysicalPlan,
    build_physical_plan,
    check_direction,
)

__all__ = [
    "DIRECTIONS",
    "FrontierSearchOp",
    "JoinOp",
    "LabelDecodeOp",
    "MacroRelation",
    "PhysicalOp",
    "PhysicalPlan",
    "build_physical_plan",
    "check_direction",
    "execute",
]
