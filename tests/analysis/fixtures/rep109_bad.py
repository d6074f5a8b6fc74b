# repro-lint-module: fixtures.rep109_planner
"""REP109 exhibit: a planner whose helper reaches the clock.

No impurity in the planner's own body, but the call graph shows
``plan_order`` reaching ``time.time`` through ``stamp``.
"""

from fixtures.rep109_helpers import stamp


def plan_order(nodes: list) -> list:
    marker = stamp()  # BAD: plans become functions of the wall clock
    return sorted(nodes, key=lambda node: (str(node), marker))
