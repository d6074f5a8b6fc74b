# repro-lint-module: repro.core.optimizer
"""REP109 exhibit: a planner module leaking ambient state into plans."""

import os
import random  # BAD: nondeterministic import
from time import monotonic  # BAD: clock import

_PLAN_CACHE = {}


def choose_direction(seed_count):
    if os.environ.get("REPRO_FORCE_BACKWARD"):  # BAD: environment read
        return "backward"
    started = monotonic()
    _PLAN_CACHE[seed_count] = started  # BAD: module-level mutation
    return "forward" if random.random() < 0.5 else "backward"


def reset_cache():
    global _PLAN_CACHE  # BAD: global statement
    _PLAN_CACHE = {}


def persist(path):
    with open(path, "w") as handle:  # BAD: file IO in a planner
        handle.write("plan")
