# repro-lint-module: repro.core.optimizer
"""REP109 exhibit: planning as a pure function of its inputs."""

_THRESHOLD = 16  # immutable module constant: fine


def choose_direction(source_count, target_count):
    if target_count and target_count * 4 <= source_count:
        return "backward"
    return "forward"


def plan_cost(edge_count, seed_count):
    return edge_count * max(seed_count, 1) / _THRESHOLD
