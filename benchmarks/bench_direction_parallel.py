"""Direction-aware and parallel frontier execution — ported to the scenario catalog.

The workload formerly hand-rolled here is now the declarative catalog
entries ``frontier-forward``, ``frontier-backward``, ``frontier-parallel-4w`` in :mod:`repro.bench.catalog`.  Timing and
regression gating moved to ``repro bench run`` / ``repro bench gate``
(see ``benchmarks/trajectory/``); the test below only exercises the
catalog entries at smoke scale so ``pytest benchmarks/`` keeps
covering the same code paths.
"""

from repro.bench.shim import scenario_smoke_tests

test_smoke = scenario_smoke_tests(
    "frontier-forward",
    "frontier-backward",
    "frontier-parallel-4w",
)
