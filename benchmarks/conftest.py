"""Path bootstrap for the tests under ``benchmarks/``.

The ``benchmarks/rpq`` self-tests import ``repro``; putting ``src/`` on
``sys.path`` here lets ``python -m pytest benchmarks/rpq`` run without an
installed package.  Timed runs and regression gating of the scenario
catalog live in ``repro bench run`` / ``repro bench gate``.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
