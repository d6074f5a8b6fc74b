"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, so no third-party module is already in
# ``sys.modules`` and every import goes through the refusing finder.
_PROBE = """
import importlib.abc
import pkgutil
import sys


class RefuseThirdParty(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ImportError(f"third-party import: {name}")
        return None


def fail(name):
    raise ImportError(f"cannot import package {name}")


sys.meta_path.insert(0, RefuseThirdParty())
import repro

count = 0
for module in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    __import__(module.name)
    count += 1
print(count)
"""


def test_every_module_imports_without_third_party_packages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 50  # the walk really covered the package
