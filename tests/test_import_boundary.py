"""The library's runtime dependencies are numpy and the standard library.

Importing every ``repro.*`` module in a fresh interpreter must bring in
no other third-party top-level package: scipy, hypothesis and the other
development tools are test-only, and a runtime import of one of them
fails here by name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SCRIPT = """
import importlib, json, pkgutil, sys
# Site hooks (``.pth`` files) may preload packages before any repro code.
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_every_repro_module_imports_only_numpy_beyond_the_stdlib():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(output.stdout.splitlines()[-1]) == ["numpy", "repro"]
