"""The runtime is numpy-only: no fireimpact module may pull in scipy."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fireimpact

PROBE = """
import importlib
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_every_module_imports_without_scipy():
    names = sorted(
        f"fireimpact.{m.name}" for m in pkgutil.iter_modules(fireimpact.__path__)
    )
    assert "fireimpact.pipeline" in names
    src = str(Path(fireimpact.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *names],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
