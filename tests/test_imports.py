"""The runtime is numpy-only: no fireimpact module may pull in scipy, and
no command needs numpy.ma."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fireimpact
from fireimpact import cli

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


MA_PROBE = """
import sys

from fireimpact import cli

code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.fixture(scope="module")
def synth_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports") / "s"
    assert cli.main(["synth", "--seed", "7", "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize(
    "command",
    [["assess", "--bandwidth-m", "4"], ["downscale"], ["perimeters", "--bandwidth-m", "4"],
     ["render", "--bandwidth-m", "4"]],
)
def test_command_leaves_numpy_ma_unimported(synth_tree, tmp_path, command):
    # numpy loads numpy.ma lazily, and only some calls (a bare np.unique)
    # pull it in: 12 ms of a fresh process that no command needs.
    src = str(Path(fireimpact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", MA_PROBE, command[0], "--manifest",
         str(synth_tree / "manifest.json"), "--out", str(tmp_path / "out"), *command[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
