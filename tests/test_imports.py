"""Each sphwave submodule imports first in a fresh interpreter: no import cycle breaks.

The package needs numpy alone: the CLI import loads no scipy module.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

SUBMODULES = ["special", "harmonics", "rotderiv", "wavelets", "admissibility", "transform", "euclid", "cli"]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    # locate the package without importing it here, so a broken import fails per module
    src = os.path.dirname(os.path.dirname(os.path.abspath(importlib.util.find_spec("sphwave").origin)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports_first(module):
    proc = _fresh_python(f"import sphwave.{module}")
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_scipy():
    proc = _fresh_python("import sys, sphwave.cli; print([k for k in sys.modules if k.startswith('scipy')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
