"""Each sphwave submodule imports first in a fresh interpreter: no import cycle breaks."""

import importlib.util
import os
import subprocess
import sys

import pytest

SUBMODULES = ["special", "harmonics", "rotderiv", "wavelets", "admissibility", "transform", "euclid", "cli"]


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports_first(module):
    # locate the package without importing it here, so a broken import fails per module
    src = os.path.dirname(os.path.dirname(os.path.abspath(importlib.util.find_spec("sphwave").origin)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sphwave.{module}"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
