"""Smoke test of the demos: each runs to exit 0 from the repository root,
with the package on PYTHONPATH as their docstrings say."""
import os
import subprocess
import sys

import pytest

from helpers import ROOT, child_env

DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


def test_every_demo_is_collected():
    assert DEMOS == ["adjoint_duality.py", "forward_spikes.py",
                     "maximum_principle.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, os.path.join("demos", demo)],
                         cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
