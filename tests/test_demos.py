"""Every demo script runs to completion and prints something."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
