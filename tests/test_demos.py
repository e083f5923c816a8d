"""Every demo script runs to completion from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirroragg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SOURCE_ROOT = str(Path(mirroragg.__file__).resolve().parent.parent)


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300)


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == "03_oracle_risks":
        # the hinge convex oracle lands exactly on the selection oracle's value
        assert "difference 0.00e+00" in proc.stdout
