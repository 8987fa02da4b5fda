"""The narrative scripts in demos/ run to completion.  The MovieLens one
needs the full data set and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "closed_form_identities", "popularity_rescaling", "block_sparse_training",
    "ranking_evaluation",
])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
