"""The quick demos run to completion against the current library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_preprocessing.py", "02_sparse_autoencoder.py", "03_clustering.py",
         "04_policy_iteration.py", "05_full_pipeline.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(tmp_path)  # demo 05 leaves its artifacts in a temp dir
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
