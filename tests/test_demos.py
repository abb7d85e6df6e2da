"""The quick demos run to completion.

Each demo runs in a subprocess from a temporary directory, which is also its
TMPDIR: the two-view demo writes its SVG into the working directory, and the
CLI walkthrough leaves a ``mkdtemp`` folder. ``bootstrap_ablation.py`` and
``benchmark_table.py`` take several seconds each and are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["two_view_decomposition.py",
                                  "wide_views_cli_walkthrough.py",
                                  "noise_spectrum_law.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
