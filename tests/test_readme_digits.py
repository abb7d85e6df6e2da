"""The README's determinism examples reproduce their one-thread digits.

README.md quotes epsilon1_hat to the last digit for two seeded runs: the tall
three-view ``decompose_multiview`` call and the walkthrough's CLI run. Each is
re-run here in a subprocess with one BLAS thread and compared with the digits
that README.md gives for one thread. The digits hold on one numpy and BLAS
build only, so the test is skipped unless the numpy version and the BLAS
library and version that ``np.show_config`` reports match the build the
README names.
"""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Prints epsilon1_hat of the tall three-view example, then of the walkthrough's
# CLI run, one repr per line.
SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import ppdecomp as ppd
from ppdecomp.cli import main

cfg = ppd.SimConfig(n=300, dims=(90, 120, 150), joint_rank=4, individual_ranks=(6, 5, 4),
                    angle_deg=60.0, snr=2.0, seed=0)
res = ppd.decompose_multiview(ppd.generate(cfg)[0],
                              bootstrap=ppd.BootstrapConfig(replicates=20, seed=0))
print(repr(res.epsilon1_hat))
cfg = ppd.SimConfig(n=167, dims=(1572, 375), joint_rank=8, individual_ranks=(8, 8),
                    angle_deg=60.0, snr=2.0, seed=1)
with tempfile.TemporaryDirectory() as tmp:
    argv = ["decompose", "--ranks", "16,16", "--bootstrap-reps", "50", "--seed", "7",
            "--out", str(Path(tmp) / "result.json")]
    for k, view in enumerate(ppd.generate(cfg)[0]):
        ppd.write_matrix_csv(Path(tmp) / f"v{k}.csv", view)
        argv += ["--view", str(Path(tmp) / f"v{k}.csv")]
    assert main(argv) == 0
    print(repr(json.loads((Path(tmp) / "result.json").read_text())["epsilon1_hat"]))
"""


def readme_claims():
    """(one-thread digits of both examples, (numpy, OpenBLAS, machine)) from README.md."""
    text = " ".join((ROOT / "README.md").read_text().split())
    digits = re.findall(r"gives `([0-9.e-]+)` with one", text)
    build = re.search(r"\(numpy ([0-9.]+), OpenBLAS ([0-9.]+), ([\w-]+)\)", text)
    assert len(digits) == 2 and build, "README no longer states the determinism digits"
    return digits, build.groups()


def run_examples(threads: int):
    """epsilon1_hat of both examples, as printed, at the given BLAS thread count."""
    env = {**os.environ, **{var: str(threads) for var in THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return out.split()


def test_readme_determinism_digits():
    digits, (numpy_version, openblas_version, machine) = readme_claims()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = (np.__version__, "openblas" in blas["name"],
             blas["version"].startswith(openblas_version + "."),
             platform.machine().replace("_", "-"))
    if build != (numpy_version, True, True, machine):
        pytest.skip(f"README digits are for numpy {numpy_version}, OpenBLAS "
                    f"{openblas_version}, {machine}; this is numpy {np.__version__}, "
                    f"{blas['name']} {blas['version']}, {platform.machine()}")
    assert run_examples(1) == digits
