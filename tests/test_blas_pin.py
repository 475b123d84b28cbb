"""A fit's bytes do not depend on import order or the BLAS thread count.

``OPENBLAS_NUM_THREADS`` only takes effect when set before numpy loads,
so a process that imports numpy before ``repro`` used to fit with the
BLAS's own thread count and save other weights (``9a38a86c…`` instead
of ``930351b6…`` for churn at scale 2 on a 2-CPU host).  ``import
repro`` now pins numpy's bundled OpenBLAS through its entry point, and
the manifest records how.
"""

import json
import os
import subprocess
import sys

import pytest

from repro._blas import BLAS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``weights_sha256`` of ``repro fit --dataset ecommerce --task churn --scale 2``.
CHURN_SCALE_2 = "930351b6"

_FIT_AFTER_NUMPY = """
import sys
import numpy  # loads first, as a notebook's or an embedding service's would
from repro.cli import main
sys.exit(main(["fit", "--dataset", "ecommerce", "--task", "churn", "--scale", "2",
               "--save", sys.argv[1]]))
"""


@pytest.mark.skipif(BLAS.startswith("env:"), reason=f"no bundled OpenBLAS setter: {BLAS}")
def test_numpy_first_fits_the_pinned_bytes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    runs = {}
    for threads in (None, "2"):
        out = tmp_path / f"threads-{threads}"
        run_env = dict(env, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
        runs[threads] = (out, subprocess.Popen(
            [sys.executable, "-c", _FIT_AFTER_NUMPY, str(out)], env=run_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ))
    for threads, (out, proc) in runs.items():
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-2000:]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["weights_sha256"].startswith(CHURN_SCALE_2), threads
        assert manifest["blas"] == BLAS
