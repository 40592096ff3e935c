import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def one_blas_thread():
    """Run ``python ARGS...`` with one BLAS thread, as perfbench/run.py does,
    and return its stdout. The last bits of long BLAS reductions depend on the
    thread count, so golden values of such runs are recorded under this pin.
    The child imports eigsmooth from src/ and sees the test modules."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]))

    def run(*args):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
