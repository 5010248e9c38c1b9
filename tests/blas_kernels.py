"""Recompute a test module's values in a child process under a forced
OpenBLAS kernel.

numpy's bundled OpenBLAS picks its kernel per CPU at load time, and
OPENBLAS_CORETYPE forces one in a child process; the variable acts on that
process only. A value computed with no BLAS call has the same bits under
every kernel, while a BLAS product (zgemm, a dot) may round differently
under Prescott and Haswell. The Haswell kernel needs AVX2.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

KERNELS = ["Prescott", "Haswell"]


def has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def under_kernel(kernel: str, module: str, function: str):
    """The JSON value that module.function() returns in a child process whose
    OpenBLAS runs ``kernel`` on one thread; the test skips where this CPU
    cannot run that kernel."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    if kernel == "Haswell" and not has_avx2():
        pytest.skip("this CPU has no AVX2 for the Haswell kernel")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = f"import json, {module} as m; print(json.dumps(m.{function}()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout)
