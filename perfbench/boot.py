"""Process start shared by the benchmark's entry points; import it first.

It pins BLAS to one thread before numpy loads, so serial workloads are
single-threaded and a two-worker workload uses two cores, and it puts the
program's ``src`` on the import path of this process and of its children,
because the package is not installed.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def boot() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    if not (SRC / "kanbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'kanbench'}; run it from a kanbench checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
