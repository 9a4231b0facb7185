"""Process set-up shared by the benchmark scripts.

Pins the BLAS and OpenMP pools to one thread before numpy is imported, so a
run occupies one core and its timings do not depend on what else runs on
the others, and puts the checkout's ``src`` directory first on the import
path, so the benchmark always measures the code beside it.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def prepare():
    """Call before the first numpy or amisim import."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "amisim", "__init__.py")):
        sys.exit(f"perfbench: no amisim package under {SRC}")
    sys.path.insert(0, SRC)
