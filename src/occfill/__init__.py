"""Occlusion-aware feature completion on a synthetic part-structured world."""

import logging
import os
import sys

__version__ = "0.1.0"

# One BLAS and OpenMP thread, as bench/run.py runs the pipeline: a product
# split over several threads can round otherwise, so the trained model's
# bytes would depend on the host's cores. The thread pools read these
# variables when numpy is first imported, so they are set before any module
# of the package imports it. A value already set still wins.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if "numpy" in sys.modules:
    logging.getLogger(__name__).debug(
        "numpy was imported before occfill, so its BLAS thread pool keeps the "
        "size it started with; set %s before importing numpy for one thread",
        "/".join(BLAS_THREAD_VARS))
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var
