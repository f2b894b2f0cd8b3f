"""Pin BLAS to one thread before any test module imports numpy.

The thread pools read these variables when numpy is first imported, so
they are set here, at the root, ahead of every test module. One thread is
what `bench/run.py` runs the pipeline with: the artifacts' bytes depend on
the thread count, and the suite's many small products wait on every busy
core when a pool spreads them over more than one. A value set in the
environment still wins.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")
