"""Pin BLAS to one thread before any test module imports numpy.

Importing occfill sets the thread variables of `occfill.BLAS_THREAD_VARS`
to 1, unless they are set already, and the thread pools read them when
numpy is first imported. Test modules import numpy before occfill, so
occfill is imported here, at the root, ahead of every test module. One
thread is what `bench/run.py` runs the pipeline with: the artifacts' bytes
depend on the thread count, and the suite's many small products wait on
every busy core when a pool spreads them over more than one.
"""

import occfill  # noqa: F401
