"""Run the test suites on one BLAS thread.

OpenBLAS, OpenMP and MKL read these variables once, when numpy loads, so
they are set here, before any test module imports numpy.  A thread pool
buys nothing on the small matrices the solver and the networks use, and
under load from other processes it makes every solve several times slower.
Values already set in the environment are kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
