"""Pin BLAS and OpenMP to one thread before numpy is first imported.

On a machine with few cores, a multithreaded BLAS oversubscribes the CPU
on the small dense blocks of the block Cholesky factor as soon as another
process is busy.  Subprocesses started by the tests (the demos) inherit
the setting; a value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
