"""Pin BLAS to one thread for the whole test session.

SLSQP's dense QP runs slower on more OpenBLAS threads, and far slower
when another process holds the other cores. numpy reads these variables
when it is first imported, which happens after this root conftest runs.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
