"""Record in every test log what the exact pins depend on.

The seeded probe outputs are pinned to the last bit, and those bits move
with the BLAS thread count (see the pins in ``test_probes``). The summary
line names the library versions, the core count and the thread settings
of the run; it changes no test.
"""

import os

import numpy
import scipy


def pytest_terminal_summary(terminalreporter):
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}"
                       for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"))
    terminalreporter.write_line(f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
                                f"cpu_count {os.cpu_count()}, {threads}")
