"""Reference kernel that measures the host's current speed, run as a helper process.

The benchmark starts this file once per run and writes a line to its
standard input whenever it wants a timing; the helper answers with the
kernel's duration in seconds. It prints ``ready`` once its inputs are built
and exits when its standard input closes. It lives in its own process so
that its 64 MB array stays out of the workload's peak memory.

The kernel mixes the three kinds of work the package does: a sparse LU of a
fixed 80x80-grid Laplacian, a pure-Python loop, and a stream over a 64 MB
array. It calls no code of the package.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402


def main() -> int:
    n = 80
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    matrix = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
    stream = np.ones(8_000_000)

    def kernel() -> float:
        start = time.perf_counter()
        splu(matrix)
        acc = 0
        for i in range(60_000):
            acc += i * i
        stream.sum()
        return time.perf_counter() - start

    print("ready", flush=True)
    for _ in sys.stdin:
        # the fastest of three: a burst of other load on the host only ever slows a run down
        print(repr(min(kernel() for _ in range(3))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
