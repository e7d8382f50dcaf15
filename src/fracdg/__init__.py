"""Piecewise-constant DG time stepping for subdiffusion problems.

Subpackages cover the generating-symbol and Mittag-Leffler special
functions, hyperbolic-contour Laplace inversion, the time-stepping
recurrence (spectral runs over a list of orders and Galerkin runs over
a list of time grids; the scalar recurrence is a one-order, one-column
spectral run), exact solutions of the 1D model problem, P1
finite elements on graded meshes, and the error-kernel certification
harness.
"""

import os

# The time stepping and the error norms call no BLAS: every history
# contraction, direct or through exponential sums, is an einsum.  Only the
# reference products (contour sums, modal sine tables) use BLAS.
# Single-threaded BLAS keeps their reduction order fixed, so repeated runs
# of the CSV-emitting workflows are byte-identical.  An explicit setting
# wins.  Imported after numpy, the setting has no effect, and the modal
# reference's curve bytes then follow the BLAS thread count.
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

__all__ = ["__version__"]
