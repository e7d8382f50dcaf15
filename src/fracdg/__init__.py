"""Piecewise-constant DG time stepping for subdiffusion problems.

Subpackages cover the generating-symbol and Mittag-Leffler special
functions, hyperbolic-contour Laplace inversion, the time-stepping
recurrence (spectral and Galerkin forms; the scalar recurrence is a
one-column spectral run), exact solutions of the 1D model problem, P1
finite elements on graded meshes, and the error-kernel certification
harness.
"""

import os

# The time stepping and the error norms call no BLAS; only the reference
# products (contour sums, modal sine tables) do.  Single-threaded BLAS keeps
# their reduction order fixed, so repeated runs of the CSV-emitting
# workflows are byte-identical.  An explicit setting wins, and the setting
# has no effect if numpy was imported first.
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .special import (
    FractionalOrder,
    QuadratureError,
    mittag_leffler_neg_array,
    symbol_series,
    symbol_integral,
    symbol_cut,
)
from .laplace import ContourSpec, inverter, window_chain
from .stepping import TimeGrid, dg_weights, step_spectral, step_galerkin
from .exact import (
    KAPPA,
    EigenSystem1D,
    InitialData,
    exact_field,
    constant_data_transform,
)
from .fem1d import Mesh1D, FemMatrices, graded_mesh, assemble, l2_project
from .certify import (
    delta_direct,
    delta_contour,
    phi_sweep,
    lemma_integral_zero,
    lemma_scan_bounds,
    weighted_error_table,
)

__version__ = "0.1.0"

__all__ = [
    "FractionalOrder",
    "QuadratureError",
    "mittag_leffler_neg_array",
    "symbol_series",
    "symbol_integral",
    "symbol_cut",
    "ContourSpec",
    "inverter",
    "window_chain",
    "TimeGrid",
    "dg_weights",
    "step_spectral",
    "step_galerkin",
    "KAPPA",
    "EigenSystem1D",
    "InitialData",
    "exact_field",
    "constant_data_transform",
    "Mesh1D",
    "FemMatrices",
    "graded_mesh",
    "assemble",
    "l2_project",
    "delta_direct",
    "delta_contour",
    "phi_sweep",
    "lemma_integral_zero",
    "lemma_scan_bounds",
    "weighted_error_table",
    "__version__",
]
