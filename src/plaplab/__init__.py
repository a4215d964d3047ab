"""Numerical laboratory for the p-Laplacian absorption equation
``div(|grad u|^(p-2) grad u) = f(u)`` on expanding 2D cylinders and their
1D cross-section, including boundary blow-up approximation and
convergence-rate measurement."""

import os

# The Newton bands are narrow (half-bandwidth ny - 1), and OpenBLAS's
# threads cost more than they save on them; the setting must precede
# numpy's import, and a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .asymptotics import (BlowupData, CheckReport, FiniteData, RateReport,
                          RateRow, RateUnresolvableError, SweepSpec, fit_rate,
                          sweep_ell, verify_barrier, verify_caccioppoli,
                          verify_comparison, verify_monotone_in_ell)
from .grid import (GridFunction, RectGrid, Window, build_grid,
                   cutoff_function, distance_profile_start,
                   embed_cross_section, gradient_per_cell, lp_norm_gradient,
                   window_node_mask, write_grid_function)
from .minimize import NonConvergenceError
from .nonlinearity import (A2Report, Nonlinearity, check_a1, check_a2,
                           log_psi_p, psi_p, require_a1)
from .ode1d import (CrossProfile, LargeSolution1D, blowup_radius,
                    solve_cross_finite, solve_cross_large, solve_large_1d)
from .quadrature import QuadratureError
from .solver import (BlowupReport, SolveResult, SolverConfig, energy,
                     energy_gradient, solve_blowup, solve_dirichlet,
                     solve_levels)

__version__ = "0.1.0"
