"""Numerical laboratory for the p-Laplacian absorption equation
``div(|grad u|^(p-2) grad u) = f(u)`` on expanding 2D cylinders and their
1D cross-section, including boundary blow-up approximation and
convergence-rate measurement."""

from .asymptotics import (BlowupData, CheckReport, FiniteData, RateReport,
                          RateRow, RateUnresolvableError, SweepSpec, fit_rate,
                          sweep_ell, verify_barrier, verify_caccioppoli,
                          verify_comparison, verify_monotone_in_ell)
from .grid import (GridFunction, RectGrid, Window, build_grid,
                   cutoff_function, embed_cross_section, gradient_per_cell,
                   lp_norm_gradient, window_node_mask, write_grid_function)
from .minimize import NonConvergenceError
from .nonlinearity import (A2Report, Nonlinearity, check_a1, check_a2,
                           psi_inverse, psi_p)
from .ode1d import (CrossProfile, DivergentBlowupError, LargeSolution1D,
                    blowup_radius, solve_cross_finite, solve_cross_large,
                    solve_large_1d)
from .quadrature import QuadratureError
from .solver import (BlowupReport, SolveResult, SolverConfig, energy,
                     energy_gradient, solve_blowup, solve_dirichlet)

__version__ = "0.1.0"
