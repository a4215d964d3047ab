"""Discrete Dirichlet solver for div(|grad u|^(p-2) grad u) = f(u).

The weak problem is the Euler-Lagrange equation of the strictly convex
energy

    E(u) = int ( (|grad u|^2 + eps^2)^(p/2) - eps^p ) / p  +  int F(u),

discretized with piecewise-linear elements on the structured triangulation
(gradient term exact per triangle, absorption term by lumped-node
quadrature).  The regularization eps tames the degenerate (p > 2) and
singular (p < 2) coefficient at critical points; a geometric continuation
drives eps from the cell size down to 0.01 h^2, warm-starting damped
Newton at every stage.  Since f is nondecreasing, F is convex and the
minimizer is unique, so the discrete solution is deterministic given the
grid.

Boundary blow-up is approximated by an increasing sweep of constant
Dirichlet levels M (the monotone-limit construction, run by
:func:`plaplab.minimize.sweep_levels`): interior values are nondecreasing
in M by the comparison principle, and the sweep reports the windowed
change between consecutive stages as a stabilization residual.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridFunction, RectGrid, Window, window_node_mask
from .minimize import (NonConvergenceError, default_eps_schedule,
                       minimize_newton, sweep_levels)
from .nonlinearity import Nonlinearity

__all__ = [
    "SolverConfig",
    "SolveResult",
    "BlowupReport",
    "NonConvergenceError",
    "energy",
    "energy_gradient",
    "solve_dirichlet",
    "solve_blowup",
]


@dataclass(frozen=True)
class SolverConfig:
    """Newton tolerances; the eps ladder is the fixed
    :func:`plaplab.minimize.default_eps_schedule` of the smallest cell
    spacing.

    ``tol`` bounds the max norm of the energy gradient scaled by the
    lumped node area, which gives it a mesh-size-independent meaning.
    """

    p: float
    tol: float = 1e-9
    max_newton: int = 200

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError(f"requires p > 1, got p={self.p}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Converged discrete solution with diagnostics.

    Boundary nodes carry the prescribed data exactly.  ``residual`` is the
    final area-scaled gradient max norm; it is at most ``tol`` unless the
    iteration stalled at the double-precision floor, which is then
    recorded in ``diagnostics``.
    """

    solution: GridFunction
    config: SolverConfig
    nl: Nonlinearity
    boundary_mode: str
    stages: tuple
    energy: float
    residual: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def tol(self) -> float:
        return self.config.tol

    @property
    def p(self) -> float:
        return self.config.p


@dataclass(frozen=True)
class BlowupReport:
    """Stabilization record of an increasing-M sweep."""

    m_values: tuple
    stage_max_change: tuple   # windowed max |u_{M_k+1} - u_{M_k}|
    monotone_margin: float    # most negative interior increment (>= -2 tol)
    window: Optional[Window]


class _CylinderProblem:
    """Regularized p-energy of P1 elements on a uniform simplex mesh:
    ``cells`` (cells x nodes), gradient coefficients ``b`` (cells x nodes
    x dim, grad u|_T = sum_k u_k b_k), one cell ``measure`` and the
    ``free`` node mask.  :meth:`on_grid` builds the cylinder problem;
    subclasses may replace the Hessian solve :meth:`_solve`."""

    def __init__(self, cells, b, measure, free, nl: Nonlinearity, p: float,
                 boundary_values: np.ndarray):
        self.nl = nl
        self.p = p
        self.cells = cells
        self.b = b
        self.measure = measure
        n = len(free)
        # each cell spreads its measure evenly over its nodes
        self.mass = np.bincount(cells.ravel(), minlength=n) * (
            measure / cells.shape[1])
        self.free = free
        self.boundary_values = boundary_values
        self.free_idx = np.flatnonzero(free)
        # node -> free-dof renumbering for the reduced Hessian
        self._perm = np.full(n, -1, dtype=np.int64)
        self._perm[self.free_idx] = np.arange(len(self.free_idx))
        self._dots = np.einsum("tkd,tld->tkl", b, b)

    @classmethod
    def on_grid(cls, grid: RectGrid, nl: Nonlinearity, p: float,
                boundary_values: np.ndarray) -> "_CylinderProblem":
        return cls(grid.triangles(), grid.gradient_coefficients(),
                   grid.triangle_area(), grid.interior_mask(), nl, p,
                   boundary_values)

    def with_boundary(self, u):
        out = np.array(u, dtype=float)
        out[~self.free] = self.boundary_values[~self.free]
        return out

    def _cell_gradients(self, u, eps):
        """Per-cell gradients and their regularized squares |grad u|^2 +
        eps^2."""
        gu = np.einsum("tk,tkd->td", u[self.cells], self.b)
        # column by column: a numpy reduction over the short last axis
        # is an order of magnitude slower
        return gu, sum(gu[:, d] ** 2 for d in range(gu.shape[1])) + eps * eps

    def _gradient_energy(self, u, eps):
        _, g2e = self._cell_gradients(u, eps)
        return self.measure * np.sum(
            (g2e ** (0.5 * self.p) - eps ** self.p)) / self.p

    def full_energy(self, u, eps):
        """Spec energy: gradient term plus lumped F over all nodes."""
        return float(self._gradient_energy(u, eps)
                     + np.sum(self.mass * self.nl.F_extended(u)))

    def objective(self, u, eps):
        """Line-search objective: F contributions of fixed nodes removed.

        They are constant along the iteration but can dominate the energy
        by many orders of magnitude under blow-up boundary data, drowning
        the Armijo comparison in roundoff.
        """
        f_term = np.sum(self.mass[self.free]
                        * self.nl.F_extended(u[self.free]))
        return float(self._gradient_energy(u, eps) + f_term)

    def gradient(self, u, eps):
        gu, g2e = self._cell_gradients(u, eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(g2e > 0.0, g2e ** (0.5 * self.p - 1.0), 0.0)
        w = self.measure * sigma
        contrib = w[:, None] * np.einsum("td,tkd->tk", gu, self.b)
        n = len(self.free)
        nodes = self.cells.ravel()
        g = np.bincount(nodes, weights=contrib.ravel(), minlength=n)
        fvals = self.mass * self.nl.f_extended(u)
        scale = np.bincount(nodes, weights=np.abs(contrib).ravel(),
                            minlength=n) + np.abs(fvals)
        return g + fvals, scale

    def newton_step(self, u, eps, grad):
        gu, g2e = self._cell_gradients(u, eps)
        sigma = g2e ** (0.5 * self.p - 1.0)
        tau = (self.p - 2.0) * g2e ** (0.5 * self.p - 2.0)
        gb = np.einsum("td,tkd->tk", gu, self.b)
        blocks = self.measure * (sigma[:, None, None] * self._dots
                                 + tau[:, None, None]
                                 * gb[:, :, None] * gb[:, None, :])
        fp = self.mass[self.free_idx] * self.nl.f_prime(u[self.free_idx])
        step = self._solve(blocks, fp, -grad[self.free_idx])
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError(
                "Hessian solve produced non-finite entries "
                f"(eps={eps:.3e}, p={self.p})")
        return step

    def _solve(self, blocks, fp, rhs):
        """Solve (H + diag(fp)) x = rhs over the free dofs, H assembled
        from the per-cell Hessian ``blocks``."""
        rows = self._perm[np.broadcast_to(self.cells[:, :, None],
                                          blocks.shape).ravel()]
        cols = self._perm[np.broadcast_to(self.cells[:, None, :],
                                          blocks.shape).ravel()]
        keep = (rows >= 0) & (cols >= 0)
        nfree = len(self.free_idx)
        H = sp.coo_matrix((blocks.ravel()[keep], (rows[keep], cols[keep])),
                          shape=(nfree, nfree)).tocsc()
        H = H + sp.diags(fp)
        return spla.spsolve(H, rhs)

    def laplace_fill(self, eps):
        """Linear (p=2, f=0) solve with the stored boundary data; used as
        the cold-start initial guess."""
        linear = copy.copy(self)
        linear.nl = Nonlinearity.zero()
        linear.p = 2.0
        u0 = self.with_boundary(np.zeros(len(self.free)))
        g, _ = linear.gradient(u0, eps)
        u0[self.free] += linear.newton_step(u0, eps, g)
        return u0

    def minimize(self, h, tol, max_newton, initial=None):
        """Damped Newton down the eps ladder of the cell size ``h``, from
        ``initial`` (its fixed entries overwritten) or else from the
        Laplace fill; returns ``(u, stages, info)`` of
        :func:`plaplab.minimize.minimize_newton`."""
        schedule = default_eps_schedule(h)
        if initial is None:
            u0 = self.laplace_fill(schedule[0])
        else:
            u0 = self.with_boundary(initial)
        return minimize_newton(self, u0, schedule, tol, max_newton)


def _boundary_array(grid: RectGrid, bdata) -> np.ndarray:
    X, Y = grid.node_coords()
    if callable(bdata):
        vals = np.asarray(bdata(X, Y), dtype=float)
        if vals.shape != (grid.n_nodes,):
            vals = np.broadcast_to(vals, (grid.n_nodes,)).astype(float)
    else:
        vals = np.full(grid.n_nodes, float(bdata))
    out = np.zeros(grid.n_nodes)
    bmask = grid.boundary_mask()
    if not np.all(np.isfinite(vals[bmask])):
        raise ValueError("boundary data must be finite on all boundary nodes")
    out[bmask] = vals[bmask]
    return out


def energy(u: GridFunction, nl: Nonlinearity, p: float, eps: float) -> float:
    """Regularized discrete energy of a nodal field (all nodes included)."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    problem = _CylinderProblem.on_grid(u.grid, nl, p, np.zeros(u.grid.n_nodes))
    return problem.full_energy(u.values, eps)


def energy_gradient(u: GridFunction, nl: Nonlinearity, p: float,
                    eps: float) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to nodal values.

    At interior nodes this is the regularized weak-form residual tested
    against the nodal hat function.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    problem = _CylinderProblem.on_grid(u.grid, nl, p, np.zeros(u.grid.n_nodes))
    g, _ = problem.gradient(u.values, eps)
    return g


def solve_dirichlet(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig,
                    bdata, initial: Optional[np.ndarray] = None,
                    boundary_mode: Optional[str] = None) -> SolveResult:
    """Minimize the discrete energy with the boundary nodes fixed.

    ``bdata`` is a constant or a callable ``(X, Y) -> values`` evaluated
    at the node coordinates.  ``initial`` warm-starts Newton (its boundary
    entries are overwritten); the default cold start is the linear
    Laplace fill of the boundary data.
    """
    problem = _CylinderProblem.on_grid(grid, nl, cfg.p,
                                       _boundary_array(grid, bdata))
    u, stages, info = problem.minimize(min(grid.hx, grid.hy), cfg.tol,
                                       cfg.max_newton, initial)
    mode = boundary_mode or ("dirichlet(constant "
                             f"{bdata})" if not callable(bdata)
                             else "dirichlet(callable)")
    return SolveResult(
        solution=GridFunction(grid, u),
        config=cfg,
        nl=nl,
        boundary_mode=mode,
        stages=tuple(stages),
        energy=problem.full_energy(u, stages[-1].eps),
        residual=info["residual"],
        diagnostics={"roundoff_floor": info["roundoff_floor"],
                     "stalled_at_floor": info["stalled"],
                     "eps_schedule": tuple(s.eps for s in stages)},
    )


def solve_blowup(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig, M_list,
                 window: Optional[Window] = None):
    """Increasing sweep of constant boundary levels approximating blow-up.

    Warm-started :func:`solve_dirichlet` levels driven by
    :func:`plaplab.minimize.sweep_levels`.  Returns the list of per-stage
    results and a :class:`BlowupReport` whose changes are measured on the
    window (all interior nodes without one).
    """
    interior = grid.interior_mask()
    watch = interior if window is None else \
        window_node_mask(grid, window) & interior

    def solve_level(M, initial):
        res = solve_dirichlet(grid, nl, cfg, M, initial=initial,
                              boundary_mode=f"blowup(M={M:g})")
        return res, res.solution.values

    m_values, results, changes, margin = sweep_levels(
        solve_level, M_list, nl, cfg.p, cfg.tol, interior, watch)
    report = BlowupReport(m_values=m_values,
                          stage_max_change=tuple(changes),
                          monotone_margin=margin,
                          window=window)
    return results, report
