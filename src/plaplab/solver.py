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
    """Regularization schedule and Newton tolerances.

    ``tol`` bounds the max norm of the energy gradient scaled by the
    lumped node area, which gives it a mesh-size-independent meaning.
    When ``eps_schedule`` is None it defaults to a geometric ladder from
    the smallest cell spacing h down to 0.01 h^2 in ``n_eps_stages`` steps.
    """

    p: float
    eps_schedule: Optional[tuple] = None
    n_eps_stages: int = 5
    tol: float = 1e-9
    max_newton: int = 200

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError(f"requires p > 1, got p={self.p}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.eps_schedule is not None:
            sched = tuple(float(e) for e in self.eps_schedule)
            if any(e <= 0 for e in sched) or \
                    any(nxt >= cur for cur, nxt in zip(sched, sched[1:])):
                raise ValueError(
                    f"eps schedule must be positive decreasing, got {sched}")
            object.__setattr__(self, "eps_schedule", sched)

    def schedule_for(self, h: float) -> tuple:
        if self.eps_schedule is not None:
            return self.eps_schedule
        return default_eps_schedule(h, self.n_eps_stages)


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
    """Assembly backend: regularized p-energy over one RectGrid."""

    def __init__(self, grid: RectGrid, nl: Nonlinearity, p: float,
                 boundary_values: np.ndarray):
        self.grid = grid
        self.nl = nl
        self.p = p
        self.tri = grid.triangles()
        self.b = grid.gradient_coefficients()
        self.area = grid.triangle_area()
        self.mass = grid.lumped_mass()
        self.free = grid.interior_mask()
        self.boundary_values = boundary_values
        self.free_idx = np.flatnonzero(self.free)
        # node -> free-dof renumbering for the reduced Hessian
        self._perm = np.full(grid.n_nodes, -1, dtype=np.int64)
        self._perm[self.free_idx] = np.arange(len(self.free_idx))
        # the two triangle classes have constant geometry each
        self._dots = np.einsum("tkd,tld->tkl", self.b, self.b)

    def with_boundary(self, u):
        out = np.array(u, dtype=float)
        out[~self.free] = self.boundary_values[~self.free]
        return out

    def _tri_gradients(self, u):
        return np.einsum("tk,tkd->td", u[self.tri], self.b)

    def _gradient_energy(self, u, eps):
        gu = self._tri_gradients(u)
        g2e = gu[:, 0] ** 2 + gu[:, 1] ** 2 + eps * eps
        return self.area * np.sum(
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
        gu = self._tri_gradients(u)
        g2e = gu[:, 0] ** 2 + gu[:, 1] ** 2 + eps * eps
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(g2e > 0.0, g2e ** (0.5 * self.p - 1.0), 0.0)
        w = self.area * sigma
        contrib = w[:, None] * np.einsum("td,tkd->tk", gu, self.b)
        n = self.grid.n_nodes
        g = np.bincount(self.tri.ravel(), weights=contrib.ravel(), minlength=n)
        fvals = self.mass * self.nl.f_extended(u)
        scale = np.bincount(self.tri.ravel(), weights=np.abs(contrib).ravel(),
                            minlength=n) + np.abs(fvals)
        return g + fvals, scale

    def newton_step(self, u, eps, grad):
        gu = self._tri_gradients(u)
        g2e = gu[:, 0] ** 2 + gu[:, 1] ** 2 + eps * eps
        sigma = g2e ** (0.5 * self.p - 1.0)
        tau = (self.p - 2.0) * g2e ** (0.5 * self.p - 2.0)
        gb = np.einsum("td,tkd->tk", gu, self.b)
        blocks = self.area * (sigma[:, None, None] * self._dots
                              + tau[:, None, None]
                              * gb[:, :, None] * gb[:, None, :])
        rows = self._perm[np.broadcast_to(self.tri[:, :, None],
                                          blocks.shape).ravel()]
        cols = self._perm[np.broadcast_to(self.tri[:, None, :],
                                          blocks.shape).ravel()]
        keep = (rows >= 0) & (cols >= 0)
        nfree = len(self.free_idx)
        H = sp.coo_matrix((blocks.ravel()[keep], (rows[keep], cols[keep])),
                          shape=(nfree, nfree)).tocsc()
        fp = self.mass[self.free_idx] * self.nl.f_prime(u[self.free_idx])
        H = H + sp.diags(fp)
        step = spla.spsolve(H, -grad[self.free_idx])
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError(
                "Hessian solve produced non-finite entries "
                f"(eps={eps:.3e}, p={self.p})")
        return step

    def laplace_fill(self, eps):
        """Linear (p=2, f=0) solve with the stored boundary data; used as
        the cold-start initial guess."""
        linear = _CylinderProblem(self.grid, Nonlinearity.zero(), 2.0,
                                  self.boundary_values)
        u0 = self.with_boundary(np.zeros(self.grid.n_nodes))
        g, _ = linear.gradient(u0, eps)
        u0[self.free] += linear.newton_step(u0, eps, g)
        return u0


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
    problem = _CylinderProblem(u.grid, nl, p, np.zeros(u.grid.n_nodes))
    return problem.full_energy(u.values, eps)


def energy_gradient(u: GridFunction, nl: Nonlinearity, p: float,
                    eps: float) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to nodal values.

    At interior nodes this is the regularized weak-form residual tested
    against the nodal hat function.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    problem = _CylinderProblem(u.grid, nl, p, np.zeros(u.grid.n_nodes))
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
    boundary_values = _boundary_array(grid, bdata)
    problem = _CylinderProblem(grid, nl, cfg.p, boundary_values)
    h = min(grid.hx, grid.hy)
    schedule = cfg.schedule_for(h)
    if initial is None:
        u0 = problem.laplace_fill(schedule[0])
    else:
        u0 = problem.with_boundary(initial)
    u, stages, info = minimize_newton(problem, u0, schedule, cfg.tol,
                                      cfg.max_newton)
    mode = boundary_mode or ("dirichlet(constant "
                             f"{bdata})" if not callable(bdata)
                             else "dirichlet(callable)")
    return SolveResult(
        solution=GridFunction(grid, u),
        config=cfg,
        nl=nl,
        boundary_mode=mode,
        stages=tuple(stages),
        energy=problem.full_energy(u, schedule[-1]),
        residual=info["residual"],
        diagnostics={"roundoff_floor": info["roundoff_floor"],
                     "stalled_at_floor": info["stalled"],
                     "eps_schedule": tuple(schedule)},
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
