"""Discrete Dirichlet solver for div(|grad u|^(p-2) grad u) = f(u).

The weak problem is the Euler-Lagrange equation of the strictly convex
energy

    E(u) = int ( (|grad u|^2 + eps^2)^(p/2) - eps^p ) / p  +  int F(u),

discretized with piecewise-linear elements on the structured triangulation
(gradient term exact per triangle, absorption term by lumped-node
quadrature).  The regularization eps tames the degenerate (p > 2) and
singular (p < 2) coefficient at critical points; a cold start from the
smallest boundary value runs a geometric continuation from the cell
size down to 0.01 h^2, warm-starting damped Newton at every stage, while
a solve warm-started from the solution of a nearby problem (the previous
boundary level of a blow-up sweep, or the cross-sectional reference
extended along the cylinder) runs only the last stage.  Each Newton
system is solved by banded Cholesky (LAPACK ``dpbtrf``) with the free
nodes numbered along the shorter side of the lattice, so its
half-bandwidth is ny - 1 whatever the cylinder length.  Since f is
nondecreasing, F is convex and the minimizer is unique, so the discrete
solution is deterministic given the grid.

Boundary blow-up is approximated by an increasing sweep of constant
Dirichlet levels M (the monotone-limit construction): every level is the
same energy on the same mesh with another constant on the boundary
nodes, so one problem per grid serves the whole sweep, which
:func:`plaplab.minimize.sweep_levels` runs on it.  Interior values are
nondecreasing in M by the comparison principle, and the sweep reports the
windowed change between consecutive stages as a stabilization residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solveh_banded

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
    final area-scaled gradient max norm; it is at most ``tol`` plus the
    roundoff floor, or four times that when the iteration stalled at the
    double-precision floor, which is then recorded in ``diagnostics``.
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
    level_newton_steps: tuple  # Newton steps of each M level


class _CylinderProblem:
    """Regularized p-energy of P1 elements on a uniform simplex mesh:
    ``cells`` (cells x nodes), gradient coefficients ``b`` (cells x nodes
    x dim, grad u|_T = sum_k u_k b_k), one cell ``measure``, the ``free``
    node mask and the cell size ``h`` that sets the eps ladder.  The
    fixed nodes take their values from ``boundary_values``, which a
    caller may reset between solves.  :meth:`on_grid` builds the cylinder
    problem.

    The Newton system is solved by banded Cholesky with the free dofs in
    the node order ``band_order`` (default: the natural order), which
    should keep the half-bandwidth ``kd`` of the Hessian small."""

    def __init__(self, cells, b, measure, free, nl: Nonlinearity, p: float,
                 boundary_values: np.ndarray, h: float, band_order=None):
        self.nl = nl
        self.p = p
        self.h = h
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
        self._dots = np.einsum("tkd,tld->tkl", b, b)
        self._abs_b = np.abs(b)
        self._band_layout(cells, free, band_order)

    def _band_layout(self, cells, free, band_order):
        """Scatter map from the per-cell Hessian blocks into LAPACK lower
        band storage, ``ab[row - col, col] = H[row, col]`` for row >= col
        with rows and columns in band order, laid out column by column
        (Fortran order) so that LAPACK factors it without a copy."""
        order = np.arange(len(free)) if band_order is None \
            else np.asarray(band_order)
        band_nodes = order[free[order]]
        nfree = len(band_nodes)
        pos = np.full(len(free), -1, dtype=np.int64)
        pos[band_nodes] = np.arange(nfree)
        # block entry (t, k, l) is H[row, col] with row, col the band
        # positions of nodes k, l of cell t (-1 at a fixed node)
        at = pos[cells]
        col = at[:, None, :]
        slots = at[:, :, None] - col
        keep = (col >= 0) & (slots >= 0)
        self.kd = int(np.max(slots, where=keep, initial=0))
        slots += col * (self.kd + 1)
        # the entries not stored (above the diagonal, or at a fixed node)
        # go to one spare slot past the end
        slots[~keep] = (self.kd + 1) * nfree
        self._band_slots = slots.ravel()
        # free_idx position of each band dof, and back
        self._to_band = np.searchsorted(self.free_idx, band_nodes)
        self._from_band = np.argsort(self._to_band)

    @classmethod
    def on_grid(cls, grid: RectGrid, nl: Nonlinearity, p: float,
                boundary_values: np.ndarray) -> "_CylinderProblem":
        # number the nodes along the shorter lattice side first: the
        # half-bandwidth is min(nx, ny) - 1, so ny - 1 on a cylinder of any
        # length (column by column); a taller lattice keeps its row order
        band_order = None if grid.nx < grid.ny else \
            np.arange(grid.n_nodes).reshape(grid.ny, grid.nx).T.ravel()
        return cls(grid.triangles(), grid.gradient_coefficients(),
                   grid.triangle_area(), grid.interior_mask(), nl, p,
                   boundary_values, min(grid.hx, grid.hy), band_order)

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
        # roundoff scale of each entry: its summands, with every cell
        # gradient bounded by sum_k |u_k| |b_k|, since that sum cancels
        # where u is large and nearly flat
        gabs = np.einsum("tk,tkd->td", np.abs(u[self.cells]), self._abs_b)
        cabs = w[:, None] * np.einsum("td,tkd->tk", gabs, self._abs_b)
        scale = np.bincount(nodes, weights=cabs.ravel(),
                            minlength=n) + np.abs(fvals)
        return g + fvals, scale

    def _hessian_blocks(self, u, eps):
        """Per-cell Hessian blocks of the gradient term (cells x nodes x
        nodes).  A function of its own so that the per-cell temporaries
        are freed before the band is allocated, which keeps them out of
        the peak memory of a Newton step."""
        gu, g2e = self._cell_gradients(u, eps)
        sigma = g2e ** (0.5 * self.p - 1.0)
        tau = (self.p - 2.0) * g2e ** (0.5 * self.p - 2.0)
        gb = np.einsum("td,tkd->tk", gu, self.b)
        return self.measure * (sigma[:, None, None] * self._dots
                               + tau[:, None, None]
                               * gb[:, :, None] * gb[:, None, :])

    def newton_step(self, u, eps, grad):
        fp = self.mass[self.free_idx] * self.nl.f_prime(u[self.free_idx])
        try:
            step = self._solve(self._hessian_blocks(u, eps), fp,
                               -grad[self.free_idx])
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"Hessian is not positive definite (eps={eps:.3e}, "
                f"p={self.p}): {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError(
                "Hessian solve produced non-finite entries "
                f"(eps={eps:.3e}, p={self.p})")
        return step

    def _solve(self, blocks, fp, rhs):
        """Solve (H + diag(fp)) x = rhs over the free dofs (``free_idx``
        order), H assembled from the per-cell Hessian ``blocks``, by banded
        Cholesky; raises ``LinAlgError`` unless the matrix is positive
        definite."""
        nfree = len(rhs)
        ab = np.bincount(self._band_slots, weights=blocks.ravel(),
                         minlength=(self.kd + 1) * nfree + 1)
        ab = ab[:-1].reshape(nfree, self.kd + 1).T
        ab[0] += fp[self._to_band]
        x = solveh_banded(ab, rhs[self._to_band], overwrite_ab=True,
                          overwrite_b=True, lower=True, check_finite=False)
        return x[self._from_band]

    def minimize(self, tol, max_newton, initial=None):
        """Damped Newton down the eps ladder of the cell size ``h`` from
        the smallest fixed value at every free node (for constant data,
        its discrete harmonic extension), or only at its last eps from
        ``initial`` (its fixed entries overwritten); returns ``(u, stages,
        info)`` of :func:`plaplab.minimize.minimize_newton`."""
        schedule = default_eps_schedule(self.h)
        if initial is None:
            initial = np.full(len(self.free),
                              np.min(self.boundary_values[~self.free]))
        else:
            schedule = schedule[-1:]
        return minimize_newton(self, self.with_boundary(initial), schedule,
                               tol, max_newton)


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


def _solve_result(grid: RectGrid, problem: _CylinderProblem,
                  cfg: SolverConfig, mode: str, level) -> SolveResult:
    """The :class:`SolveResult` of one ``(u, stages, info)`` solve of
    ``problem`` on ``grid``."""
    u, stages, info = level
    return SolveResult(
        solution=GridFunction(grid, u),
        config=cfg,
        nl=problem.nl,
        boundary_mode=mode,
        stages=tuple(stages),
        energy=problem.full_energy(u, stages[-1].eps),
        residual=info["residual"],
        diagnostics={"roundoff_floor": info["roundoff_floor"],
                     "stalled_at_floor": info["stalled"],
                     "eps_schedule": tuple(s.eps for s in stages)},
    )


def solve_dirichlet(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig,
                    bdata,
                    initial: Optional[np.ndarray] = None) -> SolveResult:
    """Minimize the discrete energy with the boundary nodes fixed.

    ``bdata`` is a constant or a callable ``(X, Y) -> values`` evaluated
    at the node coordinates.  ``initial``, the nodal values of a solution
    of a nearby problem (its boundary entries are overwritten), warm-starts
    Newton at the last eps of the ladder only; the default cold start
    sets every interior node to the smallest boundary value and runs the
    whole ladder.  Each call builds its own problem on ``grid``; the levels of
    an M sweep share one (:func:`solve_blowup`).
    """
    problem = _CylinderProblem.on_grid(grid, nl, cfg.p,
                                       _boundary_array(grid, bdata))
    mode = "dirichlet(callable)" if callable(bdata) else \
        f"dirichlet(constant {bdata})"
    return _solve_result(grid, problem, cfg, mode,
                         problem.minimize(cfg.tol, cfg.max_newton, initial))


def solve_blowup(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig, M_list,
                 window: Optional[Window] = None,
                 initial: Optional[np.ndarray] = None):
    """Increasing sweep of constant boundary levels approximating blow-up.

    One problem on ``grid`` serves every level:
    :func:`plaplab.minimize.sweep_levels` sets each level M on its
    boundary nodes and solves, ``initial`` warm-starting the first level
    (default: a cold start) and each later level starting from the
    previous one.  Returns the list of per-level results and a
    :class:`BlowupReport` whose changes are measured on the window (all
    interior nodes without one).
    """
    problem = _CylinderProblem.on_grid(grid, nl, cfg.p,
                                       np.zeros(grid.n_nodes))
    watch = problem.free if window is None else \
        window_node_mask(grid, window) & problem.free
    m_values, levels, changes, margin = sweep_levels(
        problem, M_list, cfg.tol, cfg.max_newton, watch, initial)
    results = [_solve_result(grid, problem, cfg, f"blowup(M={M:g})", level)
               for M, level in zip(m_values, levels)]
    report = BlowupReport(m_values=m_values,
                          stage_max_change=tuple(changes),
                          monotone_margin=margin,
                          window=window,
                          level_newton_steps=tuple(
                              sum(s.iterations for s in stages)
                              for _, stages, _ in levels))
    return results, report
