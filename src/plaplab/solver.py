"""Discrete Dirichlet solver for div(|grad u|^(p-2) grad u) = f(u).

The weak problem is the Euler-Lagrange equation of the strictly convex
energy

    E(u) = int ( (|grad u|^2 + eps^2)^(p/2) - eps^p ) / p  +  int F(u),

discretized with piecewise-linear elements on the structured triangulation
(gradient term exact per triangle, absorption term by lumped-node
quadrature).  The regularization eps tames the degenerate (p > 2) and
singular (p < 2) coefficient at critical points; a cold start from the
smallest boundary value runs a geometric continuation from the cell
size down to 0.01 h^2, warm-starting damped Newton at every stage and
stopping each stage before the last at the looser residual bound
max(tol, eps), while a solve warm-started from the solution of a nearby
problem (the previous boundary level of a blow-up sweep, or the
cross-sectional reference as a profile of the distance to the boundary)
runs only the last stage.  Each Newton
system is factored by banded Cholesky (LAPACK ``dpbtrf``) with the free
nodes numbered along the shorter side of the lattice, so its
half-bandwidth is ny - 1 whatever the cylinder length.  Since f is
nondecreasing, F is convex and the minimizer is unique, so the discrete
solution is deterministic given the grid.  One :class:`SolverConfig`
(p, tol, max_newton) is all the settings of a solve, of the cylinder's
and of the cross-section's (:mod:`plaplab.ode1d`) alike.

Every cell of a mesh has one shape.  On the lattice each upper
triangle (n00, n11, n01) is the lower one (n00, n10, n11) turned by a
half-turn about the cell centre: read with the nodes (n11, n01, n00) its
gradient coefficients are the lower triangle's negated, which flips the
sign of grad u and leaves |grad u|^2, every b_k . b_l and every |b_k|
unchanged.  The per-cell data are stored slot-major, the cells along the
last, contiguous axis: node ids (nodes x cells), and the one shape's
gradient coefficients (dim x nodes x 1) broadcast over the cells, so
every kernel sums over the short node and dim axes one contiguous row at
a time.  The Hessian is computed only at the node pairs k <= l of each
cell, the entries a symmetric band stores (6 per triangle, not 9); each
pair has one precomputed slot in the lower band, and one ``np.bincount``
per Newton step scatters them.  Each cell quantity of a Newton iterate
is computed once: the objective of the accepted line-search trial hands
its cell gradients to the gradient at that iterate, and the gradient
hands them with its cell weights to the Hessian of the Newton step.

Boundary blow-up is approximated by an increasing sweep of constant
Dirichlet levels M (the monotone-limit construction): every level is the
same energy on the same mesh with another constant on the boundary
nodes, so one problem per grid serves the whole sweep, which
:func:`plaplab.minimize.sweep_levels` runs on it.  :func:`solve_blowup`
refuses a nonlinearity failing the Keller-Osserman condition (A1)
(:func:`plaplab.nonlinearity.require_a1`) before it builds the problem;
the sweep itself does not look at f.  Each later level
starts from the Euler predictor of the level below: the problem keeps
the Cholesky factor of its most recent Newton step (dropped before the
next step's band is assembled, so two bands are never alive at once),
and ``tangent`` turns the factor of a level's last step into du/dM by
one back-substitution, since the gradient term's Hessian annihilates
constants.  Interior values are nondecreasing in M by the comparison
principle; the sweep's report, the same for both meshes, records each
level's Newton steps and the windowed change between consecutive levels
as a stabilization residual.  :func:`solve_levels` solves any increasing
constant levels on one grid the same way, without the (A1) refusal and
the sweep's monotonicity abort.

A solve whose boundary data the half-turn (x, y) -> (-x, y0 + y1 - y)
leaves unchanged runs on half the mesh (:meth:`_CylinderProblem.on_half_mesh`):
every constant level, so every sweep and every :func:`solve_levels`, and
every :func:`solve_dirichlet` with ``bvals == bvals[::-1]``.  The half-turn
maps node n to N - 1 - n and each lower triangle onto an upper one, so
the unique minimizer is symmetric, and the energy of a symmetric field is
twice that of the lower triangles with each node read as its dof
min(n, N - 1 - n).  Newton then takes the whole mesh's iterates on half
the dofs, with the band no wider; a cell pair k < l whose nodes fold onto
one dof (where the rectangle's centre is not a node) adds 2 H_kl to that
diagonal entry.  Solutions are lifted back onto the whole mesh, and the
reported energy is twice the half's.  :func:`energy` and
:func:`energy_gradient` take any field and keep the whole mesh.  The
bands are factored on one OpenBLAS thread unless the caller chose
otherwise (see :mod:`plaplab`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .grid import (GridFunction, RectGrid, Window, require_window_inside,
                   window_node_mask)
from .minimize import (BlowupReport, NonConvergenceError,
                       default_eps_schedule, increasing_levels,
                       minimize_newton, sweep_levels, warm_levels)
from .nonlinearity import Nonlinearity, require_a1

__all__ = [
    "SolverConfig",
    "SolveResult",
    "BlowupReport",
    "NonConvergenceError",
    "energy",
    "energy_gradient",
    "solve_dirichlet",
    "solve_levels",
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
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"requires a finite p > 1, got p={self.p}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(
                f"tol must be positive and finite, got {self.tol}")
        # a NaN budget would never be reached: Newton would run unbounded
        if not (self.max_newton >= 1 and math.isfinite(self.max_newton)):
            raise ValueError(f"max_newton must be at least 1 and finite, "
                             f"got {self.max_newton}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Converged discrete solution.

    Boundary nodes carry the prescribed data exactly.  ``residual`` is the
    final area-scaled gradient max norm over the free nodes and
    ``roundoff_floor`` the largest roundoff floor among them.  A solve
    returns only once the residual at every free node is within ``tol``
    plus that node's floor, so ``residual <= tol + roundoff_floor``; one
    that cannot get there raises
    :class:`plaplab.minimize.NonConvergenceError`.
    """

    solution: GridFunction
    config: SolverConfig
    nl: Nonlinearity
    boundary_mode: str
    stages: tuple
    energy: float
    residual: float
    roundoff_floor: float

    @property
    def tol(self) -> float:
        return self.config.tol

    @property
    def p(self) -> float:
        return self.config.p

    @property
    def newton_steps(self) -> int:
        return sum(s.iterations for s in self.stages)

    @property
    def backtracks(self) -> int:
        return sum(s.backtracks for s in self.stages)


def _contract(x, coef):
    """``sum_i x[i] * coef[i]`` over the short leading axis of ``x``, whose
    rows run over the cells (as do the last axes of ``coef``, or broadcast
    from length 1 over them): one multiply-add of contiguous rows per
    term, where a numpy reduction or an ``einsum`` over a short last axis
    of cells-first arrays is several times slower."""
    out = x[0] * coef[0]
    for xi, ci in zip(x[1:], coef[1:]):
        out += xi * ci
    return out


class _CylinderProblem:
    """Regularized p-energy of P1 elements on a mesh of cells of one
    shape: ``cells`` (cells x nodes), the gradient coefficients ``shape``
    (nodes x dim, grad u|_T = sum_k u_k b_k) that every cell's nodes take
    in that order, one cell ``measure``, the ``free`` node mask, the
    :class:`SolverConfig` ``cfg`` of every solve on it and the cell size
    ``h`` that sets the eps ladder.  The fixed nodes take their values
    from ``boundary_values``, which a caller may reset between solves.
    :meth:`on_grid` builds the cylinder problem.

    The mesh is kept slot-major: the node ids ``nodes`` (nodes x cells),
    and with a cell axis of length 1, broadcast over the cells, the
    gradient coefficients ``b`` and their absolute values (dim x nodes x
    1) and the products b_k . b_l of the node pairs k <= l in ``_pairs``
    (pairs x 1).  A lattice's upper triangles enter with their nodes
    turned by a half-turn (see :meth:`on_grid`), so the one shape serves
    both kinds.

    The Newton system is solved by banded Cholesky with the free dofs in
    the node order ``band_order`` (default: the natural order), which
    should keep the half-bandwidth ``kd`` of the Hessian small.

    ``lift`` gives the dof of every node of the grid when the problem is
    the half mesh of :meth:`on_half_mesh`, whose energy is then half the
    grid's (``copies`` = 2); by default each node is its own dof."""

    def __init__(self, cells, shape, measure, free, nl: Nonlinearity, cfg,
                 boundary_values: np.ndarray, h: float, band_order=None,
                 lift=None):
        self.nl = nl
        self.cfg = cfg
        self.h = h
        self.measure = measure
        self.nodes = np.ascontiguousarray(np.transpose(cells))
        # the one cell shape, its cell axis of length 1 broadcast over
        # the cells by every kernel
        self.b = np.transpose(shape)[:, :, None].copy()
        self._abs_b = np.abs(self.b)
        self._pairs = np.triu_indices(len(self.nodes))
        self._pair_dots = np.array([_contract(self.b[:, k], self.b[:, l])
                                    for k, l in zip(*self._pairs)])
        n = len(free)
        # each cell spreads its measure evenly over its nodes
        self.mass = np.bincount(self.nodes.ravel(), minlength=n) * (
            measure / len(self.nodes))
        self.free = free
        self.boundary_values = boundary_values
        self.free_idx = np.flatnonzero(free)
        self._band_layout(free, band_order)
        # Cholesky band of the current solve's most recent Newton step
        self._factor = None
        # cell quantities of one iterate, handed from one kernel to the
        # next (see _hand_on)
        self._handoff = None
        # the dof of every node of the whole mesh, and how many copies of
        # this problem's energy the whole mesh's is
        self.lift = np.arange(n) if lift is None else lift
        self.copies = 1 if lift is None else 2

    def _band_layout(self, free, band_order):
        """Scatter map from the per-cell node-pair Hessian entries into
        LAPACK lower band storage, ``ab[row - col, col] = H[row, col]`` for
        row >= col with rows and columns in band order, laid out column by
        column (Fortran order) so that LAPACK factors it without a copy.
        Each pair k <= l of a cell has one slot, oriented once into the
        lower triangle."""
        order = np.arange(len(free)) if band_order is None \
            else np.asarray(band_order)
        band_nodes = order[free[order]]
        nfree = len(band_nodes)
        pos = np.full(len(free), -1, dtype=np.int64)
        pos[band_nodes] = np.arange(nfree)
        # the band position of every node of every cell (-1 at a fixed
        # node); a pair's slot lies in the column of its lower position,
        # as far down as the two positions are apart
        at = pos[self.nodes]
        col = np.array([np.minimum(at[k], at[l]) for k, l in
                        zip(*self._pairs)])
        slots = np.array([np.abs(at[k] - at[l]) for k, l in
                          zip(*self._pairs)])
        keep = col >= 0
        self.kd = int(np.max(slots, where=keep, initial=0))
        # a pair k < l of one cell whose nodes share a dof (on a folded
        # mesh) adds H_kl + H_lk = 2 H_kl to that diagonal entry
        twice = keep & (slots == 0)
        twice[self._pairs[0] == self._pairs[1]] = False
        col *= self.kd + 1
        slots += col
        # the pairs at a fixed node go to one spare slot past the end
        slots[~keep] = (self.kd + 1) * nfree
        self._band_slots = slots.ravel()
        self._twice = np.flatnonzero(twice.ravel())
        # free_idx position of each band dof, and back
        self._to_band = np.searchsorted(self.free_idx, band_nodes)
        self._from_band = np.argsort(self._to_band)

    @classmethod
    def on_grid(cls, grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig,
                boundary_values: np.ndarray) -> "_CylinderProblem":
        # number the nodes along the shorter lattice side first: the
        # half-bandwidth is min(nx, ny) - 1, so ny - 1 on a cylinder of any
        # length (column by column); a taller lattice keeps its row order
        band_order = None if grid.nx < grid.ny else \
            np.arange(grid.n_nodes).reshape(grid.ny, grid.nx).T.ravel()
        # each upper triangle (n00, n11, n01) enters as the half-turned
        # lower shape, with the nodes (n11, n01, n00)
        cells = grid.triangles()
        upper = cells[grid.n_triangles // 2:]
        upper[:] = upper[:, [1, 2, 0]]
        return cls(cells, grid.lower_shape(), grid.triangle_area(),
                   grid.interior_mask(), nl, cfg, boundary_values,
                   min(grid.hx, grid.hy), band_order)

    @classmethod
    def on_half_mesh(cls, grid: RectGrid, nl: Nonlinearity,
                     cfg: SolverConfig,
                     boundary_values: np.ndarray) -> "_CylinderProblem":
        """The cylinder problem restricted to the fields that the half-turn
        (x, y) -> (-x, y0 + y1 - y) leaves unchanged, for ``boundary_values``
        that it leaves unchanged.

        The half-turn maps node n to N - 1 - n and every lower triangle
        onto an upper one, so the energy of such a field is twice that of
        the lower triangles alone with each node n read as its dof
        min(n, N - 1 - n): the nodes 0 .. (N - 1) // 2 keep their ids, and
        ``lift`` reads a dof vector back onto the whole mesh.  The band
        order numbers the lines across the shorter lattice side up to the
        middle one, each line whole, read through the fold (the half-turn
        maps line i onto its mirror, so these lines hold every dof): the
        half-bandwidth is that of the whole mesh, min(nx, ny) - 1, at half
        the dofs."""
        n = grid.n_nodes
        lift = np.minimum(np.arange(n), np.arange(n)[::-1])
        lines = np.arange(n).reshape(grid.ny, grid.nx)
        if grid.nx >= grid.ny:
            lines = lines.T
        # only the middle line of an odd count meets its own dofs twice
        order = lift[lines[:(len(lines) + 1) // 2].ravel()]
        _, first = np.unique(order, return_index=True)
        kept = (n + 1) // 2
        return cls(lift[grid.lower_triangles()], grid.lower_shape(),
                   grid.triangle_area(), grid.interior_mask()[:kept], nl, cfg,
                   boundary_values[:kept].copy(), min(grid.hx, grid.hy),
                   order[np.sort(first)], lift)

    def with_boundary(self, u):
        out = np.array(u, dtype=float)
        out[~self.free] = self.boundary_values[~self.free]
        return out

    def _cell_pass(self, u):
        """The values of ``u`` at the nodes of every cell (nodes x cells),
        the cell gradients (dim x cells) and their squares |grad u|^2."""
        ug = u[self.nodes]
        gu = _contract(ug, self.b.transpose(1, 0, 2))
        return ug, gu, _contract(gu, gu)

    def _hand_on(self, to, u, eps, cells):
        """Keep the cell quantities ``cells`` of the iterate ``u`` (and
        ``eps``) for the next call of the kernel ``to`` at it.  The one
        slot holds one hand-off, the last made."""
        self._handoff = (to, u.copy(), eps, cells)

    def _take(self, to, u, eps):
        """The cell quantities handed on to the kernel ``to`` at an
        iterate equal to ``u`` and at ``eps``, else None.  The slot is
        emptied either way, so a hand-off serves at most once."""
        handoff, self._handoff = self._handoff, None
        if handoff is not None and handoff[0] == to and handoff[2] == eps \
                and np.array_equal(handoff[1], u):
            return handoff[3]
        return None

    def _cell_weights(self, g2e):
        """measure |grad u|_eps^(p - 2) per cell, from the regularized
        squares ``g2e`` (0 on a cell where they are 0, as at eps = 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(g2e > 0.0, g2e ** (0.5 * self.cfg.p - 1.0), 0.0)
        w *= self.measure
        return w

    def _gradient_energy(self, g2, eps):
        # (|grad u|^2 + eps^2)^(p/2) - eps^p per cell, written without the
        # difference: where the gradient is far below eps, the difference
        # is roundoff of eps^p, which buries the energy decrease of a
        # Newton step and lets the line search take steps that do nothing
        p = self.cfg.p
        eps2 = eps * eps
        if eps2 == 0.0:
            terms = g2 ** (0.5 * p)
        else:
            terms = (g2 + eps2) ** (0.5 * p) * -np.expm1(
                -0.5 * p * np.log1p(g2 / eps2))
        return self.measure * np.sum(terms) / p

    def full_energy(self, u, eps):
        """Spec energy: gradient term plus lumped F over all nodes."""
        return float(self._gradient_energy(self._cell_pass(u)[2], eps)
                     + np.sum(self.mass * self.nl.F_extended(u)))

    def objective(self, u, eps):
        """Line-search objective: F contributions of fixed nodes removed.

        They are constant along the iteration but can dominate the energy
        by many orders of magnitude under blow-up boundary data, drowning
        the Armijo comparison in roundoff.  The cell pass is handed on to
        the gradient at ``u`` at any eps: an accepted line-search trial is
        the next iterate.
        """
        cells = self._cell_pass(u)
        self._hand_on("gradient", u, None, cells)
        f_term = np.sum(self.mass[self.free]
                        * self.nl.F_extended(u[self.free]))
        return float(self._gradient_energy(cells[2], eps) + f_term)

    def gradient(self, u, eps):
        """The energy gradient at ``u`` and the roundoff scale of each
        entry.  Its cell gradients and weights are handed on to the
        Hessian of the Newton step at ``u`` and ``eps``."""
        # the factor of the last Newton step stays alive through this call,
        # so the per-cell temporaries are few: each node term is scaled in
        # place and freed once scattered
        cells = self._take("gradient", u, None)
        ug, gu, g2e = self._cell_pass(u) if cells is None else cells
        g2e += eps * eps
        w = self._cell_weights(g2e)
        g = self._scatter(_contract(gu, self.b), w)
        # roundoff scale of each entry: its summands, with every cell
        # gradient bounded by sum_k |u_k| |b_k|, since that sum cancels
        # where u is large and nearly flat
        gabs = _contract(np.abs(ug), self._abs_b.transpose(1, 0, 2))
        del ug
        scale = self._scatter(_contract(gabs, self._abs_b), w)
        self._hand_on("hessian", u, eps, (gu, g2e, w))
        fvals = self.mass * self.nl.f_extended(u)
        scale += np.abs(fvals)
        g += fvals
        return g, scale

    def _scatter(self, terms, w):
        """The node sums of the per-cell node ``terms`` (nodes x cells)
        weighted by the cell weights ``w``, which scale ``terms`` in
        place."""
        terms *= w
        return np.bincount(self.nodes.ravel(), weights=terms.ravel(),
                           minlength=len(self.free))

    def _hessian_blocks(self, u, eps):
        """Hessian entries of the gradient term at every node pair k <= l
        of every cell (pairs x cells, pairs in ``_pairs`` order), from the
        cell quantities the gradient at ``u`` and ``eps`` handed on, or
        afresh.  A function of its own so that the per-cell temporaries,
        the hand-off's included, are freed before the band is allocated,
        which keeps them out of the peak memory of a Newton step."""
        cells = self._take("hessian", u, eps)
        if cells is None:
            _, gu, g2e = self._cell_pass(u)
            g2e += eps * eps
            w = self._cell_weights(g2e)
        else:
            gu, g2e, w = cells
        # measure * (p - 2) |g|_eps^(p - 4): the rank-one weight along
        # grad u, from the pow already taken
        wt = (self.cfg.p - 2.0) * w / g2e
        gb = _contract(gu, self.b)
        wgb = wt * gb
        blocks = w * self._pair_dots
        for block, k, l in zip(blocks, *self._pairs):
            block += wgb[k] * gb[l]
        return blocks

    def newton_step(self, u, eps, grad):
        # the previous step's factor goes before this step's band is built:
        # two bands are never alive at once
        self._factor = None
        fp = self.mass[self.free_idx] * self.nl.f_prime(u[self.free_idx])
        try:
            step = self._solve(self._hessian_blocks(u, eps), fp,
                               -grad[self.free_idx])
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"Hessian is not positive definite (eps={eps:.3e}, "
                f"p={self.cfg.p}): {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError(
                "Hessian solve produced non-finite entries "
                f"(eps={eps:.3e}, p={self.cfg.p})")
        return step

    def _solve(self, blocks, fp, rhs):
        """Solve (H + diag(fp)) x = rhs over the free dofs (``free_idx``
        order), H assembled from the node-pair Hessian ``blocks`` of
        :meth:`_hessian_blocks`, by banded Cholesky (LAPACK ``dpbtrf``, a
        segment's tridiagonal band included), and keep the factor for
        :meth:`tangent`; raises ``LinAlgError`` unless the matrix is
        positive definite."""
        nfree = len(rhs)
        ab = np.bincount(self._band_slots, weights=blocks.ravel(),
                         minlength=(self.kd + 1) * nfree + 1)
        np.add.at(ab, self._band_slots[self._twice],
                  blocks.ravel()[self._twice])
        ab = ab[:-1].reshape(nfree, self.kd + 1).T
        ab[0] += fp[self._to_band]
        self._factor = cholesky_banded(ab, overwrite_ab=True, lower=True,
                                       check_finite=False)
        return self._back_substitute(rhs)

    def _back_substitute(self, rhs):
        """Solve with the kept factor over the free dofs (``free_idx``
        order)."""
        x = cho_solve_banded((self._factor, True), rhs[self._to_band],
                             overwrite_b=True, check_finite=False)
        return x[self._from_band]

    def tangent(self, u):
        """du/dM at the solution ``u`` of a constant level M, from the
        factor of the solve's last Newton step, which it releases; None
        when the solve took no Newton step.

        The gradient term's Hessian H annihilates constants (the P1
        gradient coefficients of a cell sum to zero), so differentiating
        the free equations in M gives w = 1 on the fixed nodes and
        w = 1 - (H + D)^-1 D 1 on the free ones, D = diag(mass f'(u)); the
        factor is that of the last Newton iterate rather than of ``u``,
        which costs the predictor one back-substitution."""
        if self._factor is None:
            return None
        d = self.mass[self.free_idx] * self.nl.f_prime(u[self.free_idx])
        w = np.ones(len(self.free))
        w[self.free_idx] -= self._back_substitute(d)
        self._factor = None
        return w

    def minimize(self, initial=None):
        """Damped Newton to ``cfg.tol`` within ``cfg.max_newton`` steps a
        stage, down the eps ladder of the cell size ``h`` from the
        smallest fixed value at every free node (for constant data, its
        discrete harmonic extension), or only at its last eps from
        ``initial`` (its fixed entries overwritten); returns ``(u, stages,
        info)`` of :func:`plaplab.minimize.minimize_newton`."""
        self._factor = None  # a solve in 0 steps leaves no factor
        schedule = default_eps_schedule(self.h)
        if initial is None:
            initial = np.full(len(self.free),
                              np.min(self.boundary_values[~self.free]))
        else:
            schedule = schedule[-1:]
        return minimize_newton(self, self.with_boundary(initial), schedule,
                               self.cfg.tol, self.cfg.max_newton)


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
    problem = _CylinderProblem.on_grid(u.grid, nl, SolverConfig(p=p),
                                       np.zeros(u.grid.n_nodes))
    return problem.full_energy(u.values, eps)


def energy_gradient(u: GridFunction, nl: Nonlinearity, p: float,
                    eps: float) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to nodal values.

    At interior nodes this is the regularized weak-form residual tested
    against the nodal hat function.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    problem = _CylinderProblem.on_grid(u.grid, nl, SolverConfig(p=p),
                                       np.zeros(u.grid.n_nodes))
    g, _ = problem.gradient(u.values, eps)
    return g


def _solve_result(grid: RectGrid, problem: _CylinderProblem, mode: str,
                  level) -> SolveResult:
    """The :class:`SolveResult` of one ``(u, stages, info)`` solve of
    ``problem`` on ``grid``."""
    u, stages, info = level
    return SolveResult(
        solution=GridFunction(grid, u[problem.lift]),
        config=problem.cfg,
        nl=problem.nl,
        boundary_mode=mode,
        stages=tuple(stages),
        energy=problem.copies * problem.full_energy(u, stages[-1].eps),
        residual=info["residual"],
        roundoff_floor=info["roundoff_floor"],
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
    whole ladder.  Each call builds its own problem on ``grid``, on the
    half mesh when the half-turn leaves the boundary values unchanged
    (``initial`` is then read on the kept nodes); a sequence of constant
    levels on one grid shares one (:func:`solve_levels`,
    :func:`solve_blowup`).
    """
    bvals = _boundary_array(grid, bdata)
    if np.array_equal(bvals, bvals[::-1]):
        problem = _CylinderProblem.on_half_mesh(grid, nl, cfg, bvals)
    else:
        problem = _CylinderProblem.on_grid(grid, nl, cfg, bvals)
    mode = "dirichlet(callable)" if callable(bdata) else \
        f"dirichlet(constant {bdata})"
    if initial is not None:
        initial = initial[:len(problem.free)]
    return _solve_result(grid, problem, mode, problem.minimize(initial))


def solve_levels(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig,
                 levels) -> tuple:
    """Solve the Dirichlet problem for each of the strictly increasing
    constant boundary ``levels`` on one problem on ``grid``.

    The lowest level starts cold and each later level from the Euler
    predictor of the level below (:func:`plaplab.minimize.warm_levels`),
    so it runs only the last eps stage; every solution matches a
    :func:`solve_dirichlet` at its level to within the solver tolerance.
    Unlike :func:`solve_blowup` this neither refuses a nonlinearity
    failing (A1) nor checks that the solutions increase, which is left to
    the caller.  Constant data are symmetric under the half-turn, so the
    problem is the half mesh's.  Returns one :class:`SolveResult` per
    level.
    """
    levels = increasing_levels(levels)
    problem = _CylinderProblem.on_half_mesh(grid, nl, cfg,
                                            np.zeros(grid.n_nodes))
    return tuple(
        _solve_result(grid, problem, f"dirichlet(constant {g})", level)
        for g, level in zip(levels, warm_levels(problem, levels)))


def solve_blowup(grid: RectGrid, nl: Nonlinearity, cfg: SolverConfig, M_list,
                 window: Optional[Window] = None,
                 initial: Optional[np.ndarray] = None):
    """Increasing sweep of constant boundary levels approximating blow-up.

    One problem on the half mesh of ``grid`` serves every level:
    :func:`plaplab.minimize.sweep_levels` sets each level M on its
    boundary nodes and solves, ``initial`` (read on the kept nodes)
    warm-starting the first level (default: a cold start) and each later
    level starting from the Euler predictor of the previous one.  Returns
    the list of per-level results and the sweep's
    :class:`~plaplab.minimize.BlowupReport`, whose changes are measured on
    the window, a node or its image in it (all interior nodes without one).
    The window must lie one cell inside ``grid``, and ``nl`` must satisfy
    the Keller-Osserman condition (A1) at ``cfg.p``
    (:func:`plaplab.nonlinearity.require_a1`); both are checked before the
    problem is built.
    """
    if window is not None:
        require_window_inside(grid, window)
    require_a1(nl, cfg.p)
    problem = _CylinderProblem.on_half_mesh(grid, nl, cfg,
                                            np.zeros(grid.n_nodes))
    kept = len(problem.free)
    if window is None:
        watch = problem.free
    else:
        # a node is watched when it or its image lies in the window
        watch = window_node_mask(grid, window)
        watch = (watch | watch[::-1])[:kept] & problem.free
    if initial is not None:
        initial = initial[:kept]
    levels, report = sweep_levels(problem, M_list, watch, initial)
    results = [_solve_result(grid, problem, f"blowup(M={M:g})", level)
               for M, level in zip(report.m_values, levels)]
    return results, report
