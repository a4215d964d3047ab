"""Damped Newton minimization with epsilon continuation.

The cylinder and cross-sectional solves minimize one regularized convex
P1 energy (on a triangle or a segment mesh): the singular/degenerate
coefficient ``|grad u|^(p-2)`` is replaced by
``(|grad u|^2 + eps^2)^((p-2)/2)``.  A cold start drives ``eps`` down a
geometric schedule, warm-starting each stage; a warm start from the
solution of a nearby problem runs only the schedule's last stage, since
it already lies in the basin the ladder exists to reach.
Within a stage, damped Newton with Armijo backtracking is globally
convergent because the energy is strictly convex for eps > 0.

The levels of a blow-up sweep differ only in the constant on the fixed
nodes, so :func:`sweep_levels` runs them all on one problem.

The stopping test is an absolute bound on the lumped-mass-scaled gradient
plus a roundoff allowance proportional to the magnitude of the assembled
terms: near boundary blow-up data the gradient entries cancel between
contributions many orders of magnitude larger than the solver tolerance,
and on a fine mesh the cell gradients cancel between nodal values much
larger than their differences, so a purely absolute test would be
unattainable in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonlinearity import check_a1

_EPS_MACH = np.finfo(float).eps
_ROUNDOFF_FACTOR = 64.0
_BACKTRACK = 0.5
_SUFFICIENT_DECREASE = 1e-4
# a Newton step below resolution ends the stage only if the residual is
# within this multiple of tol plus the roundoff floor
_STALL_FACTOR = 4.0


class NonConvergenceError(RuntimeError):
    """Newton failed to reach the tolerance; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class StageTrace:
    """Per-continuation-stage convergence record."""
    eps: float
    iterations: int
    residual: float
    objective: float


def default_eps_schedule(h: float) -> tuple:
    """Geometric continuation in five stages from the cell size down to
    0.01 h^2."""
    return tuple(np.geomspace(h, 0.01 * h * h, 5))


def minimize_newton(problem, u0, eps_schedule, tol, max_newton):
    """Minimize ``problem`` over its free dofs along the eps schedule.

    ``problem`` must expose:
      free       : boolean mask of unknowns,
      mass       : lumped areas per dof,
      objective(u, eps)            -> float (constants from fixed dofs removed),
      gradient(u, eps)             -> (grad, abs_scale) full-length arrays,
      newton_step(u, eps, grad)    -> Newton direction over the free dofs.

    Returns ``(u, stages, info)`` where ``info`` carries the final
    residual, its roundoff floor and whether a stage ended on a Newton
    step below resolution (accepted only with the residual within
    ``_STALL_FACTOR`` (tol + floor)).  A non-finite residual or floor,
    as when f(u) overflows, raises :class:`NonConvergenceError`.
    """
    u = np.array(u0, dtype=float)
    free = problem.free
    m_free = problem.mass[free]
    stages = []
    resid = np.inf
    floor = 0.0
    stalled = False
    for eps in eps_schedule:
        it = 0
        while True:
            grad, scale = problem.gradient(u, eps)
            resid_arr = np.abs(grad[free]) / m_free
            floor_arr = _ROUNDOFF_FACTOR * _EPS_MACH * scale[free] / m_free
            resid = float(np.max(resid_arr)) if resid_arr.size else 0.0
            floor = float(np.max(floor_arr)) if floor_arr.size else 0.0
            if not (math.isfinite(resid) and math.isfinite(floor)):
                # an overflowed f(u) makes the floor infinite, and every
                # residual would pass under it
                raise NonConvergenceError(
                    f"residual {resid:.3e} or its roundoff floor "
                    f"{floor:.3e} is not finite at eps={eps:.3e}",
                    trace=stages + [StageTrace(eps, it, resid, np.nan)])
            if np.all(resid_arr <= tol + floor_arr):
                break
            if it >= max_newton:
                raise NonConvergenceError(
                    f"Newton exceeded {max_newton} iterations at eps={eps:.3e} "
                    f"(residual {resid:.3e}, roundoff floor {floor:.3e})",
                    trace=stages + [StageTrace(eps, it, resid, np.nan)])
            step = problem.newton_step(u, eps, grad)
            if np.all(np.abs(step) <=
                      8.0 * _EPS_MACH * (np.abs(u[free]) + 1.0)):
                # every Newton increment is below the double-precision
                # resolution of its own node; the residual floor is reached
                if resid <= _STALL_FACTOR * (tol + floor):
                    stalled = True
                    break
                raise NonConvergenceError(
                    f"Newton step below resolution at eps={eps:.3e} with "
                    f"residual {resid:.3e} beyond {_STALL_FACTOR:g} x (tol "
                    f"+ roundoff floor {floor:.3e})",
                    trace=stages + [StageTrace(eps, it, resid, np.nan)])
            slope = float(grad[free] @ step)
            if not np.isfinite(slope) or slope >= 0.0:
                raise NonConvergenceError(
                    f"Newton direction is not a descent direction at "
                    f"eps={eps:.3e} (slope {slope:.3e})",
                    trace=stages)
            e0 = problem.objective(u, eps)
            allowance = 32.0 * _EPS_MACH * abs(e0)
            t = 1.0
            accepted = False
            while t >= 2.0 ** -45:
                u_try = u.copy()
                u_try[free] += t * step
                e1 = problem.objective(u_try, eps)
                if np.isfinite(e1) and \
                        e1 <= e0 + _SUFFICIENT_DECREASE * t * slope + allowance:
                    u = u_try
                    accepted = True
                    break
                t *= _BACKTRACK
            if not accepted:
                # energy comparison drowned in roundoff; fall back to a
                # residual-decrease acceptance of the full step
                u_try = u.copy()
                u_try[free] += step
                g_try, _ = problem.gradient(u_try, eps)
                if np.max(np.abs(g_try[free]) / m_free) < resid:
                    u = u_try
                else:
                    raise NonConvergenceError(
                        f"line search stalled at eps={eps:.3e} "
                        f"(residual {resid:.3e}, roundoff floor {floor:.3e})",
                        trace=stages)
            it += 1
        stages.append(StageTrace(float(eps), it, resid,
                                 float(problem.objective(u, eps))))
    info = {"residual": resid, "roundoff_floor": floor, "stalled": stalled}
    return u, stages, info


def increasing_levels(m_list) -> tuple:
    """The boundary levels of an M sweep as floats; they must be finite
    and strictly increasing."""
    ms = tuple(float(m) for m in m_list)
    if not (ms and np.all(np.isfinite(ms)) and np.all(np.diff(ms) > 0)):
        raise ValueError(
            f"M list must be finite and strictly increasing, got {ms}")
    return ms


def require_a1(nl, p) -> None:
    """Refuse blow-up data for a nonlinearity failing the Keller-Osserman
    condition (A1): no large solution exists then."""
    if not check_a1(nl, p):
        raise ValueError(
            f"no large solution exists: {nl.describe()} fails the "
            f"Keller-Osserman condition at p={p}")


def sweep_levels(problem, m_list, tol, max_newton, watch, initial=None):
    """Increasing sweep of constant boundary levels approximating blow-up,
    run on one ``problem`` (the cylinder's or the cross-section's) for
    every level.

    Each level M is set on the problem's fixed nodes and solved by
    ``problem.minimize(tol, max_newton, start)``, warm-started from the
    previous level (the first level from ``initial``, a cold start by
    default).  Refuses nonlinearities failing the Keller-Osserman
    condition; free values must be nondecreasing in M (comparison
    principle), and a drop beyond twice ``tol`` at a free node aborts.
    Returns ``(m_values, levels, changes, monotone_margin)``: ``levels``
    holds one ``(u, stages, info)`` per level, ``changes`` the max changes
    over the ``watch`` nodes between consecutive levels, and the margin is
    the most negative free increment (0 for one level).
    """
    m_list = increasing_levels(m_list)
    require_a1(problem.nl, problem.p)
    fixed = ~problem.free
    levels, changes, worst = [], [], []
    prev = initial
    for M in m_list:
        problem.boundary_values[fixed] = M
        u, stages, info = problem.minimize(tol, max_newton, prev)
        if levels:
            worst.append(float(np.min((u - prev)[problem.free])))
            if worst[-1] < -2.0 * tol:
                raise NonConvergenceError(
                    f"M sweep lost monotonicity at M={M:g}: interior value "
                    f"dropped by {-worst[-1]:.3e}")
            changes.append(float(np.max(np.abs((u - prev)[watch]))))
        levels.append((u, stages, info))
        prev = u
    return m_list, levels, changes, min(worst, default=0.0)
