"""Damped Newton minimization with epsilon continuation.

The cylinder and cross-sectional solves minimize one regularized convex
P1 energy (on a triangle or a segment mesh): the singular/degenerate
coefficient ``|grad u|^(p-2)`` is replaced by
``(|grad u|^2 + eps^2)^((p-2)/2)`` and ``eps`` is driven down a geometric
schedule, warm-starting each stage.
Within a stage, damped Newton with Armijo backtracking is globally
convergent because the energy is strictly convex for eps > 0.

The stopping test is an absolute bound on the lumped-mass-scaled gradient
plus a roundoff allowance proportional to the magnitude of the assembled
terms: near boundary blow-up data the gradient entries cancel between
contributions many orders of magnitude larger than the solver tolerance,
and on a fine mesh the cell gradients cancel between nodal values much
larger than their differences, so a purely absolute test would be
unattainable in double precision.
"""

from __future__ import annotations

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
    ``_STALL_FACTOR`` (tol + floor)).
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
            if np.all(resid_arr <= tol + floor_arr):
                break
            if it >= max_newton:
                raise NonConvergenceError(
                    f"Newton exceeded {max_newton} iterations at eps={eps:.3e} "
                    f"(residual {resid:.3e}, roundoff floor {floor:.3e})",
                    trace=stages + [StageTrace(eps, it, resid, np.nan)])
            step = problem.newton_step(u, eps, grad)
            u_res = float(np.max(np.abs(u[free]))) if step.size else 0.0
            if step.size and np.max(np.abs(step)) <= \
                    8.0 * _EPS_MACH * (u_res + 1.0):
                # the Newton increment is below double-precision resolution
                # of the iterate; the residual floor has been reached
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
    """The boundary levels of an M sweep as floats; they must be strictly
    increasing."""
    ms = tuple(float(m) for m in m_list)
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"M list must be strictly increasing, got {ms}")
    return ms


def sweep_levels(solve_level, m_list, nl, p, tol, interior, watch):
    """Increasing sweep of constant boundary levels approximating blow-up,
    for the cylinder and the cross-sectional solves alike.

    ``solve_level(M, initial)`` solves with boundary level M, warm-started
    from the nodal values ``initial`` (None at the first level), and
    returns ``(result, values)``.  Refuses nonlinearities failing the
    Keller-Osserman condition; interior values must be nondecreasing in M
    (comparison principle), and a drop beyond twice ``tol`` at an
    ``interior`` node aborts.  Returns ``(m_values, results, changes,
    monotone_margin)``: ``changes`` are the max changes over the ``watch``
    nodes between consecutive levels, the margin is the most negative
    interior increment (0 for one level).
    """
    m_list = increasing_levels(m_list)
    if not check_a1(nl, p):
        raise ValueError(
            f"no large solution exists: {nl.describe()} fails the "
            f"Keller-Osserman condition at p={p}")
    results, changes, worst = [], [], []
    prev = None
    for M in m_list:
        res, u = solve_level(M, prev)
        if prev is not None:
            worst.append(float(np.min((u - prev)[interior])))
            if worst[-1] < -2.0 * tol:
                raise NonConvergenceError(
                    f"M sweep lost monotonicity at M={M:g}: interior value "
                    f"dropped by {-worst[-1]:.3e}")
            changes.append(float(np.max(np.abs((u - prev)[watch]))))
        results.append(res)
        prev = u
    return m_list, results, changes, min(worst, default=0.0)
