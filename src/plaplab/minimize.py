"""Damped Newton minimization with epsilon continuation.

The cylinder and cross-sectional solves minimize one regularized convex
P1 energy (on a triangle or a segment mesh): the singular/degenerate
coefficient ``|grad u|^(p-2)`` is replaced by
``(|grad u|^2 + eps^2)^((p-2)/2)``.  A cold start drives ``eps`` down a
geometric schedule, warm-starting each stage from the last.  Only the
last stage's minimizer is used, so a stage before it is solved inexactly:
it stops once the residual is within max(tol, eps) (plus the roundoff
floor), enough to bring the iterate into the next stage's basin (inexact
continuation, Allgower & Georg 2003).  A warm start from the solution of
a nearby problem runs only the schedule's last stage, since it already
lies in the basin the ladder exists to reach.
Within a stage, damped Newton with Armijo backtracking is globally
convergent because the energy is strictly convex for eps > 0.  A stage
ends only with every free residual within its tol plus the roundoff
floor, and a step is taken only by the Armijo test; anything else raises
:class:`NonConvergenceError` with the trace.

A problem carries its :class:`plaplab.solver.SolverConfig` ``cfg`` and
solves itself by ``problem.minimize(initial)``.  Constant boundary levels
on one mesh differ only in the constant on the fixed nodes, so
:func:`warm_levels` solves increasing levels on one problem, each from
the Euler predictor of the level below (predictor-corrector continuation
in M, Allgower & Georg 2003, ch. 2): the tangent du/dM comes from the
problem's ``tangent``, one back-substitution with the factor of the
level's last Newton step, and the step is taken in log M
(:func:`level_step`); the blow-up sweep :func:`sweep_levels` adds the
monotonicity abort and the sweep's :class:`BlowupReport`.  Nothing here
classifies the nonlinearity: the entry points that build a blow-up
problem refuse one failing (A1) before they build it.

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

_EPS_MACH = np.finfo(float).eps
_ROUNDOFF_FACTOR = 64.0
_BACKTRACK = 0.5
_SUFFICIENT_DECREASE = 1e-4


class NonConvergenceError(ArithmeticError):
    """Newton failed to reach the tolerance; carries the iteration trace.
    A numerical failure, like :class:`plaplab.quadrature.QuadratureError`."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class StageTrace:
    """Per-continuation-stage convergence record: ``tol`` is the residual
    bound (before the roundoff floor) the stage stopped at, max(tol, eps)
    for a stage before the last; ``backtracks`` counts the line-search
    trials the stage rejected."""
    eps: float
    iterations: int
    residual: float
    objective: float
    tol: float
    backtracks: int


@dataclass(frozen=True)
class BlowupReport:
    """Stabilization record of an increasing-M sweep."""

    m_values: tuple
    stage_max_change: tuple   # watched max |u_{M_k+1} - u_{M_k}|
    monotone_margin: float    # most negative increment; >= -comparison_slack
    level_newton_steps: tuple  # Newton steps of each M level


def comparison_slack(tol: float, solution) -> float:
    """How far a solved value may lie on the wrong side of its bound
    before a check of the comparison principle (a higher level, larger
    data, a shorter cylinder, an interior barrier) fails: 2 tol, one
    stopping tolerance for each of the two values compared, plus
    ``_ROUNDOFF_FACTOR`` eps max|solution|, the roundoff allowance of the
    Newton stopping test, the maximum taken over every nodal value of the
    checked solution, boundary values included.  Without the second term
    the slack is below one ulp of any value above about 1.4e5 at
    tol = 1e-11, and a check would ask for bit-exact agreement there."""
    return 2.0 * tol + _ROUNDOFF_FACTOR * _EPS_MACH * float(
        np.max(np.abs(solution)))


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

    A stage before the last only has to bring the iterate into the next
    stage's basin: it ends once every free residual is within max(tol,
    eps) plus its roundoff floor; the last stage ends within tol plus the
    floor.  A step is taken when it passes the Armijo test with a
    roundoff allowance of 32 eps_mach |energy|, halving from the full
    Newton step.  Returns ``(u, stages, info)``: one :class:`StageTrace`
    per stage, and ``info``, which carries the final residual and its
    roundoff floor.  Raises :class:`NonConvergenceError`, whose trace ends
    with the failing stage, when the Newton budget is spent, the residual
    or its floor is not finite (as when f(u) overflows), a Newton step is
    below the resolution of every node, or the line search rejects every
    step down to 2^-45 of the Newton step.
    """
    u = np.array(u0, dtype=float)
    free = problem.free
    m_free = problem.mass[free]
    stages = []
    resid = np.inf
    floor = 0.0
    last = len(eps_schedule) - 1

    def failure(message):
        """The error of the current stage, its entry ending the trace."""
        return NonConvergenceError(
            message, trace=stages + [StageTrace(eps, it, resid, np.nan,
                                                stage_tol, rejected)])

    for k, eps in enumerate(eps_schedule):
        stage_tol = tol if k == last else float(max(tol, eps))
        it = rejected = 0
        energy = None  # objective at u for this eps, once evaluated
        while True:
            grad, scale = problem.gradient(u, eps)
            resid_arr = np.abs(grad[free]) / m_free
            floor_arr = _ROUNDOFF_FACTOR * _EPS_MACH * scale[free] / m_free
            resid = float(np.max(resid_arr)) if resid_arr.size else 0.0
            floor = float(np.max(floor_arr)) if floor_arr.size else 0.0
            if not (math.isfinite(resid) and math.isfinite(floor)):
                # an overflowed f(u) makes the floor infinite, and every
                # residual would pass under it
                raise failure(f"residual {resid:.3e} or its roundoff floor "
                              f"{floor:.3e} is not finite at eps={eps:.3e}")
            if np.all(resid_arr <= stage_tol + floor_arr):
                break
            if it >= max_newton:
                raise failure(
                    f"Newton exceeded {max_newton} iterations at eps="
                    f"{eps:.3e} (residual {resid:.3e}, roundoff floor "
                    f"{floor:.3e})")
            step = problem.newton_step(u, eps, grad)
            if np.all(np.abs(step) <=
                      8.0 * _EPS_MACH * (np.abs(u[free]) + 1.0)):
                # every Newton increment is below the double-precision
                # resolution of its own node: no step can lower the residual
                raise failure(
                    f"Newton step below resolution at eps={eps:.3e} with "
                    f"residual {resid:.3e} beyond tol {stage_tol:.3e} + "
                    f"roundoff floor {floor:.3e}")
            slope = float(grad[free] @ step)
            if not np.isfinite(slope) or slope >= 0.0:
                raise failure(f"Newton direction is not a descent direction "
                              f"at eps={eps:.3e} (slope {slope:.3e})")
            e0 = problem.objective(u, eps) if energy is None else energy
            allowance = 32.0 * _EPS_MACH * abs(e0)
            t = 1.0
            while t >= 2.0 ** -45:
                u_try = u.copy()
                u_try[free] += t * step
                e1 = problem.objective(u_try, eps)
                if np.isfinite(e1) and \
                        e1 <= e0 + _SUFFICIENT_DECREASE * t * slope + allowance:
                    break
                rejected += 1
                t *= _BACKTRACK
            else:
                raise failure(
                    f"line search stalled at eps={eps:.3e} (residual "
                    f"{resid:.3e}, roundoff floor {floor:.3e})")
            u, energy = u_try, e1
            it += 1
        if energy is None:
            energy = problem.objective(u, eps)
        stages.append(StageTrace(float(eps), it, resid, float(energy),
                                 stage_tol, rejected))
    info = {"residual": resid, "roundoff_floor": floor}
    return u, stages, info


def increasing_levels(m_list) -> tuple:
    """The boundary levels of an M sweep as floats; they must be finite
    and strictly increasing."""
    ms = tuple(float(m) for m in m_list)
    if not (ms and np.all(np.isfinite(ms)) and np.all(np.diff(ms) > 0)):
        raise ValueError(
            f"M list must be finite and strictly increasing, got {ms}")
    return ms


def level_step(m_from: float, m_to: float) -> float:
    """The Euler step from level ``m_from`` to ``m_to`` along du/dM: in
    log M, ``m_from ln(m_to / m_from)``, for a positive ``m_from``, else
    (no log) ``m_to - m_from``.  The logs are taken apart, since the ratio
    overflows from a subnormal ``m_from``."""
    if m_from <= 0.0:
        return m_to - m_from
    return m_from * (math.log(m_to) - math.log(m_from))


def warm_levels(problem, m_list, initial=None):
    """Solve constant levels, strictly increasing (see
    :func:`increasing_levels`), on one ``problem``.

    Each level M is set on the problem's fixed nodes and solved by
    ``problem.minimize(start)``: the first level from ``initial`` (a cold
    start by default), each later one from the Euler predictor
    u_k + Δ w of the level below (Allgower & Georg 2003, ch. 2), w =
    du/dM from ``problem.tangent(u_k)`` (the factor of the level's last
    Newton step) and Δ = :func:`level_step`, or from u_k itself when the
    level below took no Newton step.  Yields one ``(u, stages, info)``
    per level as it is solved, so that a caller may stop the sweep early.
    """
    fixed = ~problem.free
    start = initial
    for k, M in enumerate(m_list):
        if k:
            w = problem.tangent(start)
            if w is not None:
                start = start + level_step(m_list[k - 1], M) * w
        problem.boundary_values[fixed] = M
        level = problem.minimize(start)
        yield level
        start = level[0]


def sweep_levels(problem, m_list, watch, initial=None):
    """Increasing sweep of constant boundary levels approximating blow-up,
    run on one ``problem`` (the cylinder's or the cross-section's) for
    every level by :func:`warm_levels`.

    Free values must be nondecreasing in M (comparison principle), and a
    drop at a free node beyond the :func:`comparison_slack` of the ``tol``
    of ``problem.cfg`` and the new level aborts the sweep.  The problem's
    nonlinearity is not read: whether a large solution exists is for the
    caller to decide.  Returns
    ``(levels, report)``: one ``(u, stages, info)`` per level, and the
    :class:`BlowupReport` of the max changes over the ``watch`` nodes
    between consecutive levels, the most negative free increment (0 for
    one level) and each level's Newton steps.
    """
    m_list = increasing_levels(m_list)
    levels, changes, worst = [], [], []
    for M, level in zip(m_list, warm_levels(problem, m_list, initial)):
        if levels:
            step = level[0] - levels[-1][0]
            worst.append(float(np.min(step[problem.free])))
            slack = comparison_slack(problem.cfg.tol, level[0])
            if worst[-1] < -slack:
                raise NonConvergenceError(
                    f"M sweep lost monotonicity at M={M:g}: interior value "
                    f"dropped by {-worst[-1]:.3e}, beyond the slack "
                    f"{slack:.3e}")
            changes.append(float(np.max(np.abs(step[watch]))))
        levels.append(level)
    report = BlowupReport(
        m_values=m_list, stage_max_change=tuple(changes),
        monotone_margin=min(worst, default=0.0),
        level_newton_steps=tuple(sum(s.iterations for s in stages)
                                 for _, stages, _ in levels))
    return levels, report
