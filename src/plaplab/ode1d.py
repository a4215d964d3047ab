"""One-dimensional blow-up profiles and cross-sectional solves.

The symmetric profile phi on (-r, r) satisfying
``(|phi'|^(p-2) phi')' = f(phi)`` with ``phi -> +inf`` at both ends has
the first integral

    (1 - 1/p) |phi'(t)|^p = F(phi(t)) - F(a),      a = phi(0),

which reduces the whole problem to quadrature: the time to climb from the
center value ``a`` to a level ``v`` is

    t(v) = int_a^v [ (p/(p-1)) (F(s) - F(a)) ]^(-1/p) ds ,

and the blow-up radius is ``r(a) = t(inf)``.  ``r(a)`` is strictly
decreasing for the admissible nonlinearities, so prescribing the radius
means a one-parameter root solve for ``a``.

For a power ``f = c s^q`` (``m = q + 1``) the radius has a closed form,

    r(a) = B(1/p - 1/m, 1 - 1/p) / m * ((p/(p-1)) c/m)^(-1/p) a^(1-m/p) ,

by the substitution ``s = a w^(-1/m)``.  Otherwise the integrand has an
``(s - a)^(-1/p)`` end-point singularity at the center value: the near
integral over ``[a, 2a]`` takes that factor as the weight of a
Gauss-Jacobi rule (:func:`plaplab.quadrature.jacobi_quad`), and the tail
from ``2a`` is summed over doubling panels
(:func:`plaplab.quadrature.integrate_to_infinity`).  The smooth panels of
a tabulation, its whole level ladder, are integrated by
:func:`plaplab.quadrature.panel_quad` in one vectorized batch, in the
offset ``s - a`` rather than the level.

The cross-sectional problem on an interval (finite data or blow-up data
approximated through an increasing sweep of constant boundary levels M)
is the 2D solver's P1 energy on a segment mesh, with the same
:class:`plaplab.solver.SolverConfig`, eps ladder and blow-up sweep
(:func:`plaplab.minimize.sweep_levels`, run on one segment problem for
every level), so its constant extension solves the cylinder's interior
equations on a grid with the same transverse nodes; a blow-up sweep
gives one :class:`CrossProfile` per level and the cylinder's report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# unused here: kept so that ``plaplab.ode1d.solve_banded`` stays a name the
# benchmark's tracer test (perfbench/test_perfbench.py) wraps and restores
from scipy.linalg import solve_banded  # noqa: F401

from .minimize import sweep_levels
from .nonlinearity import Nonlinearity, require_a1
from .quadrature import (QuadratureError, integrate_to_infinity, jacobi_quad,
                         panel_quad)
from .solver import SolverConfig, _CylinderProblem

__all__ = [
    "LargeSolution1D",
    "CrossProfile",
    "blowup_radius",
    "solve_large_1d",
    "solve_cross_finite",
    "solve_cross_large",
]


def _offset_inverse_speed(nl: Nonlinearity, p: float, a: float):
    """Integrand [ (p/(p-1)) (F(a + d) - F(a)) ]^(-1/p) over an array of
    offsets d = s - a >= 0: ``inf`` where the gap is 0, and 0 where it
    overflows.  Integrating in d keeps the offsets exact where s would
    round them, just above the center value."""
    coeff = p / (p - 1.0)
    inv_p = 1.0 / p
    return lambda d: (coeff * nl.F_gap(a, d)) ** (-inv_p)


def _inverse_speed(nl: Nonlinearity, p: float, a: float):
    """The integrand of :func:`_offset_inverse_speed` over an array of
    levels s >= a."""
    speed = _offset_inverse_speed(nl, p, a)
    return lambda s: speed(s - a)


def _near_integral(nl: Nonlinearity, p: float, a: float, b: float) -> float:
    """int_a^b of the inverse speed, ``(s-a)^(-1/p) G(s)`` with the smooth
    ``G(s) = [(p/(p-1)) (F(s) - F(a)) / (s-a)]^(-1/p)``: a Gauss-Jacobi
    rule with the weight ``(s-a)^(-1/p)``
    (:func:`plaplab.quadrature.jacobi_quad`)."""
    coeff = p / (p - 1.0)
    inv_p = 1.0 / p
    return jacobi_quad(lambda d: (coeff * nl.F_gap(a, d) / d) ** -inv_p,
                       b - a, -inv_p)


def _power_radius(c: float, q: float, p: float, a: float) -> float:
    """r(a) of f = c s^q in closed form, for m = q + 1 > p (module doc)."""
    m = q + 1.0
    log_r = (math.lgamma(1.0 / p - 1.0 / m) + math.lgamma(1.0 - 1.0 / p)
             - math.lgamma(1.0 - 1.0 / m) - math.log(m)
             - math.log(p / (p - 1.0) * c / m) / p
             + (1.0 - m / p) * math.log(a))
    try:
        return math.exp(log_r)
    except OverflowError:
        raise QuadratureError(
            f"r({a}) = e^{log_r:.6g} overflows for f(s) = {c:g} s^{q:g} at "
            f"p={p}") from None


def blowup_radius(nl: Nonlinearity, p: float, a: float) -> float:
    """Blow-up radius r(a) of the symmetric profile with center value a.

    A power's radius is its closed form; any other kind's is its near
    integral over [a, 2a] plus its tail from 2a.  Raises ``ValueError``
    for bad input, before any quadrature: a center value a <= 0, p <= 1,
    or a nonlinearity failing the Keller-Osserman condition (A1), for
    which r(a) is infinite and no large solution exists
    (:func:`plaplab.nonlinearity.require_a1`).  Raises
    :class:`QuadratureError` when (A1) holds but r(a) does not come out
    finite.
    """
    if a <= 0.0:
        raise ValueError(f"center value must be positive, got a={a}")
    if p <= 1.0:
        raise ValueError(f"requires p > 1, got p={p}")
    require_a1(nl, p)
    if nl.kind == "power":
        return _power_radius(*nl.params, p, a)
    return _near_integral(nl, p, a, 2.0 * a) \
        + integrate_to_infinity(_inverse_speed(nl, p, a), 2.0 * a)


@dataclass(frozen=True, eq=False)
class LargeSolution1D:
    """Symmetric blow-up profile on (-r, r), tabulated for t >= 0.

    The samples are generated from a geometric ladder of level offsets
    ``phi - a``, so they cluster toward the blow-up end.  ``dphi`` is
    recovered from the first integral, which the tabulation therefore
    satisfies by construction; the independent consistency checks are the
    radius round-trip and the near-boundary law (tested elsewhere).
    """

    r: float
    a: float
    p: float
    nl: Nonlinearity
    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    def first_integral_residual(self) -> np.ndarray:
        """|(1 - 1/p)|phi'|^p - (F(phi) - F(a))|, relative to max(1, gap)."""
        gaps = self.nl.F_gap(self.a, self.phi - self.a)
        lhs = (1.0 - 1.0 / self.p) * self.dphi ** self.p
        return np.abs(lhs - gaps) / np.maximum(1.0, gaps)

    def value_at(self, t: float) -> float:
        """phi(t) for |t| < r, by inverting the time-to-level map."""
        tq = abs(float(t))
        if tq >= self.r:
            raise ValueError(f"profile blows up at |t| = r = {self.r}; "
                             f"got t={t}")
        if tq == 0.0:
            return self.a
        if tq > self.t[-1]:
            raise ValueError(
                f"t={t} is within {self.r - self.t[-1]:.3e} of the blow-up "
                "end, beyond the tabulated range")
        i = int(np.searchsorted(self.t, tq))
        # bracket in level space: phi in [phi[i-1], phi[i]]
        v_lo, v_hi = float(self.phi[i - 1]), float(self.phi[i])
        t_lo = float(self.t[i - 1])

        def time_of(v):
            if i == 1:
                return _near_integral(self.nl, self.p, self.a, v) - tq
            # in the offset, as the table's own steps are (:func:`_tabulate`)
            return t_lo + panel_quad(
                _offset_inverse_speed(self.nl, self.p, self.a),
                v_lo - self.a, v - self.a) - tq

        return _secant_root(time_of, v_lo, t_lo - tq, v_hi,
                            float(self.t[i]) - tq,
                            lambda v, gv: abs(gv) <= TIME_REL_TOL * tq,
                            xtol=LEVEL_REL_TOL * v_lo)

    def derivative_at(self, t: float) -> float:
        """phi'(|t|) >= 0, from the first integral."""
        v = self.value_at(t)
        gap = self.nl.F_gap(self.a, v - self.a)
        return (self.p / (self.p - 1.0) * gap) ** (1.0 / self.p)


#: tabulation ladder of the level offsets phi - a: decades relative to a
#: and points per decade
LEVEL_DECADES = (-6.0, 9.0)
LEVEL_POINTS_PER_DECADE = 8


#: center values are searched in [2^-CENTER_DOUBLINGS, 2^CENTER_DOUBLINGS]
CENTER_DOUBLINGS = 60

#: a probe is accepted once its own radius is within this of r, relative
RADIUS_REL_TOL = 1e-10

#: probe budget of one center-value search, and of one level search
MAX_PROBES = 200

#: ``LargeSolution1D.value_at`` accepts a level whose time is within
#: ``TIME_REL_TOL`` of the given time, or a secant step shorter than
#: ``LEVEL_REL_TOL`` of the level, both relative
TIME_REL_TOL = 1e-15
LEVEL_REL_TOL = 1e-14


def _secant_root(g, x0, g0, x1, g1, done, edge=None, xtol=0.0,
                 budget=MAX_PROBES):
    """A root of the monotone ``g``, from the probes ``x0`` and ``x1``.

    Each step is the secant through the last two probes.  While every
    probe's ``g`` has one sign, a step stops at ``edge``, where ``g`` is
    to raise if the sign still holds; once probes lie on either side of 0,
    a step that does not land strictly inside their bracket (the latest
    probes with ``g > 0`` and with ``g <= 0``) is replaced by the
    bracket's midpoint.  Returns the first probe ``x`` with
    ``done(x, g(x))``, ``x1`` included, or the end of the first bracketed
    step shorter than ``xtol``.  Raises :class:`QuadratureError` when
    neither has happened after ``budget`` more probes, or when the bracket
    shrinks to roundoff.
    """
    ends = {g0 > 0.0: x0, g1 > 0.0: x1}
    x_prev, g_prev, x, gx = x0, g0, x1, g1
    while not done(x, gx):
        if budget <= 0:
            raise QuadratureError(f"root solve stalled out of probes at "
                                  f"x = {x!r}, g = {gx!r}")
        x_next = None if gx == g_prev or math.isinf(gx) else \
            x - gx * (x - x_prev) / (gx - g_prev)
        if len(ends) == 1:
            if x_next is None or (x_next - edge) * (edge - x) > 0.0:
                x_next = edge
        else:
            lo, hi = sorted(ends.values())
            if x_next is None or not lo < x_next < hi:
                x_next = 0.5 * (lo + hi)
            if abs(x_next - x) < xtol:
                return x_next
            if not lo < x_next < hi:
                raise QuadratureError(
                    f"root solve stalled: the bracket [{lo!r}, {hi!r}] "
                    f"shrank to roundoff at g = {gx!r}")
        x_prev, g_prev, x = x, gx, x_next
        gx = g(x)
        ends[gx > 0.0] = x
        budget -= 1
    return x


def solve_large_1d(nl: Nonlinearity, p: float, r: float) -> LargeSolution1D:
    """Profile with prescribed blow-up radius r, via root solve for a.

    The center value is found by a secant on g(x) = ln r(e^x) - ln r in
    x = ln a (r(a) is strictly decreasing), started from a = 1 and
    a = 2^(+-1) on the side that r(1) points to (:func:`_secant_root`).
    For a power f = c s^q, r(lam a) = lam^(-(q-p+1)/p) r(a), so g is
    affine and the first secant step lands on the root.  Before the
    probes straddle r, steps stop at the end of the range a in
    [2^-60, 2^60]; after, a step that leaves the bracket is replaced by a
    bisection in ln a.  The first probe whose own radius is within
    ``RADIUS_REL_TOL`` of r is the center value.  No root in range, a
    non-monotone set of probes and a bracket that shrinks to roundoff
    raise :class:`QuadratureError` rather than return a wrong profile.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got r={r}")
    probes = []  # (a, r(a)) in probe order
    edge = None  # the end of the range that r(1) points to

    def close(x, gx):
        return abs(probes[-1][1] - r) <= RADIUS_REL_TOL * r

    def g(x):
        a = math.exp(x)
        ra = blowup_radius(nl, p, a)
        probes.append((a, ra))
        if any((a - b) * (ra - rb) > 0.0 for b, rb in probes):
            raise QuadratureError(
                f"a -> r(a) is not monotone along the probes {probes}; "
                "cannot bracket the center value reliably")
        # a radius below the smallest double reads 0: a bracket end
        gx = math.log(ra / r) if ra > 0.0 else -math.inf
        if x == edge and (gx > 0.0) == (edge > 0.0) and not close(x, gx):
            raise QuadratureError(
                f"no center value with radius "
                f"{'<=' if edge > 0.0 else '>='} {r} found within "
                f"{CENTER_DOUBLINGS} "
                f"{'doublings' if edge > 0.0 else 'halvings'}; probes end "
                f"at {probes[-1]}")
        return gx

    g0 = g(0.0)
    if not close(0.0, g0):
        # g decreases in x: step up from a = 1 while r(a) > r, else down
        side = 1.0 if g0 > 0.0 else -1.0
        edge = side * CENTER_DOUBLINGS * math.log(2.0)
        x1 = side * math.log(2.0)
        _secant_root(g, 0.0, g0, x1, g(x1), close, edge,
                     budget=MAX_PROBES - 2)
    return _tabulate(nl, p, probes[-1][0], r)


def _tabulate(nl: Nonlinearity, p: float, a: float,
              r: float) -> LargeSolution1D:
    """The profile with center value a and blow-up radius r = r(a),
    sampled on the ladder of level offsets ``LEVEL_DECADES``: the near
    integral up to the first level, then every step of the ladder in one
    :func:`plaplab.quadrature.panel_quad` call, integrated in the offset
    d = s - a over the stored levels' own offsets, so that each time stays
    paired with its level and no node rounds the offset.  Raises
    :class:`QuadratureError` when even the first level's climb speed
    overflows (a center value near the largest double)."""
    lo_dec, hi_dec = LEVEL_DECADES
    n = int(round((hi_dec - lo_dec) * LEVEL_POINTS_PER_DECADE)) + 1
    with np.errstate(over="ignore"):  # an inf offset is not kept below
        offsets = a * np.power(10.0, np.linspace(lo_dec, hi_dec, n))
    levels = a + offsets
    # truncate the ladder where |phi'|^p = (p/(p-1)) (F(level) - F(a))
    # saturates double precision (fast-growing nonlinearities); the
    # remaining climb time is below any representable tolerance there
    coeff = p / (p - 1.0)
    gaps_tail = nl.F_gap(a, offsets)
    keep = gaps_tail <= np.finfo(float).max / coeff
    if not keep.any():
        raise QuadratureError(
            f"no level of the profile with center value a={a!r} at p={p} "
            "has a climb speed below the overflow of F(phi) - F(a)")
    levels = levels[keep]
    panels = np.concatenate((
        [_near_integral(nl, p, a, levels[0])],
        panel_quad(_offset_inverse_speed(nl, p, a), levels[:-1] - a,
                   levels[1:] - a)))
    times = np.concatenate(([0.0], np.cumsum(panels)))
    phi = np.concatenate(([a], levels))
    gaps = np.concatenate(([0.0], gaps_tail[keep]))
    dphi = (coeff * gaps) ** (1.0 / p)
    return LargeSolution1D(r=float(r), a=float(a), p=float(p), nl=nl,
                           t=times, phi=phi, dphi=dphi)


# -- cross-sectional problem ------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrossProfile:
    """Nodal solution of the cross-sectional problem on an interval, for
    one pair of end values ``(values[0], values[-1])``; ``residual`` is its
    final area-scaled gradient max norm, solved to ``tol``."""

    y: np.ndarray
    values: np.ndarray
    residual: float
    tol: float

    @property
    def interval(self) -> tuple:
        return (float(self.y[0]), float(self.y[-1]))

    def value_at(self, yq):
        return np.interp(yq, self.y, self.values)


class _CrossProblem(_CylinderProblem):
    """The cylinder's P1 energy on the segment mesh of ``y``; in the
    natural node order its Hessian is tridiagonal."""

    def __init__(self, nl, cfg, y, g0, g1):
        n = len(y)
        h = float(y[1] - y[0])
        cells = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        b = np.broadcast_to([[-1.0 / h], [1.0 / h]], (n - 1, 2, 1))
        free = np.ones(n, dtype=bool)
        free[0] = free[-1] = False
        boundary = np.r_[g0, np.zeros(n - 2), g1]
        super().__init__(cells, b, h, free, nl, cfg, boundary, h)


def _segment(interval, n_nodes: int) -> np.ndarray:
    """The ``n_nodes`` equispaced nodes of ``interval``, checked."""
    y0, y1 = float(interval[0]), float(interval[1])
    if n_nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {n_nodes}")
    if y1 <= y0:
        raise ValueError(f"degenerate interval {interval}")
    return np.linspace(y0, y1, n_nodes)


def solve_cross_finite(nl: Nonlinearity, cfg: SolverConfig, interval,
                       g0: float, g1: float, n_nodes: int) -> CrossProfile:
    """Finite-data cross-sectional solve on ``interval`` with n_nodes:
    Newton down the whole eps ladder from min(g0, g1) at every interior
    node."""
    y = _segment(interval, n_nodes)
    u, _, info = _CrossProblem(nl, cfg, y, float(g0), float(g1)).minimize()
    return CrossProfile(y, u, info["residual"], cfg.tol)


def solve_cross_large(nl: Nonlinearity, cfg: SolverConfig, interval, M_list,
                      n_nodes: int) -> tuple:
    """Blow-up data approximated by an increasing sweep of constant levels.

    One segment problem serves every level:
    :func:`plaplab.minimize.sweep_levels` sets g0 = g1 = M on it and
    solves, the first level from a cold start and each later level from
    the Euler predictor of the previous one.  Returns one
    :class:`CrossProfile` per level and the sweep's
    :class:`~plaplab.minimize.BlowupReport` over every interior node.
    """
    y = _segment(interval, n_nodes)
    problem = _CrossProblem(nl, cfg, y, 0.0, 0.0)
    levels, report = sweep_levels(problem, M_list, problem.free)
    return [CrossProfile(y, u, info["residual"], cfg.tol)
            for u, _, info in levels], report
