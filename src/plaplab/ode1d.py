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

The integrand has an ``(s - a)^(-1/p)`` endpoint singularity; substituting
``s = a + sigma^(p/(p-1))`` makes it continuous, and the improper tail is
handled by the doubling-panel machinery of :mod:`plaplab.quadrature`.
Only that near integral, whose substituted integrand still behaves like
``sigma^(1/(p-1))`` at its end point, goes to QUADPACK's QAGS
(:func:`plaplab.quadrature.singular_quad`); the smooth panels above it,
the whole level ladder of a tabulation and the tail's doubling panels,
are integrated by :func:`plaplab.quadrature.panel_quad` in vectorized
batches.

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
from .quadrature import (QuadratureError, integrate_to_infinity, panel_quad,
                         singular_quad)
from .solver import SolverConfig, _CylinderProblem

__all__ = [
    "LargeSolution1D",
    "CrossProfile",
    "blowup_radius",
    "solve_large_1d",
    "solve_cross_finite",
    "solve_cross_large",
]


def _inverse_speed(nl: Nonlinearity, p: float, a: float):
    """Integrand [ (p/(p-1)) (F(s) - F(a)) ]^(-1/p) over an array of
    s >= a: ``inf`` where the gap is 0, and 0 where it overflows."""
    coeff = p / (p - 1.0)
    inv_p = 1.0 / p
    return lambda s: (coeff * nl.F_gap(a, s - a)) ** (-inv_p)


def _near_integral(nl: Nonlinearity, p: float, a: float, b: float) -> float:
    """int_a^b of the inverse speed, with the endpoint singularity removed.

    Substituting s = a + sigma^(p/(p-1)) turns the (s-a)^(-1/p) blow-up at
    s = a into a continuous integrand for p > 1; it is only Hölder
    continuous at sigma = 0, so this integral stays on QAGS
    (:func:`plaplab.quadrature.singular_quad`).
    """
    if b <= a:
        return 0.0
    expo = p / (p - 1.0)
    coeff = p / (p - 1.0)
    inv_p = 1.0 / p
    sigma_max = (b - a) ** (1.0 / expo)

    def integrand(sigma):
        dx = sigma ** expo
        gap = nl.F_gap(a, dx)
        if gap <= 0.0:
            return float("inf")
        return expo * sigma ** (expo - 1.0) * (coeff * gap) ** (-inv_p)

    return singular_quad(integrand, 0.0, sigma_max)


def blowup_radius(nl: Nonlinearity, p: float, a: float) -> float:
    """Blow-up radius r(a) of the symmetric profile with center value a.

    Raises ``ValueError`` for bad input, before any quadrature: a center
    value a <= 0, p <= 1, or a nonlinearity failing the Keller-Osserman
    condition (A1), for which r(a) is infinite and no large solution
    exists (:func:`plaplab.nonlinearity.require_a1`).  Raises
    :class:`QuadratureError` when (A1) holds but the integral does not
    come out finite: a tail that outlasts the doubling budget, or a p so
    close to 1 that the near integrand underflows or overflows.
    """
    if a <= 0.0:
        raise ValueError(f"center value must be positive, got a={a}")
    if p <= 1.0:
        raise ValueError(f"requires p > 1, got p={p}")
    require_a1(nl, p)
    try:
        near = _near_integral(nl, p, a, 2.0 * a)
    except OverflowError as exc:
        raise QuadratureError(
            f"the near integral of r({a}) overflows at p={p}: {exc}") from exc
    tail = integrate_to_infinity(_inverse_speed(nl, p, a), 2.0 * a)
    if not (math.isfinite(near) and math.isfinite(tail)):
        raise QuadratureError(
            f"r({a}) reads {near!r} + {tail!r} (near integral + tail) "
            f"although (A1) holds for {nl.describe()} at p={p}")
    return near + tail


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
        if v_lo == v_hi:
            return v_lo
        from scipy.optimize import brentq

        def time_of(v):
            if i == 1:
                return _near_integral(self.nl, self.p, self.a, v) - tq
            return t_lo + panel_quad(_inverse_speed(self.nl, self.p, self.a),
                                     v_lo, v) - tq

        return float(brentq(time_of, v_lo, v_hi, rtol=1e-14, maxiter=200))

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

#: probe budget of one center-value search
MAX_PROBES = 200


def solve_large_1d(nl: Nonlinearity, p: float, r: float) -> LargeSolution1D:
    """Profile with prescribed blow-up radius r, via root solve for a.

    The center value is found by a secant on g(x) = ln r(e^x) - ln r in
    x = ln a (r(a) is strictly decreasing), started from a = 1 and
    a = 2^(+-1) on the side that r(1) points to.  For a power f = c s^q,
    r(lam a) = lam^(-(q-p+1)/p) r(a), so g is affine and the first secant
    step lands on the root.  Before the probes straddle r, steps stop at
    the end of the range a in [2^-60, 2^60]; after, a step that leaves the
    bracket is replaced by a bisection in ln a.  The first probe whose own
    radius is within ``RADIUS_REL_TOL`` of r is the center value.  No root
    in range, a non-monotone set of probes and a bracket that shrinks to
    roundoff raise :class:`QuadratureError` rather than return a wrong
    profile.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got r={r}")
    probes = []  # (a, r(a)) in probe order

    def g(a):
        ra = blowup_radius(nl, p, a)
        probes.append((a, ra))
        if any((a - b) * (ra - rb) > 0.0 for b, rb in probes):
            raise QuadratureError(
                f"a -> r(a) is not monotone along the probes {probes}; "
                "cannot bracket the center value reliably")
        # a radius below the smallest double reads 0: a bracket end
        return math.log(ra / r) if ra > 0.0 else -math.inf

    x, gx = 0.0, g(1.0)
    # g decreases in x: step up from a = 1 while r(a) > r, else down
    side = 1.0 if gx > 0.0 else -1.0
    edge = side * CENTER_DOUBLINGS * math.log(2.0)
    x_prev = g_prev = None
    lo = hi = None  # the nearest probes with g > 0 and g <= 0
    while abs(probes[-1][1] - r) > RADIUS_REL_TOL * r:
        if len(probes) >= MAX_PROBES:
            raise QuadratureError(
                f"center-value root solve stalled after {len(probes)} "
                f"probes at {probes[-1]}; target radius {r}")
        if gx > 0.0:
            lo = x
        else:
            hi = x
        secant = None if g_prev is None or gx == g_prev or \
            math.isinf(gx) else x - gx * (x - x_prev) / (gx - g_prev)
        if g_prev is None:
            x_next = side * math.log(2.0)
        elif lo is None or hi is None:
            if x == edge:
                raise QuadratureError(
                    f"no center value with radius "
                    f"{'<=' if side > 0 else '>='} {r} found within "
                    f"{CENTER_DOUBLINGS} "
                    f"{'doublings' if side > 0 else 'halvings'}; probes "
                    f"end at {probes[-1]}")
            x_next = edge if secant is None or side * (secant - edge) > 0.0 \
                else secant
        elif secant is not None and lo < secant < hi:
            x_next = secant
        else:
            x_next = 0.5 * (lo + hi)
            if not lo < x_next < hi:
                raise QuadratureError(
                    f"center-value root solve stalled: the bracket "
                    f"[{math.exp(lo)!r}, {math.exp(hi)!r}] shrank to "
                    f"roundoff with r = {probes[-1][1]!r}, target {r!r}")
        x_prev, g_prev, x = x, gx, x_next
        gx = g(math.exp(x))
    return _tabulate(nl, p, probes[-1][0], r)


def _tabulate(nl: Nonlinearity, p: float, a: float,
              r: float) -> LargeSolution1D:
    """The profile with center value a and blow-up radius r = r(a),
    sampled on the ladder of level offsets ``LEVEL_DECADES``: the near
    integral up to the first level, then every step of the ladder in one
    :func:`plaplab.quadrature.panel_quad` call.  Raises
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
        panel_quad(_inverse_speed(nl, p, a), levels[:-1], levels[1:])))
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
