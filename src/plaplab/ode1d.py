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

The cross-sectional problem on an interval (finite data or blow-up data
approximated through an increasing sweep of constant boundary levels M)
is the 2D solver's P1 energy on a segment mesh, with the same eps ladder
and blow-up sweep (:func:`plaplab.minimize.sweep_levels`, run on one
segment problem for every level), so its constant extension solves the
cylinder's interior equations on a grid with the same transverse nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# unused here: kept so that ``plaplab.ode1d.solve_banded`` stays a name the
# benchmark's tracer test (perfbench/test_perfbench.py) wraps and restores
from scipy.linalg import solve_banded  # noqa: F401
from scipy.optimize import brentq

from .minimize import sweep_levels
from .nonlinearity import Nonlinearity
from .quadrature import QuadratureError, integrate_to_infinity, panel_quad
from .solver import _CylinderProblem

__all__ = [
    "DivergentBlowupError",
    "LargeSolution1D",
    "CrossProfile",
    "blowup_radius",
    "solve_large_1d",
    "solve_cross_finite",
    "solve_cross_large",
]


class DivergentBlowupError(ArithmeticError):
    """The blow-up quadrature diverges (Keller-Osserman condition fails)."""


def _inverse_speed(nl: Nonlinearity, p: float, a: float):
    """Integrand [ (p/(p-1)) (F(s) - F(a)) ]^(-1/p) as a function of s."""
    coeff = p / (p - 1.0)
    inv_p = 1.0 / p

    def h(s):
        gap = nl.F_gap(a, s - a)
        if gap <= 0.0:
            return float("inf")
        return (coeff * gap) ** (-inv_p)

    return h


def _near_integral(nl: Nonlinearity, p: float, a: float, b: float) -> float:
    """int_a^b of the inverse speed, with the endpoint singularity removed.

    Substituting s = a + sigma^(p/(p-1)) turns the (s-a)^(-1/p) blow-up at
    s = a into a continuous integrand for p > 1.
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

    return panel_quad(integrand, 0.0, sigma_max)


def blowup_radius(nl: Nonlinearity, p: float, a: float) -> float:
    """Blow-up radius r(a) of the symmetric profile with center value a.

    Raises :class:`DivergentBlowupError` when the quadrature diverges,
    either because the tail fails the Keller-Osserman condition or because
    F is flat immediately above ``a`` (the profile cannot leave ``a``).
    """
    if a <= 0.0:
        raise ValueError(f"center value must be positive, got a={a}")
    if p <= 1.0:
        raise ValueError(f"requires p > 1, got p={p}")
    if nl.F_gap(a, a) == 0.0:
        raise DivergentBlowupError(
            f"f vanishes on [{a}, {2 * a}]; the profile cannot leave its "
            "center value")
    near = _near_integral(nl, p, a, 2.0 * a)
    tail = integrate_to_infinity(_inverse_speed(nl, p, a), 2.0 * a)
    if math.isinf(tail):
        raise DivergentBlowupError(
            "the blow-up integral diverges; the Keller-Osserman condition "
            f"fails for {nl.describe()} at p={p}")
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
        gaps = np.array([self.nl.F_gap(self.a, v - self.a) for v in self.phi])
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


def solve_large_1d(nl: Nonlinearity, p: float, r: float) -> LargeSolution1D:
    """Profile with prescribed blow-up radius r, via root solve for a.

    The center value bracket is grown geometrically from a = 1 (r(a) is
    strictly decreasing).  A bracket not found within 60 doublings or
    halvings, a non-monotone probe sequence and a stalled root solve raise
    :class:`QuadratureError` rather than return a wrong profile.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got r={r}")
    radius = lambda a: blowup_radius(nl, p, a)
    probes = [(1.0, radius(1.0))]
    # a larger center value has a smaller radius: double a while r(a) > r,
    # else halve it until r(a) >= r
    side = 1.0 if probes[0][1] > r else -1.0
    for _ in range(60):
        a = probes[-1][0] * 2.0 ** side
        probes.append((a, radius(a)))
        if side * (r - probes[-1][1]) >= 0.0:
            break
    else:
        raise QuadratureError(
            f"no center value with radius {'<=' if side > 0 else '>='} {r} "
            f"found within 60 {'doublings' if side > 0 else 'halvings'}; "
            f"probes end at {probes[-1]}")
    if not all(side * (r1 - r2) >= 0.0
               for (_, r1), (_, r2) in zip(probes, probes[1:])):
        raise QuadratureError(
            f"a -> r(a) is not monotone along the probe sequence {probes}; "
            "cannot bracket the center value reliably")
    lo, hi = sorted((probes[-2][0], probes[-1][0]))
    a = float(brentq(lambda x: radius(x) - r, lo, hi, rtol=1e-13, maxiter=200))
    r_check = radius(a)
    if abs(r_check - r) > 1e-10 * r:
        raise QuadratureError(
            f"center-value root solve stalled: r({a}) = {r_check} vs "
            f"target {r}")

    lo_dec, hi_dec = LEVEL_DECADES
    n = int(round((hi_dec - lo_dec) * LEVEL_POINTS_PER_DECADE)) + 1
    offsets = a * np.power(10.0, np.linspace(lo_dec, hi_dec, n))
    levels = a + offsets
    # truncate the ladder where F(level) - F(a) saturates double precision
    # (fast-growing nonlinearities); the remaining climb time is below any
    # representable tolerance there
    gaps_tail = np.array([nl.F_gap(a, d) for d in offsets])
    keep = np.isfinite(gaps_tail)
    levels = levels[keep]
    n = len(levels)
    inv_speed = _inverse_speed(nl, p, a)
    panels = np.empty(n)
    panels[0] = _near_integral(nl, p, a, levels[0])
    for k in range(1, n):
        panels[k] = panel_quad(inv_speed, levels[k - 1], levels[k])
    times = np.concatenate(([0.0], np.cumsum(panels)))
    phi = np.concatenate(([a], levels))
    gaps = np.concatenate(([0.0], gaps_tail[keep]))
    dphi = (p / (p - 1.0) * gaps) ** (1.0 / p)
    return LargeSolution1D(r=float(r), a=a, p=float(p), nl=nl,
                           t=times, phi=phi, dphi=dphi)


# -- cross-sectional problem ------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrossProfile:
    """Nodal solution of the cross-sectional problem on an interval.

    ``mode`` is "finite" (endpoint data ``g``) or "blowup" (final member
    of an increasing M sweep, with the stabilization residual = max nodal
    change over the last sweep step, and the sweep's first level kept as
    ``first_level``, the finite profile with g = (M_1, M_1)).
    """

    y: np.ndarray
    values: np.ndarray
    mode: str
    g: Optional[tuple] = None
    m_values: Optional[tuple] = None
    stabilization_residual: Optional[float] = None
    residual: float = 0.0
    tol: float = 0.0
    first_level: Optional["CrossProfile"] = None

    @property
    def interval(self) -> tuple:
        return (float(self.y[0]), float(self.y[-1]))

    @property
    def start(self) -> "CrossProfile":
        """The profile at the first boundary level (itself for finite
        data), which the cylinder solves start from."""
        return self if self.first_level is None else self.first_level

    def value_at(self, yq):
        return np.interp(yq, self.y, self.values)


class _CrossProblem(_CylinderProblem):
    """The cylinder's P1 energy on the segment mesh of ``y``; in the
    natural node order its Hessian is tridiagonal."""

    def __init__(self, nl, p, y, g0, g1):
        n = len(y)
        h = float(y[1] - y[0])
        cells = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        b = np.broadcast_to([[-1.0 / h], [1.0 / h]], (n - 1, 2, 1))
        free = np.ones(n, dtype=bool)
        free[0] = free[-1] = False
        boundary = np.r_[g0, np.zeros(n - 2), g1]
        super().__init__(cells, b, h, free, nl, p, boundary, h)


def _segment(interval, n_nodes: int) -> np.ndarray:
    """The ``n_nodes`` equispaced nodes of ``interval``, checked."""
    y0, y1 = float(interval[0]), float(interval[1])
    if n_nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {n_nodes}")
    if y1 <= y0:
        raise ValueError(f"degenerate interval {interval}")
    return np.linspace(y0, y1, n_nodes)


def _profile(y, level, tol, **fields) -> CrossProfile:
    """The :class:`CrossProfile` of one ``(u, stages, info)`` solve."""
    u, _, info = level
    return CrossProfile(y=y, values=u, residual=info["residual"], tol=tol,
                        **fields)


def solve_cross_finite(nl: Nonlinearity, p: float, interval, g0: float,
                       g1: float, n_nodes: int, tol: float = 1e-9,
                       max_newton: int = 200) -> CrossProfile:
    """Finite-data cross-sectional solve on ``interval`` with n_nodes:
    Newton down the whole eps ladder from min(g0, g1) at every interior
    node."""
    y = _segment(interval, n_nodes)
    g = (float(g0), float(g1))
    problem = _CrossProblem(nl, p, y, *g)
    return _profile(y, problem.minimize(tol, max_newton), tol, mode="finite",
                    g=g)


def solve_cross_large(nl: Nonlinearity, p: float, interval, M_list,
                      n_nodes: int, tol: float = 1e-9,
                      max_newton: int = 200) -> CrossProfile:
    """Blow-up data approximated by an increasing sweep of constant levels.

    One segment problem serves every level:
    :func:`plaplab.minimize.sweep_levels` sets g0 = g1 = M on it and
    solves, the first level from a cold start and each later level from
    the previous one.  Reports the final member together with the
    stabilization residual (max nodal change over the last step) and the
    first level's profile, which the cylinder solves start from.
    """
    y = _segment(interval, n_nodes)
    problem = _CrossProblem(nl, p, y, 0.0, 0.0)
    m_values, levels, changes, _ = sweep_levels(problem, M_list, tol,
                                                max_newton, problem.free)
    return _profile(y, levels[-1], tol, mode="blowup", m_values=m_values,
                    stabilization_residual=changes[-1] if changes else None,
                    first_level=_profile(y, levels[0], tol, mode="finite",
                                         g=(m_values[0], m_values[0])))
