"""Absorption nonlinearities and their blow-up classification.

An admissible absorption term is a nondecreasing continuous function
``f : [0, inf) -> [0, inf)`` with ``f(0) = 0``, together with its
antiderivative ``F(x) = int_0^x f``.  Whether the equation
``div(|grad u|^(p-2) grad u) = f(u)`` admits boundary blow-up solutions
is decided by finiteness of

    Psi_p(r) = (1 - 1/p)^(1/p) * int_r^inf F(s)^(-1/p) ds ,

and uniqueness of the blow-up solution additionally needs the scaling
condition ``liminf_{t->inf} Psi_p(beta*t) / Psi_p(t) > 1`` for every
``beta in (0, 1)``.  Both are probed numerically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .quadrature import QuadratureError, integrate_to_infinity

__all__ = [
    "Nonlinearity",
    "A2Report",
    "psi_p",
    "check_a1",
    "check_a2",
    "psi_inverse",
]

_VALIDATION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 49)))


def _expm1_minus(d):
    """exp(d) - 1 - d without cancellation for small d."""
    d = np.asarray(d, dtype=float)
    small = np.abs(d) < 1e-4
    with np.errstate(over="ignore"):
        direct = np.expm1(d) - d
    series = 0.5 * d * d * (1.0 + d / 3.0 * (1.0 + d / 4.0 * (1.0 + d / 5.0)))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Nonlinearity:
    """Absorption term ``f`` with antiderivative ``F`` and tail metadata.

    Instances are immutable and safe to share between concurrent solves.
    Use the constructors :meth:`power`, :meth:`exp_minus_one`, :meth:`zero`
    and :meth:`custom` rather than calling the class directly.
    """

    kind: str
    params: tuple = ()
    tail_exponent_hint: Optional[float] = None
    f_callable: Optional[Callable] = field(default=None, repr=False)
    F_callable: Optional[Callable] = field(default=None, repr=False)

    # -- constructors -----------------------------------------------------

    @classmethod
    def power(cls, c: float, q: float) -> "Nonlinearity":
        """f(s) = c * s**q with c > 0, q > 0."""
        if c <= 0 or q <= 0:
            raise ValueError(f"power nonlinearity needs c, q > 0, got c={c}, q={q}")
        return cls(kind="power", params=(float(c), float(q)),
                   tail_exponent_hint=float(q))

    @classmethod
    def exp_minus_one(cls, lam: float) -> "Nonlinearity":
        """f(s) = lam * (exp(s) - 1) with lam > 0."""
        if lam <= 0:
            raise ValueError(f"exp_minus_one nonlinearity needs lam > 0, got {lam}")
        return cls(kind="exp_minus_one", params=(float(lam),))

    @classmethod
    def zero(cls) -> "Nonlinearity":
        """f identically zero (no absorption)."""
        return cls(kind="zero")

    @classmethod
    def custom(cls, f: Callable, F: Optional[Callable] = None,
               tail_exponent_hint: Optional[float] = None) -> "Nonlinearity":
        """Wrap a user-supplied evaluator, validating admissibility by sampling."""
        nl = cls(kind="custom", f_callable=f, F_callable=F,
                 tail_exponent_hint=tail_exponent_hint)
        nl._validate_samples()
        return nl

    def _validate_samples(self):
        vals = np.array([self.f_callable(s) for s in _VALIDATION_GRID], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("custom nonlinearity produced non-finite values")
        if abs(vals[0]) > 1e-12:
            raise ValueError(f"custom nonlinearity violates f(0)=0: f(0)={vals[0]}")
        if np.any(vals < -1e-12):
            raise ValueError("custom nonlinearity takes negative values")
        drops = np.diff(vals)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(drops < -1e-12 * scale):
            raise ValueError("custom nonlinearity is not nondecreasing")

    # -- pointwise evaluation ---------------------------------------------

    def f(self, s):
        """Evaluate f(s) for s >= 0 (scalar or array)."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0):
            raise ValueError("absorption term is only defined for s >= 0")
        return self._f_raw(arr) if arr.ndim else float(self._f_raw(arr))

    def f_extended(self, s):
        """f extended by zero to s < 0 (used inside solvers where Newton
        iterates may transiently leave [0, inf))."""
        arr = np.asarray(s, dtype=float)
        out = self._f_raw(np.maximum(arr, 0.0))
        return out if arr.ndim else float(out)

    def _f_raw(self, arr):
        if self.kind == "power":
            c, q = self.params
            return c * np.power(arr, q)
        if self.kind == "exp_minus_one":
            (lam,) = self.params
            return lam * np.expm1(arr)
        if self.kind == "zero":
            return np.zeros_like(arr)
        return np.vectorize(self.f_callable, otypes=[float])(arr)

    def f_prime(self, s):
        """Derivative of f, used for Newton linearization (>= 0)."""
        arr = np.asarray(s, dtype=float)
        arr = np.maximum(arr, 0.0)
        if self.kind == "power":
            c, q = self.params
            if q >= 1.0:
                out = c * q * np.power(arr, q - 1.0)
            else:
                # derivative is unbounded at 0; cap it to keep the Hessian finite
                out = c * q * np.power(np.maximum(arr, 1e-12), q - 1.0)
        elif self.kind == "exp_minus_one":
            (lam,) = self.params
            out = lam * np.exp(arr)
        elif self.kind == "zero":
            out = np.zeros_like(arr)
        else:
            h = 1e-6
            fp = np.vectorize(self.f_callable, otypes=[float])
            out = (fp(arr + h) - fp(np.maximum(arr - h, 0.0))) / (
                h + np.minimum(arr, h))
        return out if np.asarray(s).ndim else float(out)

    def F(self, s):
        """Antiderivative F(s) = int_0^s f, for s >= 0."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0):
            raise ValueError("antiderivative is only defined for s >= 0")
        out = self._F_raw(arr)
        return out if arr.ndim else float(out)

    def F_extended(self, s):
        """F extended by zero to s < 0 (keeps the solver energy convex)."""
        arr = np.asarray(s, dtype=float)
        out = self._F_raw(np.maximum(arr, 0.0))
        return out if arr.ndim else float(out)

    def _F_raw(self, arr):
        if self.kind == "power":
            c, q = self.params
            return c / (q + 1.0) * np.power(arr, q + 1.0)
        if self.kind == "exp_minus_one":
            (lam,) = self.params
            return lam * _expm1_minus(arr)
        if self.kind == "zero":
            return np.zeros_like(arr)
        if self.F_callable is not None:
            return np.vectorize(self.F_callable, otypes=[float])(arr)
        flat = np.atleast_1d(arr).ravel()
        vals = np.array([self._quad_F(x) for x in flat])
        return vals.reshape(np.shape(arr))

    def _quad_F(self, x):
        if x == 0.0:
            return 0.0
        try:
            val, err = quad(self.f_callable, 0.0, x, epsabs=1e-12, epsrel=1e-10,
                            limit=200)
        except Exception as exc:
            raise QuadratureError(f"antiderivative quadrature failed at {x}: {exc}")
        if err > 1e-12 + 1e-10 * abs(val):
            raise QuadratureError(
                f"antiderivative quadrature at {x}: error estimate {err:.3e} "
                f"exceeds tolerance (value {val:.6e})")
        return val

    def F_gap(self, a: float, dx: float) -> float:
        """F(a + dx) - F(a) for a >= 0, dx >= 0, without cancellation.

        The blow-up quadratures need this difference at offsets ``dx``
        many orders of magnitude below ``a``, where evaluating F twice and
        subtracting loses all significant digits; the offset is therefore
        taken directly rather than reconstructed from rounded endpoints.
        """
        if dx < 0:
            raise ValueError("F_gap expects dx >= 0")
        if dx == 0.0:
            return 0.0
        if self.kind == "power":
            c, q = self.params
            if a == 0.0:
                return c / (q + 1.0) * dx ** (q + 1.0)
            try:
                # (a+dx)^(q+1) - a^(q+1) = a^(q+1) expm1((q+1) log1p(dx/a))
                return c / (q + 1.0) * a ** (q + 1.0) * math.expm1(
                    (q + 1.0) * math.log1p(dx / a))
            except OverflowError:
                return float("inf")
        if self.kind == "exp_minus_one":
            (lam,) = self.params
            try:
                # e^(a+dx) - e^a - dx = (e^a - 1) expm1(dx) + (expm1(dx) - dx)
                return lam * (math.expm1(a) * math.expm1(dx)
                              + float(_expm1_minus(dx)))
            except OverflowError:
                return float("inf")
        if self.kind == "zero":
            return 0.0
        val, _ = quad(self.f_callable, a, a + dx, epsabs=1e-14, epsrel=1e-11,
                      limit=200)
        return val

    # -- descriptive ------------------------------------------------------

    def describe(self) -> str:
        if self.kind == "power":
            c, q = self.params
            return f"f(s) = {c:g} s^{q:g}"
        if self.kind == "exp_minus_one":
            return f"f(s) = {self.params[0]:g} (e^s - 1)"
        if self.kind == "zero":
            return "f = 0"
        return "custom f"


@dataclass(frozen=True, eq=False)
class A2Report:
    """Numerical probe of the uniqueness scaling condition.

    ``ratio_matrix[i, j]`` holds ``Psi_p(beta_i * t_j) / Psi_p(t_j)``;
    the liminf per beta is estimated by the minimum over the largest
    decade of the geometric t grid.
    """

    beta_values: tuple
    t_values: tuple
    ratio_matrix: np.ndarray
    estimated_liminf_per_beta: tuple
    passes: bool
    margin: float = 1e-3


# -- module-level operations ----------------------------------------------

def _tail_diverges_analytically(nl: Nonlinearity, p: float) -> Optional[bool]:
    """Analytic tail verdict where the growth is known exactly.

    Returns True/False when decidable, None when only numerics can tell.
    """
    if nl.kind == "zero":
        return True
    if nl.kind == "power":
        _, q = nl.params
        return q + 1.0 <= p
    if nl.kind == "exp_minus_one":
        return False
    return None


def psi_p(nl: Nonlinearity, p: float, r: float) -> float:
    """Keller-Osserman integral Psi_p(r); ``inf`` when divergent.

    The improper tail is summed over doubling panels with geometric
    remainder extrapolation; divergence is declared by the Cauchy test on
    the panel increments (see :mod:`plaplab.quadrature`).
    """
    if p <= 1.0:
        raise ValueError(f"Psi_p requires p > 1, got p={p}")
    if r <= 0.0:
        raise ValueError(f"Psi_p requires r > 0, got r={r}")
    verdict = _tail_diverges_analytically(nl, p)
    if verdict is True:
        return float("inf")

    start = float(r)
    if nl.F(start) == 0.0:
        start = _first_positive_F(nl, r)
        if start is None:
            return float("inf")  # F vanishes on [r, r + delta] and beyond

    def integrand(s):
        Fs = nl.F(s)
        if Fs <= 0.0:
            return float("inf")
        return Fs ** (-1.0 / p)

    tail = integrate_to_infinity(integrand, start)
    if math.isinf(tail):
        if nl.tail_exponent_hint is not None and nl.tail_exponent_hint + 1.0 > p:
            raise QuadratureError(
                "tail integral did not converge numerically although the "
                "tail exponent hint guarantees integrability")
        return float("inf")
    return (1.0 - 1.0 / p) ** (1.0 / p) * tail


def _first_positive_F(nl: Nonlinearity, r: float) -> Optional[float]:
    """Smallest probe point above r where F > 0, or None if F stays zero.

    Declares F identically zero ahead of r when probing up to 1e6 * r
    finds nothing; otherwise bisects the boundary of the zero set so the
    integrable-singularity case (f rising continuously from zero beyond r)
    is still handled.
    """
    hi = None
    for factor in (1.0 + 1e-6, 1.0 + 1e-3, 2.0, 10.0, 1e3, 1e6):
        if nl.F(r * factor) > 0.0:
            hi = r * factor
            break
    if hi is None:
        return None
    lo = r
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if nl.F(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def check_a1(nl: Nonlinearity, p: float) -> bool:
    """True iff Psi_p is finite (the Keller-Osserman condition).

    Decided analytically for the built-in kinds; a custom nonlinearity
    passes when Psi_p is finite at the probe radii {1e-2, 1, 1e2}.
    Finiteness at one radius implies it for all larger radii (positive
    integrand); the small probes guard against non-integrable interior
    zeros of F.
    """
    diverges = _tail_diverges_analytically(nl, p)
    if diverges is not None:
        return not diverges
    return all(math.isfinite(psi_p(nl, p, r)) for r in (1e-2, 1.0, 1e2))


#: smallest t of the A2 probe grid, its density and the pass margin
A2_T_MIN = 1.0
A2_POINTS_PER_DECADE = 4
A2_MARGIN = 1e-3


def check_a2(nl: Nonlinearity, p: float, beta_grid=(0.25, 0.5, 0.75),
             t_max: float = 1e4) -> A2Report:
    """Estimate ``liminf_{t->inf} Psi_p(beta t)/Psi_p(t)`` per beta.

    The liminf is rendered as the minimum of the ratio over the largest
    decade of a geometric t grid from ``A2_T_MIN`` to ``t_max``; the
    report passes when every estimate exceeds ``1 + A2_MARGIN``.  Raises
    :class:`QuadratureError` when Psi_p(t_max) is not resolvable.
    """
    betas = tuple(float(b) for b in beta_grid)
    if any(not (0.0 < b < 1.0) for b in betas):
        raise ValueError(f"beta grid must lie in (0, 1), got {betas}")
    if not check_a1(nl, p):
        raise ValueError("the Keller-Osserman integral diverges; the scaling "
                         "condition probe is undefined")
    n_dec = math.log10(t_max / A2_T_MIN)
    n_pts = max(int(round(n_dec * A2_POINTS_PER_DECADE)) + 1, 4)
    t_values = np.geomspace(A2_T_MIN, t_max, n_pts)
    psi_at_t = np.array([psi_p(nl, p, t) for t in t_values])
    if psi_at_t[-1] <= 0.0 or not np.isfinite(psi_at_t[-1]):
        raise QuadratureError(f"Psi_p({t_max}) is not resolvable above "
                              "quadrature tolerance; lower t_max")
    ratios = np.empty((len(betas), n_pts))
    for i, b in enumerate(betas):
        ratios[i] = [psi_p(nl, p, b * t) for t in t_values]
    ratios /= psi_at_t[np.newaxis, :]
    last_decade = t_values >= t_values[-1] / 10.0
    liminf_est = tuple(float(np.min(ratios[i, last_decade]))
                       for i in range(len(betas)))
    passes = all(est > 1.0 + A2_MARGIN for est in liminf_est)
    return A2Report(beta_values=betas, t_values=tuple(float(t) for t in t_values),
                    ratio_matrix=ratios, estimated_liminf_per_beta=liminf_est,
                    passes=passes, margin=A2_MARGIN)


def psi_inverse(nl: Nonlinearity, p: float, d: float) -> float:
    """Solve Psi_p(v) = d for v (Psi_p is strictly decreasing where f > 0).

    Accurate to ``|Psi_p(v) - d| <= 1e-8 * d``; raises
    :class:`QuadratureError` when no bracket of d is found.
    """
    if d <= 0.0:
        raise ValueError(f"psi_inverse requires d > 0, got {d}")
    psi = lambda v: psi_p(nl, p, v)
    hi = 1.0
    val_hi = psi(hi)
    if math.isinf(val_hi):
        raise ValueError("the Keller-Osserman integral diverges; Psi_p has "
                         "no inverse")
    grow = 0
    while val_hi > d:
        hi *= 4.0
        val_hi = psi(hi)
        grow += 1
        if grow > 60:
            raise QuadratureError(
                f"no v with Psi_p(v) <= {d} found below {hi:.3e}")
    lo = hi
    val_lo = val_hi
    shrink = 0
    while val_lo < d:
        lo /= 4.0
        val_lo = psi(lo)
        shrink += 1
        if shrink > 60:
            raise QuadratureError(
                f"d={d} exceeds sup Psi_p over the probe range (reached "
                f"Psi_p({lo:.3e}) = {val_lo:.6e})")
    if lo == hi:
        return lo
    v = brentq(lambda x: psi(x) - d, lo, hi, rtol=1e-13, maxiter=200)
    if abs(psi(v) - d) > 1e-8 * d:
        raise QuadratureError(f"psi_inverse round-trip check failed at d={d}")
    return float(v)
