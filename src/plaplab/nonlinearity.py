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

Every value of Psi_p comes from one evaluator, :func:`log_psi_p`.  It
takes all the points a caller needs at once, sorts them, integrates one
tail from the largest and one panel between neighbours, and accumulates
``log Psi_p`` from the top.  Each panel's integrand is ``(F(s) /
F(x0))^(-1/p)``, computed from a scalar ``log F``, so e^s - 1, whose
Psi_2(1e4) is about e^(-5000), stays resolvable; the A2 probe compares
log ratios for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .quadrature import (NARROW_PANEL, QuadratureError, integrate_to_infinity,
                         narrow_panel_quad, panel_quad)

__all__ = [
    "Nonlinearity",
    "A2Report",
    "log_psi_p",
    "psi_p",
    "check_a1",
    "check_a2",
    "psi_inverse",
]

_VALIDATION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 49)))


#: Taylor coefficients 1/k! of e^d - 1 - d for k = 18 down to 2; for
#: |d| < 1 the omitted terms are below 1e-17 of the sum
_EXPM1_MINUS_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(18, 1, -1))


def _expm1_minus_series(x):
    """The Taylor sum of e^x - 1 - x, for |x| < 1 (float or array)."""
    s = 0.0
    for c in _EXPM1_MINUS_TAYLOR:
        s = s * x + c
    return x * x * s


def _expm1_minus(d):
    """exp(d) - 1 - d without cancellation: its Taylor series for |d| < 1,
    where expm1(d) and d nearly cancel, and their difference beyond.  A
    scalar stays in ``math``: the scalar calls come from quadrature
    integrands, where numpy's per-call cost dominates."""
    if np.ndim(d) == 0:
        d = float(d)
        if abs(d) < 1.0:
            return _expm1_minus_series(d)
        try:
            return math.expm1(d) - d
        except OverflowError:
            return math.inf
    d = np.asarray(d, dtype=float)
    small = np.abs(d) < 1.0
    with np.errstate(over="ignore"):
        direct = np.expm1(d) - d
    return np.where(small, _expm1_minus_series(np.where(small, d, 0.0)),
                    direct)


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
            # past s ~ 709.8 this is inf, which the solvers refuse
            with np.errstate(over="ignore"):
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
            with np.errstate(over="ignore"):
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
    """Numerical probe of the uniqueness scaling condition, in log space.

    ``log_ratio_matrix[i, j]`` holds ``log Psi_p(beta_i t_j) - log
    Psi_p(t_j)``; the log liminf per beta is estimated by the minimum over
    the largest decade of the geometric t grid.  The ratios themselves can
    overflow (``e^(3750)`` for ``f = e^s - 1``), so only their logs are
    stored.  ``log_psi_at_radii`` holds ``log Psi_p`` at the extra radii
    that were evaluated in the same sweep (see :func:`check_a2`).
    """

    beta_values: tuple
    t_values: tuple
    log_ratio_matrix: np.ndarray
    log_liminf_per_beta: tuple
    passes: bool
    margin: float = 1e-3
    log_psi_at_radii: tuple = ()

    @property
    def ratio_matrix(self) -> np.ndarray:
        """``Psi_p(beta_i t_j) / Psi_p(t_j)``; ``inf`` where it overflows."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_ratio_matrix)

    @property
    def estimated_liminf_per_beta(self) -> tuple:
        """The liminf estimates as ratios; ``inf`` where they overflow."""
        with np.errstate(over="ignore"):
            return tuple(float(v) for v in np.exp(self.log_liminf_per_beta))


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


def _log_F(nl: Nonlinearity) -> Callable[[float], float]:
    """Scalar ``s -> log F(s)`` for ``s > 0``, ``-inf`` where F vanishes.

    The built-in kinds take a closed form in ``math`` that neither
    underflows nor overflows: ``log(c/(q+1)) + (q+1) log s`` for a power,
    and ``log lam + s + log1p(-(1+s) e^-s)`` for ``e^s - 1`` when s >= 1.
    """
    if nl.kind == "power":
        c, q = nl.params
        log_coeff = math.log(c / (q + 1.0))
        return lambda s: log_coeff + (q + 1.0) * math.log(s)
    if nl.kind == "exp_minus_one":
        log_lam = math.log(nl.params[0])

        def log_F(s):
            if s >= 1.0:
                # e^s - 1 - s = e^s (1 - (1 + s) e^-s)
                return log_lam + s + math.log1p(-(1.0 + s) * math.exp(-s))
            small = _expm1_minus(s)
            return log_lam + math.log(small) if small > 0.0 else -math.inf

        return log_F

    def log_F(s):
        Fs = nl.F(s)
        return math.log(Fs) if Fs > 0.0 else -math.inf

    return log_F


def _log_panel(log_F: Callable[[float], float], p: float, lo: float,
               hi: float) -> float:
    """``log int_lo^hi F^(-1/p)`` over one finite panel, ``lo < hi``, the
    integrand scaled by F(lo) (see :func:`_log_tails`)."""
    ref = log_F(lo)
    h = lambda s: math.exp((ref - log_F(s)) / p)
    if hi - lo < NARROW_PANEL * hi:
        piece = narrow_panel_quad(h, lo, hi)
    else:
        piece = panel_quad(h, lo, hi)
    if not piece > 0.0:
        raise QuadratureError(f"Psi_p panel [{lo}, {hi}] is {piece!r}")
    return math.log(piece) - ref / p


def _log_tails(nl: Nonlinearity, p: float, log_F: Callable[[float], float],
               nodes: list) -> list:
    """``log int_x^inf F^(-1/p)`` at each of the sorted, distinct ``nodes``.

    One tail is integrated from the largest node and one panel between
    each pair of neighbours (split into doubling panels where neighbours
    lie more than a factor 2 apart); the sums are accumulated from the top
    with ``int_x^inf = int_x^y + int_y^inf``.  Each piece integrates
    ``(F(s)/F(x0))^(-1/p)`` from its left end ``x0``, where it is 1, so
    neither a huge nor a tiny F under- or overflows the integrand.
    """
    top = nodes[-1]
    ref = log_F(top)
    tail = integrate_to_infinity(lambda s: math.exp((ref - log_F(s)) / p),
                                 top)
    if math.isinf(tail):
        if nl.tail_exponent_hint is not None and nl.tail_exponent_hint + 1.0 > p:
            raise QuadratureError(
                "tail integral did not converge numerically although the "
                "tail exponent hint guarantees integrability")
        return [math.inf] * len(nodes)
    if not tail > 0.0:
        raise QuadratureError(f"tail integral from {top} is {tail!r}")
    edges = []
    for lo, hi in zip(nodes, nodes[1:]):
        while 2.0 * lo < hi:
            edges.append(lo)
            lo *= 2.0
        edges.append(lo)
    edges.append(top)
    acc = math.log(tail) - ref / p
    log_at = {top: acc}
    for lo, hi in reversed(list(zip(edges, edges[1:]))):
        acc = float(np.logaddexp(_log_panel(log_F, p, lo, hi), acc))
        log_at[lo] = acc
    return [log_at[x] for x in nodes]


def log_psi_p(nl: Nonlinearity, p: float, points) -> np.ndarray:
    """``log Psi_p`` at each of ``points``; ``+inf`` where Psi_p diverges.

    All points share one sweep: the distinct points are sorted, one tail
    is integrated from the largest and one panel between neighbours (see
    :func:`_log_tails`).  Working with logs keeps values such as
    ``Psi_2(1e4) ~ e^(-5000)`` for ``f = e^s - 1`` representable.  A point
    where F vanishes starts its integral at the first point above it
    where F is positive.
    """
    if p <= 1.0:
        raise ValueError(f"Psi_p requires p > 1, got p={p}")
    x = np.asarray(points, dtype=float)
    bad = x[~(x > 0.0)]
    if bad.size:
        raise ValueError(f"Psi_p requires r > 0, got r={bad[0]}")
    if _tail_diverges_analytically(nl, p) is True:
        return np.full(x.shape, math.inf)
    log_F = _log_F(nl)
    starts = {}
    for r in np.unique(x).tolist():
        starts[r] = r if log_F(r) > -math.inf else _first_positive_F(nl, r)
    nodes = sorted({s for s in starts.values() if s is not None})
    log_at = dict(zip(nodes, _log_tails(nl, p, log_F, nodes))) if nodes else {}
    log_const = math.log1p(-1.0 / p) / p
    out = [math.inf if starts[r] is None else log_const + log_at[starts[r]]
           for r in x.ravel().tolist()]
    return np.array(out).reshape(x.shape)


def psi_p(nl: Nonlinearity, p: float, r: float) -> float:
    """Keller-Osserman integral Psi_p(r); ``inf`` when divergent.

    The one-point case of :func:`log_psi_p`.  The value underflows to 0
    where ``log Psi_p(r) < -745``; use :func:`log_psi_p` there.
    """
    return math.exp(log_psi_p(nl, p, (r,))[0])


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
    passes when Psi_p is finite at the probe radii {1e-2, 1, 1e2}, all
    three evaluated in one sweep.
    Finiteness at one radius implies it for all larger radii (positive
    integrand); the small probes guard against non-integrable interior
    zeros of F.
    """
    diverges = _tail_diverges_analytically(nl, p)
    if diverges is not None:
        return not diverges
    return bool(np.all(log_psi_p(nl, p, (1e-2, 1.0, 1e2)) < math.inf))


#: smallest t of the A2 probe grid, its density and the pass margin
A2_T_MIN = 1.0
A2_POINTS_PER_DECADE = 4
A2_MARGIN = 1e-3


def check_a2(nl: Nonlinearity, p: float, beta_grid=(0.25, 0.5, 0.75),
             t_max: float = 1e4, radii=()) -> A2Report:
    """Estimate ``log liminf_{t->inf} Psi_p(beta t)/Psi_p(t)`` per beta.

    The liminf is rendered as the minimum of the log ratio over the
    largest decade of a geometric t grid from ``A2_T_MIN`` to ``t_max``;
    the report passes when every estimate exceeds ``log(1 + A2_MARGIN)``.
    All points t and beta t, and the optional extra ``radii``, are
    evaluated in one :func:`log_psi_p` sweep; the radii's values come back
    in ``A2Report.log_psi_at_radii``, so a caller that also tabulates
    Psi_p pays for one tail.  Raises ``ValueError`` unless ``t_max``
    exceeds ``A2_T_MIN``, and :class:`QuadratureError` when Psi_p(t_max)
    is not resolvable.
    """
    betas = tuple(float(b) for b in beta_grid)
    if any(not (0.0 < b < 1.0) for b in betas):
        raise ValueError(f"beta grid must lie in (0, 1), got {betas}")
    if not t_max > A2_T_MIN:
        raise ValueError(f"t_max must exceed the probe's smallest t "
                         f"{A2_T_MIN:g}, got {t_max}")
    if not check_a1(nl, p):
        raise ValueError("the Keller-Osserman integral diverges; the scaling "
                         "condition probe is undefined")
    n_dec = math.log10(t_max / A2_T_MIN)
    n_pts = max(int(round(n_dec * A2_POINTS_PER_DECADE)) + 1, 4)
    t_values = np.geomspace(A2_T_MIN, t_max, n_pts)
    probe = np.concatenate((t_values, np.outer(betas, t_values).ravel(),
                            np.asarray(radii, dtype=float).ravel()))
    log_psi = log_psi_p(nl, p, probe)
    log_at_t = log_psi[:n_pts]
    if not np.isfinite(log_at_t[-1]):
        raise QuadratureError(f"Psi_p({t_max}) is not resolvable above "
                              "quadrature tolerance; lower t_max")
    n_ratio = n_pts * (1 + len(betas))
    log_ratios = log_psi[n_pts:n_ratio].reshape(len(betas), n_pts) \
        - log_at_t[np.newaxis, :]
    last_decade = t_values >= t_values[-1] / 10.0
    log_liminf = tuple(float(np.min(row[last_decade])) for row in log_ratios)
    passes = all(est > math.log1p(A2_MARGIN) for est in log_liminf)
    return A2Report(beta_values=betas,
                    t_values=tuple(float(t) for t in t_values),
                    log_ratio_matrix=log_ratios,
                    log_liminf_per_beta=log_liminf, passes=passes,
                    margin=A2_MARGIN,
                    log_psi_at_radii=tuple(log_psi[n_ratio:].tolist()))


def psi_inverse(nl: Nonlinearity, p: float, d: float) -> float:
    """Solve Psi_p(v) = d for v (Psi_p is strictly decreasing where f > 0).

    The bracket grows from v = 1 by quadrupling, each step a one-point
    Psi_p; below v = 1 each quartering, and each root-solver probe in the
    final bracket, adds one panel to the known Psi_p above it instead of
    integrating another tail.  Accurate to ``|Psi_p(v) - d| <= 1e-8 *
    d``, checked against an independent :func:`psi_p`; raises
    :class:`QuadratureError` when no bracket of d is found.
    """
    if d <= 0.0:
        raise ValueError(f"psi_inverse requires d > 0, got {d}")
    log_d, log_F = math.log(d), _log_F(nl)
    log_const = math.log1p(-1.0 / p) / p
    one_point = lambda v: float(log_psi_p(nl, p, (v,))[0])

    def log_psi_below(v, hi, log_hi):
        """log Psi_p(v) for v <= hi from log Psi_p(hi)."""
        if v >= hi:
            return log_hi
        if log_F(v) == -math.inf:  # Psi_p(v) starts above v
            return one_point(v)
        return float(np.logaddexp(log_const + _log_panel(log_F, p, v, hi),
                                  log_hi))

    lo = hi = 1.0
    log_lo = log_hi = one_point(hi)
    if math.isinf(log_hi):
        raise ValueError("the Keller-Osserman integral diverges; Psi_p has "
                         "no inverse")
    grow = 0
    while log_hi > log_d:
        lo, log_lo, hi = hi, log_hi, 4.0 * hi
        log_hi = one_point(hi)
        grow += 1
        if grow > 60:
            raise QuadratureError(
                f"no v with Psi_p(v) <= {d} found below {hi:.3e}")
    shrink = 0
    while log_lo < log_d:
        hi, log_hi, lo = lo, log_lo, lo / 4.0
        log_lo = log_psi_below(lo, hi, log_hi)
        shrink += 1
        if shrink > 60:
            raise QuadratureError(
                f"d={d} exceeds sup Psi_p over the probe range (reached "
                f"Psi_p({lo:.3e}) = {math.exp(log_lo):.6e})")
    if lo == hi:
        return lo
    v = brentq(lambda x: log_psi_below(x, hi, log_hi) - log_d, lo, hi,
               rtol=1e-13, maxiter=200)
    if abs(psi_p(nl, p, v) - d) > 1e-8 * d:
        raise QuadratureError(f"psi_inverse round-trip check failed at d={d}")
    return float(v)
