"""Absorption nonlinearities and their blow-up classification.

An admissible absorption term is a nondecreasing continuous function
``f : [0, inf) -> [0, inf)`` with ``f(0) = 0``, together with its
antiderivative ``F(x) = int_0^x f``.  Whether the equation
``div(|grad u|^(p-2) grad u) = f(u)`` admits boundary blow-up solutions
is decided by finiteness of

    Psi_p(r) = (1 - 1/p)^(1/p) * int_r^inf F(s)^(-1/p) ds ,

and uniqueness of the blow-up solution additionally needs the scaling
condition ``liminf_{t->inf} Psi_p(beta*t) / Psi_p(t) > 1`` for every
``beta in (0, 1)``.  Three kinds of f are built in: ``c s^q``,
``lam (e^s - 1)`` and zero.  For them finiteness (A1) is decided
analytically (Keller 1957, Osserman 1957); the scaling condition is
probed numerically.

Every value of Psi_p comes from one evaluator, :func:`log_psi_p`.  It
takes all the points a caller needs at once, sorts them, integrates one
tail from the largest (or from 1, if larger) and one panel between
neighbours, and accumulates ``log Psi_p`` from the top.  Each panel's
integrand is ``(F(s) / F(x0))^(-1/p)``, computed from a scalar ``log F``,
so e^s - 1, whose Psi_2(1e4) is about e^(-5000), stays resolvable; the
A2 probe compares log ratios for the same reason.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import QuadratureError, integrate_to_infinity, panel_quad

__all__ = [
    "Nonlinearity",
    "A2Report",
    "log_psi_p",
    "psi_p",
    "check_a1",
    "require_a1",
    "check_a2",
]

#: the built-in kinds of absorption term
_KINDS = ("power", "exp_minus_one", "zero")

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
    scalar (``F`` at one point) stays in ``math``, where numpy's per-call
    cost would dominate."""
    if np.ndim(d) == 0:
        d = float(d)
        if abs(d) < 1.0:
            return _expm1_minus_series(d)
        try:
            return math.expm1(d) - d
        except OverflowError:
            return math.inf
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore"):
        out = np.expm1(d) - d
    small = np.abs(d) < 1.0
    if small.any():
        out[small] = _expm1_minus_series(d[small])
    return out


@dataclass(frozen=True)
class Nonlinearity:
    """Absorption term ``f`` of a built-in kind, with antiderivative ``F``.

    Instances are immutable.
    Use the constructors :meth:`power`, :meth:`exp_minus_one` and
    :meth:`zero` rather than calling the class directly.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}; "
                             f"expected one of {', '.join(_KINDS)}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def power(cls, c: float, q: float) -> "Nonlinearity":
        """f(s) = c * s**q with finite c > 0, q > 0."""
        if not (c > 0 and q > 0 and math.isfinite(c) and math.isfinite(q)):
            raise ValueError("power nonlinearity needs finite c, q > 0, "
                             f"got c={c}, q={q}")
        return cls(kind="power", params=(float(c), float(q)))

    @classmethod
    def exp_minus_one(cls, lam: float) -> "Nonlinearity":
        """f(s) = lam * (exp(s) - 1) with finite lam > 0."""
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError("exp_minus_one nonlinearity needs finite "
                             f"lam > 0, got {lam}")
        return cls(kind="exp_minus_one", params=(float(lam),))

    @classmethod
    def zero(cls) -> "Nonlinearity":
        """f identically zero (no absorption)."""
        return cls(kind="zero")

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
        return np.zeros_like(arr)

    def f_prime(self, s):
        """Derivative of :meth:`f_extended`, used for Newton linearization
        (>= 0): 0 for s < 0, where the extension is constant.  Newton
        iterates dip below 0 on a dead core (p > 2 with f growing slower
        than s^(p-1) at 0); f'(0) there would give the Hessian a curvature
        that the gradient lacks, and each step would cut the residual by
        only a tiny fraction."""
        arr = np.asarray(s, dtype=float)
        below = arr < 0.0
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
        else:
            out = np.zeros_like(arr)
        out = np.where(below, 0.0, out)
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
        return np.zeros_like(arr)

    def F_gap(self, a: float, dx):
        """F(a + dx) - F(a) for a >= 0, dx >= 0, without cancellation.

        The blow-up quadratures need this difference at offsets ``dx``
        many orders of magnitude below ``a``, where evaluating F twice and
        subtracting loses all significant digits; the offset is therefore
        taken directly rather than reconstructed from rounded endpoints.
        ``dx`` may be an array; a gap beyond the largest double reads
        ``inf``.
        """
        d = np.asarray(dx, dtype=float)
        if np.any(d < 0):
            raise ValueError("F_gap expects dx >= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "power":
                c, q = self.params
                if a == 0.0:
                    gap = c / (q + 1.0) * d ** (q + 1.0)
                else:
                    # (a+d)^(q+1) - a^(q+1) = a^(q+1) expm1((q+1) log1p(d/a))
                    gap = c / (q + 1.0) * np.power(a, q + 1.0) * np.expm1(
                        (q + 1.0) * np.log1p(d / a))
            elif self.kind == "exp_minus_one":
                (lam,) = self.params
                # e^(a+d) - e^a - d = (e^a - 1) expm1(d) + (expm1(d) - d)
                gap = _expm1_minus(d)
                if a != 0.0:  # else 0 * inf would read NaN past the overflow
                    gap = np.expm1(a) * np.expm1(d) + gap
                gap = lam * gap
            else:
                gap = np.zeros_like(d)
        # where F(a) overflows, inf * expm1(0) is NaN: a zero offset is 0
        gap = np.where(d == 0.0, 0.0, gap)
        return gap if d.ndim else float(gap)

    # -- descriptive ------------------------------------------------------

    def describe(self) -> str:
        if self.kind == "power":
            c, q = self.params
            return f"f(s) = {c:g} s^{q:g}"
        if self.kind == "exp_minus_one":
            return f"f(s) = {self.params[0]:g} (e^s - 1)"
        return "f = 0"


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

def _psi_diverges(nl: Nonlinearity, p: float) -> bool:
    """True iff Psi_p is infinite, decided from the growth of F alone:
    ``F^(-1/p) ~ s^(-(q+1)/p)`` is integrable at infinity iff q + 1 > p,
    ``e^(-s/p)`` always, and ``F = 0`` never."""
    if nl.kind == "power":
        return nl.params[1] + 1.0 <= p
    return nl.kind == "zero"


def _log_F(nl: Nonlinearity) -> Callable:
    """``s -> log F(s)`` over an array of ``s > 0``, for a kind with F > 0
    there.

    A closed form that neither underflows nor overflows:
    ``log(c/(q+1)) + (q+1) log s`` for a power; for ``e^s - 1``,
    ``log lam + s + log1p(-(1+s) e^-s)`` when s >= 1, the log of its
    Taylor sum below 1, and ``log lam + 2 log s - log 2`` where that sum
    is subnormal (s below about 1.5e-154).
    """
    if nl.kind == "power":
        c, q = nl.params
        log_coeff = math.log(c / (q + 1.0))
        return lambda s: log_coeff + (q + 1.0) * np.log(s)
    log_lam = math.log(nl.params[0])

    def log_F(s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        big = s >= 1.0
        sb = s[big]
        # e^s - 1 - s = e^s (1 - (1 + s) e^-s)
        out[big] = log_lam + sb + np.log1p(-(1.0 + sb) * np.exp(-sb))
        if not big.all():
            ss = s[~big]
            small = _expm1_minus_series(ss)
            with np.errstate(divide="ignore"):
                # subnormal: take s^2 / 2
                out[~big] = log_lam + np.where(
                    small < sys.float_info.min,
                    2.0 * np.log(ss) - math.log(2.0), np.log(small))
        return out

    return log_F


def _scaled_integrand(log_F: Callable, p: float) -> Callable:
    """``(s, ref) -> (F(s) / e^ref)^(-1/p)``: the Psi_p integrand of a
    panel scaled by ``F(x0) = e^ref`` at its left end ``x0``, where it is 1,
    so that neither a huge nor a tiny F under- or overflows it."""
    return lambda s, ref: np.exp((ref - log_F(s)) / p)


def _log_panels(log_F: Callable, p: float, lo, hi) -> np.ndarray:
    """``log int_lo^hi F^(-1/p)`` over each finite panel ``lo < hi`` of
    the arrays, all in one :func:`panel_quad` call, each integrand scaled
    by F at its panel's left end."""
    lo = np.asarray(lo, dtype=float)
    ref = log_F(lo)
    pieces = np.asarray(panel_quad(_scaled_integrand(log_F, p), lo, hi,
                                   args=(ref,)))
    if not np.all(pieces > 0.0):
        i = np.argmin(np.ravel(pieces > 0.0))
        raise QuadratureError(
            f"Psi_p panel [{np.ravel(lo)[i]}, {np.ravel(hi)[i]}] is "
            f"{np.ravel(pieces)[i]!r}")
    return np.log(pieces) - ref / p


#: From here on ``(1 + s) e^-s`` is below half an ulp of 1, so the ``log F``
#: of e^s - 1 is ``log lam + s`` to double precision.
EXP_LINEAR_LOG_F_FROM = 41.0


def _log_tails(nl: Nonlinearity, p: float, nodes: list) -> list:
    """``log int_x^inf F^(-1/p)`` at each of the sorted, distinct ``nodes``,
    for an F whose integral converges.

    One tail is integrated from the largest node, or from 1 if larger
    (near 0, e^s - 1 has F ~ s^2/2, where doubling panels shrink slowly or
    not at all, so a tail from far below 1 runs out of doublings before it
    converges), and one panel between each pair of neighbours (split into
    doubling panels where neighbours lie more than a factor 2 apart), all
    of them in one :func:`panel_quad` call; the sums are accumulated from
    the top with ``int_x^inf = int_x^y + int_y^inf``.  Each piece
    integrates ``(F(s)/F(x0))^(-1/p)`` from its left end ``x0`` (see
    :func:`_scaled_integrand`), so the tail is positive.  For e^s - 1 from
    a top at or past :data:`EXP_LINEAR_LOG_F_FROM` that scaled tail is
    ``int_top^inf e^(-(s - top)/p) ds = p``, taken without quadrature.
    """
    log_F = _log_F(nl)
    bounds = nodes if nodes[-1] >= 1.0 else nodes + [1.0]
    top = bounds[-1]
    ref = float(log_F(top))
    if nl.kind == "exp_minus_one" and top >= EXP_LINEAR_LOG_F_FROM:
        tail = p
    else:
        integrand = _scaled_integrand(log_F, p)
        tail = integrate_to_infinity(lambda s: integrand(s, ref), top)
    edges = []
    for lo, hi in zip(bounds, bounds[1:]):
        while 2.0 * lo < hi:
            edges.append(lo)
            lo *= 2.0
        edges.append(lo)
    edges.append(top)
    log_pieces = [] if len(edges) == 1 else \
        _log_panels(log_F, p, edges[:-1], edges[1:]).tolist()
    acc = math.log(tail) - ref / p
    log_at = {top: acc}
    for lo, log_piece in reversed(list(zip(edges, log_pieces))):
        acc = float(np.logaddexp(log_piece, acc))
        log_at[lo] = acc
    return [log_at[x] for x in nodes]


def log_psi_p(nl: Nonlinearity, p: float, points) -> np.ndarray:
    """``log Psi_p`` at each of ``points``; ``+inf`` where Psi_p diverges.

    All points share one sweep: the distinct points are sorted, one tail
    is integrated from the largest (or from 1, when all lie below 1) and
    one panel between neighbours (see :func:`_log_tails`).  Working with
    logs keeps values such as ``Psi_2(1e4) ~ e^(-5000)`` for ``f = e^s -
    1`` representable.  Where (A1) fails every value is ``+inf`` and
    nothing is integrated.
    """
    if p <= 1.0:
        raise ValueError(f"Psi_p requires p > 1, got p={p}")
    x = np.asarray(points, dtype=float)
    bad = x[~(x > 0.0)]
    if bad.size:
        raise ValueError(f"Psi_p requires r > 0, got r={bad[0]}")
    if _psi_diverges(nl, p):
        return np.full(x.shape, math.inf)
    nodes = np.unique(x).tolist()
    log_at = dict(zip(nodes, _log_tails(nl, p, nodes)))
    log_const = math.log1p(-1.0 / p) / p
    return np.array([log_const + log_at[r]
                     for r in x.ravel().tolist()]).reshape(x.shape)


def psi_p(nl: Nonlinearity, p: float, r: float) -> float:
    """Keller-Osserman integral Psi_p(r); ``inf`` when divergent.

    The one-point case of :func:`log_psi_p`.  The value underflows to 0
    where ``log Psi_p(r) < -745``; use :func:`log_psi_p` there.
    """
    return math.exp(log_psi_p(nl, p, (r,))[0])


def check_a1(nl: Nonlinearity, p: float) -> bool:
    """True iff Psi_p is finite (the Keller-Osserman condition).

    Decided analytically: q + 1 > p for ``c s^q``, always for
    ``lam (e^s - 1)``, never for zero.  No Psi_p is evaluated.
    """
    return not _psi_diverges(nl, p)


def require_a1(nl: Nonlinearity, p: float) -> None:
    """Refuse, with ``ValueError``, a nonlinearity failing the
    Keller-Osserman condition (A1) at p: no large solution exists then."""
    if not check_a1(nl, p):
        raise ValueError(
            f"no large solution exists: {nl.describe()} fails the "
            f"Keller-Osserman condition at p={p}: Psi_p diverges")


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
    Psi_p pays for one tail.  Raises ``ValueError`` for an empty beta
    grid, which would pass without a test, unless ``t_max`` exceeds
    ``A2_T_MIN``, and where (A1) fails (:func:`require_a1`), and
    :class:`QuadratureError` when Psi_p(t_max) is not resolvable.
    """
    betas = tuple(float(b) for b in beta_grid)
    if not betas:
        raise ValueError("the beta grid of the (A2) probe is empty")
    if any(not (0.0 < b < 1.0) for b in betas):
        raise ValueError(f"beta grid must lie in (0, 1), got {betas}")
    if not t_max > A2_T_MIN:
        raise ValueError(f"t_max must exceed the probe's smallest t "
                         f"{A2_T_MIN:g}, got {t_max}")
    require_a1(nl, p)
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
