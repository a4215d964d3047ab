"""Improper-integral helpers for absorption-rate integrals.

The integrals that decide existence of boundary blow-up profiles all have
the shape ``int_r^inf h(s) ds`` with ``h`` positive and (eventually)
decreasing, and may diverge.  Rather than mapping the tail to a finite
interval, the tail is summed over doubling panels ``[T, 2T]``; the panel
increments of a convergent integral decay geometrically, so the remainder
can be extrapolated from the measured decay ratio, while a divergent
integral fails the Cauchy test (increments never drop below a relative
threshold within the doubling budget).

Callers that need the integral from many lower limits integrate one tail
from the largest and finite panels (:func:`panel_quad`) between the
others, rather than one tail per limit; see
:func:`plaplab.nonlinearity.log_psi_p`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
# module-level names, unlike the scipy imports that nonlinearity and ode1d
# make inside the functions that use them: the benchmark's tracer test
# (perfbench/test_perfbench.py) wraps and restores ``plaplab.quadrature.quad``.
# This import is most of the time of ``import plaplab``, since
# scipy.integrate also loads scipy.optimize.
from scipy.integrate import IntegrationWarning, quad


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


#: relative increment threshold of the Cauchy divergence test
CAUCHY_TOL = 1e-8

#: doubling budget before the Cauchy verdict is made final
MAX_DOUBLINGS = 200

#: relative accuracy target of one panel, and of a whole tail integral
PANEL_REL_TOL = 1e-13
TAIL_REL_TOL = 1e-12

#: relative width below which a panel of a smooth integrand takes a fixed
#: Gauss-Legendre rule (:func:`narrow_panel_quad`) instead of QUADPACK
NARROW_PANEL = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def panel_quad(h, lo, hi):
    """Integrate ``h`` over a finite panel to ``PANEL_REL_TOL``, relaxing
    the tolerance before giving up.

    scipy's QAGS occasionally reports roundoff trouble at tolerances near
    machine precision; a short relaxation ladder keeps the result usable
    without silently accepting garbage.
    """
    last_err = None
    for eps in (PANEL_REL_TOL, 1e-11, 1e-9):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                value, _ = quad(h, lo, hi, epsabs=0.0, epsrel=eps, limit=200)
                return value
            except IntegrationWarning as exc:  # pragma: no cover - rare path
                last_err = exc
    raise QuadratureError(
        f"quadrature did not converge on [{lo!r}, {hi!r}]: {last_err}"
    )


def narrow_panel_quad(h, lo, hi):
    """Integrate a smooth ``h`` over a panel narrower than ``NARROW_PANEL``
    relative to ``hi`` with a 10-point Gauss-Legendre rule.

    QUADPACK cannot bisect a panel whose width nears the ulp of its
    position and reports it as extremely bad integrand behaviour, even
    for a nearly constant integrand; on such a panel the fixed rule is
    exact to rounding for any integrand smooth at the panel's scale.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half * math.fsum(w * h(mid + half * t)
                            for t, w in zip(_GL_NODES, _GL_WEIGHTS))


def integrate_to_infinity(h, start):
    """``int_start^inf h(s) ds`` for positive integrands, or ``inf``.

    Panels ``[start*2^k, start*2^(k+1)]`` are accumulated until the
    geometric remainder estimate drops below ``TAIL_REL_TOL`` relative to
    the running total.  Returns ``math.inf`` when the increments fail the
    Cauchy test within the doubling budget (divergent integral).

    The integrands this serves are nonincreasing, so a vanishing panel
    means the rest of the tail has underflowed as well.
    """
    if start <= 0:
        raise ValueError(f"tail integration requires start > 0, got {start}")
    total = 0.0
    prev = None
    rho = np.nan
    lo = float(start)
    inc = np.inf
    for k in range(MAX_DOUBLINGS):
        inc = panel_quad(h, lo, 2.0 * lo)
        total += inc
        if inc == 0.0 and (total > 0.0 or k >= 2):
            return total  # integrand underflowed; remaining tail negligible
        if prev is not None and prev > 0.0:
            rho = inc / prev
            if 0.0 < rho < 1.0:
                remainder = inc * rho / (1.0 - rho)
                if remainder <= TAIL_REL_TOL * total:
                    return total + remainder
        prev = inc
        lo *= 2.0
    if total == 0.0 or inc > CAUCHY_TOL * total:
        return float("inf")
    # increments below the Cauchy threshold but still above the accuracy
    # target: accept the extrapolated value rather than fail outright
    if 0.0 < rho < 1.0:
        return total + inc * rho / (1.0 - rho)
    return float("inf")
