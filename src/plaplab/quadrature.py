"""Improper-integral helpers for absorption-rate integrals.

The integrals that decide existence of boundary blow-up profiles all have
the shape ``int_r^inf h(s) ds`` with ``h`` positive and (eventually)
decreasing, and may diverge.  Rather than mapping the tail to a finite
interval, the tail is summed over doubling panels ``[T, 2T]``; the panel
increments of a convergent integral decay geometrically, so the remainder
can be extrapolated from the measured decay ratio, while a divergent
integral fails the Cauchy test (increments never drop below a relative
threshold within the doubling budget).
"""

from __future__ import annotations

import warnings

import numpy as np
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
