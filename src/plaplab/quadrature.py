"""Panel and improper-integral quadrature for the absorption-rate integrals.

Every finite panel of a smooth integrand goes through :func:`panel_quad`,
which integrates an array of panels in one vectorized, adaptive
Gauss-Kronrod sweep: QUADPACK's 21-point Kronrod rule with its embedded
10-point Gauss rule, and the panels whose estimate is not yet good enough
bisected in rounds.  Those panels are

* the steps of the blow-up profile's level ladder
  (:func:`plaplab.ode1d._tabulate`), all in one call;
* the panels between the points of one Psi_p sweep
  (:func:`plaplab.nonlinearity.log_psi_p`), all in one call;
* the doubling panels of a tail (:func:`integrate_to_infinity`), a block
  at a time;
* single panels: a root-solver probe of ``psi_inverse`` and of
  ``LargeSolution1D.value_at``.

The one integral that is not smooth is the profile's near integral from
its center value, whose integrand behaves like ``sigma^(1/(p-1))`` at the
end point after the singularity is substituted away; it stays on
QUADPACK's QAGS (:func:`singular_quad`), whose extrapolation is built for
such end points.

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

#: bisection rounds of one :func:`panel_quad` sweep, and the subpanels one
#: panel may be split into, before it counts as not converged
PANEL_ROUNDS = 50
PANEL_LIMIT = 200

#: doubling panels in the first :func:`panel_quad` call of a tail; each
#: later call takes twice as many as the one before
TAIL_BLOCK = 16

#: QUADPACK's qk21 rule on [-1, 1], by halves: the positive Kronrod nodes
#: in decreasing order, the Gauss nodes at the odd positions among them;
#: their Kronrod weights, the center's last; their Gauss weights
_X_HALF = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK_HALF = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG_HALF = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_XK = np.array(_X_HALF + (0.0,) + tuple(-x for x in reversed(_X_HALF)))
_WK = np.array(_WK_HALF + _WK_HALF[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[::-1])

_ROUNDOFF = 50.0 * np.finfo(float).eps


def _kronrod(h, a, b, args):
    """QUADPACK's qk21 on the subpanels ``[a[i], b[i]]``: rows of the
    Kronrod values, their error estimates and their roundoff floors
    ``50 eps int |h|``, below which no estimate is taken.

    Every sum runs along one row, so a subpanel's numbers do not depend
    on the other rows of the batch.
    """
    half = 0.5 * (b - a)
    f = h((0.5 * (a + b))[:, None] + half[:, None] * _XK, *args)
    fk = f * _WK
    resk = fk.sum(axis=1)
    resg = (f[:, 1::2] * _WG).sum(axis=1)
    asc = (np.abs(f - 0.5 * resk[:, None]) * _WK).sum(axis=1) * half
    out = np.empty((3, len(a)))
    out[0] = resk * half
    out[2] = np.abs(fk).sum(axis=1) * (_ROUNDOFF * half)
    err = np.abs((resk - resg) * half)
    # QUADPACK's scaling of |K21 - G10| by the spread of the integrand
    err = np.where((asc != 0.0) & (err != 0.0),
                   asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
    np.maximum(err, out[2], out=out[1])
    return out


def _per_panel(owner, rows, n):
    """The columns of the (3, m) ``rows`` summed per panel into (3, n),
    each panel's in column order, so that no other panel changes them."""
    slots = (owner + np.arange(0, 3 * n, n)[:, None]).ravel()
    return np.bincount(slots, rows.ravel(), minlength=3 * n).reshape(3, n)


def panel_quad(h, lo, hi, args=(), strict=True):
    """``int_lo^hi h(s) ds`` over every panel of the arrays ``lo <= hi``,
    of one shape.

    ``h`` takes an array of points (a 2-D array, one row per subpanel)
    and returns the integrand there, elementwise; ``args`` are per-panel
    arrays, broadcast like ``lo``, that reach ``h`` as ``h(s, *args)``
    with one value per row.  Scalar ``lo`` and ``hi`` give a float.

    All panels share one adaptive Gauss-Kronrod sweep.  Each round
    applies QUADPACK's 21-point rule to every open subpanel at once.  A
    panel is done when, as in QUADPACK, the error estimates of all its
    subpanels sum to within ``PANEL_REL_TOL`` of its value, or to no more
    than their roundoff floors ``50 eps int |h|``; a subpanel whose
    estimate is within its width's share of that tolerance, or at its
    floor, is closed; the other subpanels are bisected.  A panel's value
    depends only on its own subpanels, so it comes out bitwise the same
    whatever other panels share the call.  A panel with a non-finite
    value, or still open after ``PANEL_ROUNDS`` rounds or with more than
    ``PANEL_LIMIT`` open subpanels, raises :class:`QuadratureError`; with
    ``strict=False`` its value reads NaN instead.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    args = [np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
            for x in args]
    n = lo.size
    width = hi - lo
    owner = np.flatnonzero(width != 0.0)  # a zero-width panel is 0
    a, b = lo[owner], hi[owner]
    closed = np.zeros((3, n))  # value, error and floor of closed subpanels
    failed = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite values are checked below
        for _ in range(PANEL_ROUNDS):
            if not owner.size:
                break
            rows = _kronrod(h, a, b, [x[owner, None] for x in args])
            bad = ~np.isfinite(rows).all(axis=0)
            if bad.any():
                failed[owner[bad]] = True
                rows[:, bad] = 0.0
            whole = closed + _per_panel(owner, rows, n)
            value, err, floor = whole
            done = err <= np.maximum(PANEL_REL_TOL * np.abs(value), floor)
            if done[owner].all():
                closed = whole
                break
            share = PANEL_REL_TOL * np.abs(value[owner]) * (b - a) \
                / width[owner]
            done = ~bad & (done[owner] | (rows[1] <= np.maximum(share,
                                                                rows[2])))
            closed += _per_panel(owner[done], rows[:, done], n)
            split = ~done & ~failed[owner]
            mid = 0.5 * (a + b)
            stuck = split & ~((a < mid) & (mid < b))
            failed[owner[stuck]] = True
            split &= ~stuck
            owner = np.concatenate((owner[split], owner[split]))
            a, b = (np.concatenate((a[split], mid[split])),
                    np.concatenate((mid[split], b[split])))
            if owner.size > PANEL_LIMIT:
                crowded = np.bincount(owner, minlength=n) > PANEL_LIMIT
                failed |= crowded
                keep = ~crowded[owner]
                owner, a, b = owner[keep], a[keep], b[keep]
        else:
            failed[owner] = True  # still open when the rounds ran out
    if strict and failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise QuadratureError(
            f"quadrature did not converge on [{lo[i].item()!r}, "
            f"{hi[i].item()!r}]: a non-finite value, or open after "
            f"{PANEL_ROUNDS} rounds or with more than {PANEL_LIMIT} open "
            "subpanels")
    total = np.where(failed, np.nan, closed[0])
    return total.reshape(shape) if shape else float(total[0])


def singular_quad(h, lo, hi):
    """Integrate a scalar ``h`` over ``[lo, hi]`` with QUADPACK's QAGS to
    ``PANEL_REL_TOL``, relaxing the tolerance before giving up.

    This serves the profile's near integral, whose integrand is only
    Hölder continuous at ``lo``: QAGS's extrapolation handles that end
    point.  QAGS occasionally reports roundoff trouble at tolerances near
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

    The panels are integrated in blocks, one :func:`panel_quad` call
    each, of ``TAIL_BLOCK`` panels and then twice as many as the block
    before, and read in order; the panels of a block past the one that
    stops the sum are discarded, and a failure among them is not an
    error.  ``h`` takes arrays, as for :func:`panel_quad`.

    The integrands this serves are nonincreasing, so a vanishing panel
    means the rest of the tail has underflowed as well.
    """
    if start <= 0:
        raise ValueError(f"tail integration requires start > 0, got {start}")
    total = 0.0
    prev = None
    rho = np.nan
    inc = np.inf
    with np.errstate(over="ignore"):  # edges past the overflow are inf
        edges = float(start) * 2.0 ** np.arange(MAX_DOUBLINGS + 1)
    first, size = 0, TAIL_BLOCK
    while first < MAX_DOUBLINGS:
        block = edges[first:first + size + 1]
        incs = panel_quad(h, block[:-1], block[1:], strict=False)
        for k, inc in enumerate(incs.tolist(), start=first):
            if math.isnan(inc):
                raise QuadratureError(
                    f"tail panel [{edges[k].item()!r}, "
                    f"{edges[k + 1].item()!r}] did not converge")
            total += inc
            if inc == 0.0 and (total > 0.0 or k >= 2):
                # integrand underflowed; remaining tail negligible
                return total
            if prev is not None and prev > 0.0:
                rho = inc / prev
                if 0.0 < rho < 1.0:
                    remainder = inc * rho / (1.0 - rho)
                    if remainder <= TAIL_REL_TOL * total:
                        return total + remainder
            prev = inc
        first, size = first + size, 2 * size
    if total == 0.0 or inc > CAUCHY_TOL * total:
        return float("inf")
    # increments below the Cauchy threshold but still above the accuracy
    # target: accept the extrapolated value rather than fail outright
    if 0.0 < rho < 1.0:
        return total + inc * rho / (1.0 - rho)
    return float("inf")
