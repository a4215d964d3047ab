"""Panel, end-point-singular and improper-integral quadrature for the
absorption-rate integrals.

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
* single panels: a root-finding probe of ``LargeSolution1D.value_at``,
  and the part of a near integral that its Gauss-Jacobi piece leaves.

The one integral that is not smooth is the profile's near integral from
its center value, ``int_0^w d^beta g(d) dd`` with ``beta = -1/p`` and a
smooth ``g``.  :func:`jacobi_quad` takes the factor ``d^beta`` as the
weight of a Gauss-Jacobi rule, so the rule is exact for it.

The integrals that decide existence of boundary blow-up profiles all have
the shape ``int_r^inf h(s) ds`` with ``h`` positive and decreasing: the
tail of Psi_p, and the tail of the blow-up radius of ``e^s - 1`` (a
power's radius has a closed form, see :mod:`plaplab.ode1d`).  Rather than
mapping the tail to a finite interval, it is summed over doubling panels
``[T, 2T]``; the panel increments of a convergent integral decay
geometrically, so the remainder can be extrapolated from the measured
decay ratio.  A tail that has not converged within the doubling budget is
a :class:`QuadratureError`: whether the integral is finite is decided
analytically, before any quadrature runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# unused here: kept so that ``plaplab.quadrature.quad`` stays a name the
# benchmark's tracer test (perfbench/test_perfbench.py) wraps and restores.
# This import, with the root finders and optimizers it loads, is most of
# the time of ``import plaplab``.
from scipy.integrate import quad  # noqa: F401
from scipy.linalg import eigh_tridiagonal


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


#: doubling panels a tail may take before it counts as not converged
MAX_DOUBLINGS = 200

#: relative accuracy target of one panel, and of a whole tail integral
PANEL_REL_TOL = 1e-13
TAIL_REL_TOL = 1e-12

#: bisection rounds of one :func:`panel_quad` sweep, and the subpanels one
#: panel may be split into, before it counts as not converged
PANEL_ROUNDS = 50
PANEL_LIMIT = 200

#: doubling panels in the first :func:`panel_quad` call of a tail; each
#: later call takes twice as many as the one before.  A radius tail of
#: e^s - 1 stops at its fifth or sixth panel, and bisection rounds spent
#: on panels past the stop are wasted
TAIL_BLOCK = 6

#: nodes of the coarser Gauss-Jacobi rule of :func:`jacobi_quad` (the finer
#: one has twice as many), the agreement that accepts a piece, and the
#: halvings of the piece before it counts as not converged
JACOBI_NODES = 20
JACOBI_REL_TOL = 1e-14
JACOBI_HALVINGS = 60

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


def jacobi_quad(g, width, beta):
    """``int_0^width d^beta g(d) dd`` for a smooth ``g`` and ``beta > -1``.

    ``g`` takes an array of offsets ``d > 0`` and returns its values
    there, elementwise.  The factor ``d^beta`` is the weight of a
    Gauss-Jacobi rule on ``[0, w]``; the piece is accepted when its
    ``JACOBI_NODES`` and ``2 JACOBI_NODES``-node values agree to
    ``JACOBI_REL_TOL``.  Otherwise ``w`` is halved, and the part
    ``[w, width]`` it leaves goes to :func:`panel_quad` as one panel, by
    then away from the singular end.  Raises :class:`QuadratureError`
    when the piece has not settled after ``JACOBI_HALVINGS`` halvings.
    """
    if width <= 0.0:
        return 0.0
    w = float(width)
    for _ in range(JACOBI_HALVINGS):
        with np.errstate(all="ignore"):  # a non-finite value never settles
            coarse, fine = (w ** (1.0 + beta) * float(weights @ g(w * nodes))
                            for nodes, weights in (
                                _jacobi_rule(JACOBI_NODES, beta),
                                _jacobi_rule(2 * JACOBI_NODES, beta)))
        if abs(fine - coarse) <= JACOBI_REL_TOL * abs(fine):
            return fine if w == width else \
                fine + panel_quad(lambda d: d ** beta * g(d), w, width)
        w *= 0.5
    raise QuadratureError(
        f"the Gauss-Jacobi piece of [0, {width!r}] with weight d^{beta!r} "
        f"did not settle after {JACOBI_HALVINGS} halvings")


@lru_cache(maxsize=64)
def _jacobi_rule(n, beta):
    """Nodes on [0, 1] and weights of the n-point Gauss rule for the
    weight ``d^beta``: Golub-Welsch on the Jacobi matrix of the shifted
    Jacobi polynomials, whose eigenvalues are the nodes and whose
    eigenvectors' first components give the weights.

    Built on [0, 1] itself, each weight is accurate to roundoff of the
    total mass ``1/(1 + beta)``; scipy's ``roots_jacobi``, built on
    [-1, 1], is off by 3e-14 of a smooth integral at beta = -1/2 and by
    2e-13 at beta = -0.999.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.concatenate((
        [(beta + 1.0) / (beta + 2.0)],
        0.5 + 0.5 * beta * beta / (s * (s + 2.0))))
    off = k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    nodes, vectors = eigh_tridiagonal(diag, off)
    return nodes, vectors[0] ** 2 / (1.0 + beta)


def integrate_to_infinity(h, start):
    """``int_start^inf h(s) ds`` for a positive, decreasing integrand.

    Panels ``[start*2^k, start*2^(k+1)]`` are accumulated until the
    geometric remainder estimate drops below ``TAIL_REL_TOL`` relative to
    the running total.  A tail still open after ``MAX_DOUBLINGS`` panels
    raises :class:`QuadratureError`; whether it converges at all is for
    the caller to decide first.

    The panels are integrated in blocks, one :func:`panel_quad` call
    each, of ``TAIL_BLOCK`` panels and then twice as many as the block
    before, and read in order; the panels of a block past the one that
    stops the sum are discarded, and a failure among them is not an
    error.  ``h`` takes arrays, as for :func:`panel_quad`.

    A vanishing panel means the rest of the tail has underflowed as well.
    """
    if start <= 0:
        raise ValueError(f"tail integration requires start > 0, got {start}")
    total = 0.0
    prev = None
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
    raise QuadratureError(
        f"the tail from {start!r} has not converged after {MAX_DOUBLINGS} "
        f"doubling panels (last increment {prev!r} of {total!r})")
