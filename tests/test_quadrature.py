"""The batched Gauss-Kronrod panel sweep, the Gauss-Jacobi near integral
and the doubling tail."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from plaplab import Nonlinearity, QuadratureError, blowup_radius, quadrature
import plaplab.nonlinearity
from plaplab.nonlinearity import (EXP_LINEAR_LOG_F_FROM, _log_F, _log_tails,
                                  _scaled_integrand)
from plaplab.ode1d import _inverse_speed, _near_integral, _tabulate
from plaplab.quadrature import integrate_to_infinity, jacobi_quad, panel_quad


def power_panel(alpha, lo, hi):
    """int_lo^hi s^(-alpha) ds in closed form, without cancellation."""
    return lo ** (1.0 - alpha) * math.expm1(
        (1.0 - alpha) * math.log1p((hi - lo) / lo)) / (1.0 - alpha)


class TestPanelQuad:
    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.001, 4.0), kind=st.sampled_from(["power", "exp"]),
           coeff=st.floats(0.25, 4.0), log_a=st.floats(-2.0, 2.0))
    @example(p=4.0, kind="power", coeff=1.0, log_a=0.0)
    def test_ladder_matches_quadpack_per_panel(self, p, kind, coeff, log_a):
        # the profile's whole level ladder in one call, against one
        # QUADPACK call per panel on the scalar integrand; p reaches down
        # to 1.001 now that the near integral below the ladder is a
        # Gauss-Jacobi rule; an infinite radius keeps every level, also
        # at p = 4, where s^3 fails (A1) and no radius exists
        nl = Nonlinearity.power(coeff, 3.0) if kind == "power" \
            else Nonlinearity.exp_minus_one(coeff)
        a = 10.0 ** log_a
        levels = _tabulate(nl, p, a, math.inf).phi[1:]
        batched = panel_quad(_inverse_speed(nl, p, a), levels[:-1],
                             levels[1:])
        coeff_p = p / (p - 1.0)

        def scalar(s):
            return (coeff_p * nl.F_gap(a, s - a)) ** (-1.0 / p)

        for lo, hi, value in zip(levels[:-1], levels[1:], batched):
            ref, _ = quad(scalar, lo, hi, epsabs=0.0, epsrel=1e-13,
                          limit=200)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_value_does_not_depend_on_the_batch(self):
        # a panel's bits are its own: alone, reordered, or beside panels
        # that need many more bisection rounds than it does
        nl = Nonlinearity.exp_minus_one(1.0)
        h = _inverse_speed(nl, 2.0, 0.5)
        lo = 2.0 ** np.arange(12)
        hi = 2.0 * lo
        together = panel_quad(h, lo, hi)
        for k in range(len(lo)):
            assert panel_quad(h, lo[k], hi[k]) == together[k]
        order = np.random.default_rng(3).permutation(len(lo))
        shuffled = panel_quad(h, lo[order], hi[order])
        assert np.array_equal(shuffled, together[order])
        assert np.array_equal(panel_quad(h, lo[::3], hi[::3]), together[::3])

    def test_tail_does_not_depend_on_its_blocks(self, monkeypatch):
        # blocks that start at one doubling panel, or at more panels than
        # the tail reads, reproduce the blocked tail bit for bit: a slow
        # power tail and an e^s - 1 tail that stops at its sixth panel
        tails = [(_inverse_speed(Nonlinearity.power(2.0, 3.0), 3.0, 1.0), 2.0),
                 (_inverse_speed(Nonlinearity.exp_minus_one(1.0), 2.0, 1.0),
                  2.0)]
        blocked = [integrate_to_infinity(h, start) for h, start in tails]
        for size in (1, 16):
            monkeypatch.setattr(quadrature, "TAIL_BLOCK", size)
            assert [integrate_to_infinity(h, start)
                    for h, start in tails] == blocked

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("width", [1e-9, 1e-12, 1e-15])
    def test_narrow_panel_meets_its_closed_form(self, alpha, width):
        # far below 1e-8 relative width K21 and G10 agree to rounding, so
        # the panel closes in the first round
        lo = 3.7
        hi = lo * (1.0 + width)
        value = panel_quad(lambda s: s ** -alpha, lo, hi)
        assert value == pytest.approx(power_panel(alpha, lo, hi), rel=1e-13)

    def test_zero_width_panel_is_zero(self):
        values = panel_quad(lambda s: 1.0 / (s - 1.0), [1.0, 2.0], [1.0, 3.0])
        assert values[0] == 0.0
        assert values[1] == pytest.approx(math.log(2.0), rel=1e-14)

    def test_args_reach_the_integrand_per_panel(self):
        lo = np.array([1.0, 2.0, 5.0])
        alpha = np.array([0.5, 2.0, 4.0])
        values = panel_quad(lambda s, a: s ** -a, lo, lo + 1.0, args=(alpha,))
        expected = [power_panel(*x) for x in zip(alpha, lo, lo + 1.0)]
        assert values == pytest.approx(expected, rel=1e-14)

    def test_non_finite_panel_fails_alone(self):
        def h(s):
            return np.where(s < 2.0, 1.0 / s, np.nan)

        lo, hi = np.array([1.0, 2.0]), np.array([2.0, 3.0])
        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            panel_quad(h, lo, hi)
        values = panel_quad(h, lo, hi, strict=False)
        assert values[0] == panel_quad(h, 1.0, 2.0)
        assert math.isnan(values[1])

    def test_divergent_panel_exhausts_the_budget(self):
        # a pole that is not integrable: each round halves the subpanel
        # that holds it, and its error estimate only grows
        pole = math.sqrt(2.0)
        with pytest.raises(QuadratureError, match="50 rounds"):
            panel_quad(lambda s: (s - pole) ** -2.0, 0.0, 4.0)


class TestTail:
    def test_power_tail(self):
        assert integrate_to_infinity(lambda s: s ** -3.0, 1.0) == \
            pytest.approx(0.5, rel=1e-12)

    def test_failure_past_the_stop_is_discarded(self):
        # s^-3 stops after about 20 doublings; the panels past 2^40 in the
        # second block are NaN and never read
        def h(s):
            return np.where(s < 2.0 ** 40, s ** -3.0, np.nan)

        assert integrate_to_infinity(h, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_failure_before_the_stop_raises(self):
        def h(s):
            return np.where(s < 2.0 ** 10, s ** -3.0, np.nan)

        with pytest.raises(QuadratureError, match="tail panel"):
            integrate_to_infinity(h, 1.0)

    def test_divergent_tail_raises(self):
        # the doubling panels of 1/s never shrink: no verdict, an error
        with pytest.raises(QuadratureError, match="200 doubling panels"):
            integrate_to_infinity(lambda s: 1.0 / s, 1.0)

    def test_exponential_tail_stops_within_its_first_block(self):
        # a radius tail of e^s - 1 stops by its sixth panel, so its first
        # block of TAIL_BLOCK panels holds the stop and no panel past it
        # beyond the block is integrated
        blocks = []
        original = quadrature.panel_quad

        def counting(h, lo, hi, *args, **kwargs):
            blocks.append(np.size(lo))
            return original(h, lo, hi, *args, **kwargs)

        h = _inverse_speed(Nonlinearity.exp_minus_one(1.0), 2.0, 1.0)
        with mock.patch.object(quadrature, "panel_quad", counting):
            integrate_to_infinity(h, 2.0)
        assert blocks == [quadrature.TAIL_BLOCK]

    def test_blowup_radius_makes_no_quadpack_call(self, monkeypatch):
        # the near integral is a Gauss-Jacobi rule and the tail's doubling
        # panels go through panel_quad; a power's radius is its closed
        # form and integrates nothing
        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK was called")

        monkeypatch.setattr(quadrature, "quad", refuse)
        monkeypatch.setattr("scipy.integrate.quad", refuse)
        calls = []
        original = quadrature.panel_quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "panel_quad", counting)
        monkeypatch.setattr("plaplab.ode1d.panel_quad", counting)
        assert blowup_radius(Nonlinearity.power(2.0, 3.0), 2.0, 1.0) > 0.0
        assert not calls
        assert blowup_radius(Nonlinearity.exp_minus_one(1.0), 2.0, 1.0) > 0.0
        assert calls


class TestJacobi:
    @pytest.mark.parametrize("beta", [-0.999, -0.5, -1.0 / 3.0])
    @pytest.mark.parametrize("degree", [0, 3, 19])
    def test_exact_for_polynomials(self, beta, degree):
        # 20 nodes integrate d^beta g exactly for g of degree below 40, so
        # the two rules agree on the first piece: no panel is integrated.
        # Each weight is exact to roundoff of the total mass 1/(1 + beta),
        # so the width keeps g within a factor 7 of g(0)
        width = 0.1
        want = sum(math.comb(degree, j) * width ** (j + 1.0 + beta)
                   / (j + 1.0 + beta) for j in range(degree + 1))
        with mock.patch.object(quadrature, "panel_quad", None):
            got = jacobi_quad(lambda d: (1.0 + d) ** degree, width, beta)
        assert got == pytest.approx(want, rel=1e-14)

    def test_halves_until_the_two_rules_agree(self):
        # e^(-40 d) needs far more than 40 nodes on [0, 4]: the Jacobi piece
        # is halved, and panel_quad takes the rest
        beta = -0.5
        got = jacobi_quad(lambda d: np.exp(-40.0 * d), 4.0, beta)
        # int_0^inf d^(-1/2) e^(-40 d) = sqrt(pi / 40), less a tail of e^-160
        assert got == pytest.approx(math.sqrt(math.pi / 40.0), rel=1e-13)

    def test_zero_width_is_zero(self):
        assert jacobi_quad(lambda d: np.ones_like(d), 0.0, -0.5) == 0.0

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="Gauss-Jacobi"):
            jacobi_quad(lambda d: np.full_like(d, np.nan), 1.0, -0.5)


def power_and_point(draw):
    """power(c, q) at p in (A1), with a tail that decays like s^(-k/p),
    k/p = (q + 1)/p - 1 >= 0.25, and a point a."""
    p = draw(st.floats(1.001, 4.0))
    e = draw(st.floats(0.25, 4.0))
    c = draw(st.floats(1e-3, 1e3))
    a = 10.0 ** draw(st.floats(-3.0, 3.0))
    return c, (e + 1.0) * p - 1.0, p, a


class TestPowerReference:
    """The closed forms of a power's r(a) and Psi_p against the quadrature
    that integrates e^s - 1: the Gauss-Jacobi near integral, the panels
    and the doubling tail."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_radius_closed_form_matches_quadrature(self, data):
        c, q, p, a = power_and_point(data.draw)
        nl = Nonlinearity.power(c, q)
        quadrature_radius = _near_integral(nl, p, a, 2.0 * a) \
            + integrate_to_infinity(_inverse_speed(nl, p, a), 2.0 * a)
        assert blowup_radius(nl, p, a) == pytest.approx(quadrature_radius,
                                                        rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ladder_times_match_the_incomplete_beta(self, data):
        # with w = (1 + d/a)^(-m), m = q + 1, the time to the offset d is
        # r(a) I_(1-w)(1 - 1/p, 1/p - 1/m), taken through the complement
        # where 1 - w >= 1/2.  Over 600 draws the worst level read 8.7e-15;
        # panels integrated in the level s, which rounds the offset, were
        # off by up to 1.2e-11 just above the center value
        c, q, p, a = power_and_point(data.draw)
        m = q + 1.0
        alpha, beta = 1.0 / p - 1.0 / m, 1.0 - 1.0 / p
        r = blowup_radius(Nonlinearity.power(c, q), p, a)
        sol = _tabulate(Nonlinearity.power(c, q), p, a, r)
        log_w = -m * np.log1p((sol.phi[1:] - a) / a)
        x = -np.expm1(log_w)
        share = np.where(x < 0.5, betainc(beta, alpha, np.minimum(x, 0.5)),
                         1.0 - betainc(alpha, beta, np.exp(log_w)))
        assert np.max(np.abs(sol.t[1:] / (r * share) - 1.0)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_psi_closed_form_matches_the_tail_sweep(self, data):
        # log Psi_p(r) = log((p-1)/p)/p - log(c/m)/p + (1 - m/p) log r
        #                - log(m/p - 1), m = q + 1
        c, q, p, r = power_and_point(data.draw)
        m = q + 1.0
        closed = (math.log1p(-1.0 / p) / p - math.log(c / m) / p
                  + (1.0 - m / p) * math.log(r) - math.log((m - p) / p))
        swept = math.log1p(-1.0 / p) / p + _log_tails(
            Nonlinearity.power(c, q), p, [r])[0]
        assert swept == pytest.approx(closed, abs=1e-12)


class TestExponentialTail:
    """The scaled Psi_p tail of e^s - 1 in closed form past s = 41."""

    def test_threshold_is_where_the_correction_drops_below_half_an_ulp(self):
        # log F(s) = log lam + s + log1p(-(1 + s) e^-s)
        top = EXP_LINEAR_LOG_F_FROM
        assert (1.0 + top) * math.exp(-top) < 2.0 ** -53 <= \
            top * math.exp(1.0 - top)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("top", [41.0, 100.0, 1e4])
    def test_closed_tail_matches_the_doubling_tail(self, top, p, lam,
                                                   monkeypatch):
        # log int_top^inf F^(-1/p) = log p - log F(top)/p.  The doubling
        # tail's own nodes near 1e4 round by 1.8e-12, so its scaled tail
        # reads up to 8e-14 from p there; the logs agree to 1e-15
        nl = Nonlinearity.exp_minus_one(lam)
        log_F = _log_F(nl)
        ref = float(log_F(top))
        integrand = _scaled_integrand(log_F, p)
        swept = math.log(integrate_to_infinity(
            lambda s: integrand(s, ref), top)) - ref / p

        def refuse(*args, **kwargs):
            raise AssertionError("the tail was integrated")

        monkeypatch.setattr(plaplab.nonlinearity, "integrate_to_infinity",
                            refuse)
        monkeypatch.setattr(plaplab.nonlinearity, "panel_quad", refuse)
        closed = _log_tails(nl, p, [top])
        assert closed == [math.log(p) - ref / p]
        assert closed == pytest.approx([swept], rel=1e-15)

    def test_tail_below_the_threshold_is_integrated(self, monkeypatch):
        calls = []
        original = plaplab.nonlinearity.integrate_to_infinity

        def counting(h, start):
            calls.append(start)
            return original(h, start)

        monkeypatch.setattr(plaplab.nonlinearity, "integrate_to_infinity",
                            counting)
        _log_tails(Nonlinearity.exp_minus_one(1.0), 2.0, [40.0])
        _log_tails(Nonlinearity.power(2.0, 3.0), 2.0, [1e4])
        assert calls == [40.0, 1e4]
