"""The batched Gauss-Kronrod panel sweep and the doubling tail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plaplab import Nonlinearity, QuadratureError, blowup_radius, quadrature
from plaplab.ode1d import _inverse_speed, _tabulate
from plaplab.quadrature import integrate_to_infinity, panel_quad


def power_panel(alpha, lo, hi):
    """int_lo^hi s^(-alpha) ds in closed form, without cancellation."""
    return lo ** (1.0 - alpha) * math.expm1(
        (1.0 - alpha) * math.log1p((hi - lo) / lo)) / (1.0 - alpha)


class TestPanelQuad:
    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.05, 4.0), kind=st.sampled_from(["power", "exp"]),
           coeff=st.floats(0.25, 4.0), log_a=st.floats(-2.0, 2.0))
    def test_ladder_matches_quadpack_per_panel(self, p, kind, coeff, log_a):
        # the profile's whole level ladder in one call, against one
        # QUADPACK call per panel on the scalar integrand
        nl = Nonlinearity.power(coeff, 3.0) if kind == "power" \
            else Nonlinearity.exp_minus_one(coeff)
        a = 10.0 ** log_a
        levels = _tabulate(nl, p, a, 1.0).phi[1:]
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
        # blocks of one doubling panel reproduce the blocked tail bit for bit
        nl = Nonlinearity.power(2.0, 3.0)
        h = _inverse_speed(nl, 3.0, 1.0)
        blocked = integrate_to_infinity(h, 2.0)
        monkeypatch.setattr(quadrature, "TAIL_BLOCK", 1)
        assert integrate_to_infinity(h, 2.0) == blocked

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

    def test_blowup_radius_counts_only_near_integrals_on_quadpack(
            self, monkeypatch):
        # one QUADPACK call, for the near integral; the tail's doubling
        # panels all go through panel_quad
        calls = []
        original = quadrature.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "quad", counting)
        blowup_radius(Nonlinearity.power(2.0, 3.0), 2.0, 1.0)
        assert len(calls) == 1
