"""Absorption terms, the blow-up classification integral and its inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import Nonlinearity, check_a1, check_a2, psi_inverse, psi_p

E_MINUS_2 = 0.7182818284590452  # exp(1) - 2, closed-form antiderivative value


def psi_power_closed_form(c, q, p, r):
    """((p-1)/p)^(1/p) ((q+1)/c)^(1/p) (p/(q+1-p)) r^(-(q+1-p)/p).

    Independent oracle: for f = c s^q with q + 1 > p the tail integral has
    an elementary antiderivative.
    """
    assert q + 1 > p
    return ((p - 1) / p) ** (1 / p) * ((q + 1) / c) ** (1 / p) \
        * p / (q + 1 - p) * r ** (-(q + 1 - p) / p)


class TestPointwise:
    def test_power_eval(self):
        nl = Nonlinearity.power(2, 3)
        assert nl.f(1.0) == 2.0
        assert nl.F(2.0) == pytest.approx(8.0, abs=0)

    def test_f_vanishes_at_zero(self):
        for nl in (Nonlinearity.power(2, 3), Nonlinearity.exp_minus_one(1.0),
                   Nonlinearity.zero()):
            assert nl.f(0.0) == 0.0
            assert nl.F(0.0) == 0.0

    def test_exp_minus_one(self):
        nl = Nonlinearity.exp_minus_one(1.0)
        assert nl.f(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
        assert nl.F(1.0) == pytest.approx(E_MINUS_2, rel=1e-14)

    def test_zero_everywhere(self):
        nl = Nonlinearity.zero()
        assert nl.F(17.3) == 0.0

    def test_negative_argument_rejected(self):
        nl = Nonlinearity.power(2, 3)
        with pytest.raises(ValueError):
            nl.f(-1.0)
        with pytest.raises(ValueError):
            nl.F(-0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity.power(-1.0, 3.0)
        with pytest.raises(ValueError):
            Nonlinearity.power(1.0, 0.0)
        with pytest.raises(ValueError):
            Nonlinearity.exp_minus_one(0.0)

    def test_monotonicity_sampled(self):
        rng = np.random.default_rng(11)
        for nl in (Nonlinearity.power(2, 3), Nonlinearity.power(0.5, 0.7),
                   Nonlinearity.exp_minus_one(2.0), Nonlinearity.zero()):
            pairs = rng.uniform(0.0, 50.0, size=(1000, 2))
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            assert np.all(nl.f(lo) <= nl.f(hi) * (1 + 1e-15) + 1e-300)
            assert np.all(nl.F(lo) <= nl.F(hi) * (1 + 1e-15) + 1e-300)

    def test_F_convexity_sampled(self):
        rng = np.random.default_rng(7)
        for nl in (Nonlinearity.power(2, 3), Nonlinearity.exp_minus_one(1.0)):
            s = rng.uniform(0.0, 20.0, size=(500, 2))
            lam = rng.uniform(0.0, 1.0, size=500)
            mid = lam * s[:, 0] + (1 - lam) * s[:, 1]
            lhs = nl.F(mid)
            rhs = lam * nl.F(s[:, 0]) + (1 - lam) * nl.F(s[:, 1])
            bound = np.max(np.maximum(nl.F(s[:, 0]), nl.F(s[:, 1])))
            assert np.all(lhs <= rhs + 1e-12 * bound)

    def test_F_gap_matches_direct_difference(self):
        nl = Nonlinearity.power(2, 3)
        assert nl.F_gap(1.0, 1.0) == pytest.approx(nl.F(2.0) - nl.F(1.0),
                                                   rel=1e-14)
        # tiny offsets where the direct difference loses all digits
        a, dx = 3.0, 1e-13
        assert nl.F_gap(a, dx) == pytest.approx(nl.f(a) * dx, rel=1e-10)


class TestCustomValidation:
    def test_valid_custom_matches_power(self):
        nl = Nonlinearity.custom(lambda s: 2.0 * s ** 3,
                                 tail_exponent_hint=3.0)
        assert nl.F(2.0) == pytest.approx(8.0, rel=1e-9)
        assert psi_p(nl, 2.0, 1.0) == pytest.approx(1.0, rel=1e-7)

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(ValueError, match="f\\(0\\)=0"):
            Nonlinearity.custom(lambda s: s + 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Nonlinearity.custom(lambda s: -s)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            Nonlinearity.custom(lambda s: s * math.exp(-s))


class TestPsi:
    def test_closed_form_oracle_grid(self):
        for p in (1.5, 2.0, 3.0):
            for q in (2.0, 3.0, 5.0):
                if q + 1 <= p:
                    continue
                nl = Nonlinearity.power(1.0, q)
                for r in (0.5, 1.0, 2.0):
                    expected = psi_power_closed_form(1.0, q, p, r)
                    assert psi_p(nl, p, r) == pytest.approx(expected,
                                                            rel=1e-7)

    def test_power23_is_one_over_r(self):
        nl = Nonlinearity.power(2, 3)
        for r in (0.5, 1.0, 2.0, 4.0):
            assert psi_p(nl, 2.0, r) == pytest.approx(1.0 / r, rel=1e-7)

    def test_power15_closed_value(self):
        assert psi_p(Nonlinearity.power(1, 5), 3.0, 1.0) == pytest.approx(
            4.0 ** (1.0 / 3.0), rel=1e-7)

    def test_logarithmic_tail_diverges(self):
        assert math.isinf(psi_p(Nonlinearity.power(1, 1), 2.0, 1.0))

    def test_zero_diverges(self):
        assert math.isinf(psi_p(Nonlinearity.zero(), 2.0, 1.0))

    def test_domain_errors(self):
        nl = Nonlinearity.power(2, 3)
        with pytest.raises(ValueError):
            psi_p(nl, 1.0, 1.0)
        with pytest.raises(ValueError):
            psi_p(nl, 2.0, 0.0)

    def test_decreasing_in_r(self):
        nl = Nonlinearity.power(2, 3)
        radii = (0.3, 1.0, 3.0, 10.0)
        values = [psi_p(nl, 2.5, r) for r in radii]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_exp_tail_is_finite(self):
        assert math.isfinite(psi_p(Nonlinearity.exp_minus_one(1.0), 1.5, 0.5))

    def test_underflowed_tail_is_zero_not_divergent(self):
        # F overflows at r ~ 800, so the integrand underflows; the value is
        # an unrepresentably small positive number, not a divergence
        assert psi_p(Nonlinearity.exp_minus_one(1.0), 2.0, 800.0) == 0.0


class TestA1:
    def test_verdicts(self):
        assert check_a1(Nonlinearity.power(2, 3), 2.0) is True
        assert check_a1(Nonlinearity.power(1, 1), 2.0) is False
        assert check_a1(Nonlinearity.zero(), 2.0) is False
        assert check_a1(Nonlinearity.zero(), 3.0) is False
        assert check_a1(Nonlinearity.exp_minus_one(1.0), 3.0) is True

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-3, 1e3), q=st.floats(1e-3, 10.0),
           p=st.floats(1.0, 6.0, exclude_min=True))
    def test_power_follows_the_keller_osserman_rule(self, c, q, p):
        # Keller (1957), Osserman (1957): finite iff q + 1 > p
        assert check_a1(Nonlinearity.power(c, q), p) is (q + 1.0 > p)

    @pytest.mark.parametrize("q, p", [(3.0, 1.5), (3.0, 2.0), (3.0, 3.0),
                                      (0.5, 2.0), (1.0, 3.0), (1.0, 2.0),
                                      (5.0, 2.0)])
    def test_numeric_probe_of_custom_power_agrees(self, q, p):
        nl = Nonlinearity.custom(lambda s: s ** q)
        assert check_a1(nl, p) is (q + 1.0 > p)


class TestA2:
    def test_power23_reproduces_inverse_beta(self):
        rep = check_a2(Nonlinearity.power(2, 3), 2.0,
                       beta_grid=(0.25, 0.5, 0.75), t_max=1e4)
        assert rep.passes
        for beta, est in zip(rep.beta_values, rep.estimated_liminf_per_beta):
            assert est == pytest.approx(1.0 / beta, rel=1e-4)

    def test_power_scaling_exponent(self):
        # Psi ~ r^(-(q+1-p)/p) so the ratio at beta=0.5 is 2^((q+1-p)/p) = 2
        rep = check_a2(Nonlinearity.power(1, 5), 3.0, beta_grid=(0.5,),
                       t_max=1e3)
        assert rep.estimated_liminf_per_beta[0] == pytest.approx(2.0,
                                                                 rel=1e-6)

    def test_estimates_decrease_toward_one(self):
        rep = check_a2(Nonlinearity.power(2, 3), 2.0,
                       beta_grid=(0.5, 0.9, 0.99), t_max=1e3)
        ests = rep.estimated_liminf_per_beta
        assert ests[0] > ests[1] > ests[2] > 1.0

    def test_ratio_matrix_at_least_one(self):
        rep = check_a2(Nonlinearity.power(2, 3), 2.0, t_max=1e3)
        assert np.all(rep.ratio_matrix >= 1.0 - 1e-12)

    def test_requires_keller_osserman(self):
        with pytest.raises(ValueError, match="diverges"):
            check_a2(Nonlinearity.power(1, 1), 2.0)

    def test_beta_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            check_a2(Nonlinearity.power(2, 3), 2.0, beta_grid=(1.5,))


class TestPsiInverse:
    def test_closed_form_values(self):
        nl = Nonlinearity.power(2, 3)
        assert psi_inverse(nl, 2.0, 0.5) == pytest.approx(2.0, rel=1e-8)
        assert psi_inverse(nl, 2.0, 0.25) == pytest.approx(4.0, rel=1e-8)

    def test_round_trip(self):
        nl = Nonlinearity.power(2, 3)
        for d in (0.1, 1.0, 10.0):
            v = psi_inverse(nl, 2.0, d)
            assert psi_p(nl, 2.0, v) == pytest.approx(d, rel=1e-7)
        for d in (0.05, 0.8):
            v = psi_inverse(nl, 1.5, d)
            assert psi_p(nl, 1.5, v) == pytest.approx(d, rel=1e-6)

    def test_unreachable_level_raises(self):
        # for p = 3 the exponential tail gives a bounded Psi near zero
        nl = Nonlinearity.exp_minus_one(1.0)
        sup = psi_p(nl, 3.0, 1e-12)
        with pytest.raises(ValueError, match="exceeds sup"):
            psi_inverse(nl, 3.0, 10.0 * sup)

    def test_divergent_psi_raises(self):
        with pytest.raises(ValueError):
            psi_inverse(Nonlinearity.power(1, 1), 2.0, 1.0)
