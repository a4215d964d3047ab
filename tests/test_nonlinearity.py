"""Absorption terms and the blow-up classification integral."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plaplab.nonlinearity
import plaplab.quadrature
from plaplab import (Nonlinearity, QuadratureError, check_a1, check_a2,
                     log_psi_p, psi_p)

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

    def test_power_derivative_below_one(self):
        # q < 1 (the dead-core regime): s^(q-1) is unbounded at 0, so the
        # derivative is capped at s = 1e-12 and is 0 below 0, where the
        # extension is constant
        c, q = 1.5, 0.5
        nl = Nonlinearity.power(c, q)
        assert nl.f_prime(0.0) == c * q * 1e-12 ** (q - 1.0)
        assert math.isfinite(nl.f_prime(0.0))
        assert nl.f_prime(1e-14) == nl.f_prime(0.0)
        assert np.all(nl.f_prime(np.array([-1e-14, -1.0, -1e3])) == 0.0)
        s = np.array([1e-12, 1e-6, 0.3, 2.0, 1e4])
        np.testing.assert_allclose(nl.f_prime(s), c * q * s ** (q - 1.0),
                                   rtol=1e-15)

    def test_exp_minus_one(self):
        nl = Nonlinearity.exp_minus_one(1.0)
        assert nl.f(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
        assert nl.F(1.0) == pytest.approx(E_MINUS_2, rel=1e-14)

    def test_exp_minus_one_antiderivative_against_mpmath(self):
        # expm1(s) - s loses digits to cancellation for small s (1.3e-12
        # relative at s = 1.35e-4); checked against 50 digits up to s = 700,
        # just below overflow, on the array and the scalar path
        mp = pytest.importorskip("mpmath")
        nl = Nonlinearity.exp_minus_one(1.0)
        s = np.concatenate((np.geomspace(1e-8, 700.0, 2001),
                            [1e-4, 1.35e-4, 2e-4, np.nextafter(1.0, 0.0),
                             1.0]))
        with mp.workdps(50):
            for x, array_value in zip(s, nl.F(s)):
                exact = mp.expm1(mp.mpf(x)) - mp.mpf(x)
                for v in (array_value, nl.F(float(x))):
                    assert abs(mp.mpf(v) / exact - 1) <= 1e-15, x

    def test_zero_everywhere(self):
        nl = Nonlinearity.zero()
        assert nl.F(17.3) == 0.0

    def test_negative_argument_rejected(self):
        nl = Nonlinearity.power(2, 3)
        with pytest.raises(ValueError):
            nl.f(-1.0)
        for s in (-0.5, np.array([1.0, -1e-300])):
            with pytest.raises(ValueError, match="antiderivative is only "
                                                 "defined for s >= 0"):
                nl.F(s)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity.power(-1.0, 3.0)
        with pytest.raises(ValueError):
            Nonlinearity.power(1.0, 0.0)
        with pytest.raises(ValueError):
            Nonlinearity.exp_minus_one(0.0)

    @pytest.mark.parametrize("c,q", [(math.nan, 3.0), (2.0, math.nan),
                                     (math.inf, 3.0), (2.0, math.inf)])
    def test_non_finite_power_rejected(self, c, q):
        with pytest.raises(ValueError, match="finite"):
            Nonlinearity.power(c, q)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_exp_minus_one_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            Nonlinearity.exp_minus_one(lam)

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

    @pytest.mark.parametrize("nl", [Nonlinearity.power(2, 3),
                                    Nonlinearity.exp_minus_one(1.0),
                                    Nonlinearity.zero()],
                             ids=["power", "exp", "zero"])
    @pytest.mark.parametrize("a", [0.0, 1e-3, 2.0, 700.0, 1e300])
    def test_F_gap_array_matches_scalar(self, nl, a):
        # each offset alone reads what it reads in the array: 0 at a zero
        # offset, inf where the gap overflows, even where F(a) itself does
        dx = np.concatenate(([0.0], np.geomspace(1e-12, 1e12, 49)))
        gaps = nl.F_gap(a, dx)
        scalar = np.array([nl.F_gap(a, float(d)) for d in dx])
        assert gaps[0] == 0.0
        assert np.array_equal(np.isinf(gaps), np.isinf(scalar))
        finite = np.isfinite(scalar)
        assert gaps[finite] == pytest.approx(scalar[finite], rel=1e-14,
                                             abs=0.0)

    def test_F_gap_array_rejects_a_negative_offset(self):
        with pytest.raises(ValueError, match="dx >= 0"):
            Nonlinearity.power(2, 3).F_gap(1.0, np.array([1.0, -1e-3]))


#: points at which F, F_extended and F_gap(0, .) must agree: 0, subnormal,
#: both sides of |s| = 1, where e^s - 1 - s changes formula, and 800,
#: where e^s - 1 overflows
F_POINTS = np.array([0.0, 5e-324, 1e-310, 1e-8, 0.5, np.nextafter(1.0, 0.0),
                     1.0, 2.0, 30.0, 700.0, 800.0])


class TestOneClosedForm:
    @pytest.mark.parametrize("nl", [Nonlinearity.power(2, 3),
                                    Nonlinearity.power(0.5, 0.7),
                                    Nonlinearity.exp_minus_one(1.0),
                                    Nonlinearity.zero()],
                             ids=["power23", "power_sublinear", "exp",
                                  "zero"])
    def test_F_F_extended_and_gap_from_zero_agree_bitwise(self, nl):
        # F is F_gap from 0: one closed form per kind, on arrays and on
        # scalars alike
        gap = nl.F_gap(0.0, F_POINTS)
        for values in (nl.F(F_POINTS), nl.F_extended(F_POINTS)):
            assert values.tobytes() == gap.tobytes()
        for s, expected in zip(F_POINTS, gap):
            for value in (nl.F(float(s)), nl.F_extended(float(s)),
                          nl.F_gap(0.0, float(s))):
                assert type(value) is float
                assert np.float64(value).tobytes() == expected.tobytes()
        assert gap[0] == 0.0
        assert np.isinf(gap[-1]) == (nl.kind == "exp_minus_one")
        assert nl.F_extended(np.array([-3.0, -5e-324])).tolist() == [0.0, 0.0]

    def test_expm1_minus_on_zero_d_and_n_d_inputs(self):
        # one array path: a 0-d input and a float read what they read in
        # an array, on both sides of |d| = 1 where the formula changes
        one_below = np.nextafter(1.0, 0.0)
        d = np.array([-3.0, -1.0, -one_below, -0.5, -1e-8, 0.0, 5e-324,
                      1e-8, 0.5, one_below, 1.0, 1.5, 3.0, 50.0, 710.0,
                      800.0])
        whole = plaplab.nonlinearity._expm1_minus(d)
        for x, expected in zip(d, whole):
            for single in (np.array(x), float(x)):
                value = plaplab.nonlinearity._expm1_minus(single)
                assert np.ndim(value) == 0
                assert np.float64(value).tobytes() == expected.tobytes()
        assert whole[-1] == math.inf


class TestKinds:
    @pytest.mark.parametrize("kind", ["custom", "Power", "exp"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown nonlinearity kind"):
            Nonlinearity(kind=kind)


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

    def test_far_exponential_tail_is_tiny_not_zero(self):
        # F(s) = e^s - 1 - s overflows near s = 710, but in log space
        # Psi_2(800) = sqrt(2) e^(-400) (1 + O(800 e^(-800))) is resolved
        nl = Nonlinearity.exp_minus_one(1.0)
        value = psi_p(nl, 2.0, 800.0)
        assert math.isfinite(value) and value > 0.0
        log_value = log_psi_p(nl, 2.0, [800.0])[0]
        assert abs(log_value - (-400.0 + 0.5 * math.log(2.0))) < 1e-9


def power_and_p(draw):
    """power(c, q) with q + 1 > p and p in (1, 4].

    The tail decays like s^(-e) with e = (q + 1)/p - 1; e >= 0.25 keeps
    the doubling tail within its budget of 200 panels at TAIL_REL_TOL.
    """
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    e = draw(st.floats(0.25, 4.0))
    c = draw(st.floats(1e-3, 1e3))
    return Nonlinearity.power(c, (e + 1.0) * p - 1.0), p


def exp_and_p(draw):
    lam = draw(st.floats(1e-2, 1e2))
    return Nonlinearity.exp_minus_one(lam), draw(
        st.floats(1.0, 4.0, exclude_min=True))


class TestLogPsiSweep:
    """One shared sweep over many points against one call per point."""

    @staticmethod
    def _case(data):
        draw = data.draw
        nl, p = power_and_p(draw) if draw(st.booleans()) else exp_and_p(draw)
        points = draw(st.lists(st.floats(-2.0, 4.0), min_size=2,
                               max_size=30).map(lambda e: [10.0 ** x
                                                           for x in e]))
        return nl, p, points

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_shared_sweep_matches_one_point_calls(self, data):
        nl, p, points = self._case(data)
        shared = log_psi_p(nl, p, points)
        single = np.array([log_psi_p(nl, p, [x])[0] for x in points])
        # a relative error of Psi is an absolute error of log Psi; the
        # ulp of log Psi (up to 1e4 for e^s - 1) is added as the floor
        slack = 1e-12 + 4.0 * np.spacing(np.abs(single))
        assert np.all(np.abs(shared - single) <= slack)
        if nl.kind == "power":
            values = np.array([psi_p(nl, p, x) for x in points])
            assert np.allclose(np.exp(shared), values, rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_nonincreasing_in_the_point(self, data):
        nl, p, points = self._case(data)
        values = log_psi_p(nl, p, sorted(points))
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("c, q, p", [(2.0, 3.0, 1.5), (1.0, 5.0, 2.0),
                                         (2.0, 3.0, 3.0)])
    def test_points_decades_apart(self, c, q, p):
        # one adaptive panel across six decades fails to converge, so the
        # gap is split into doubling panels
        got = log_psi_p(Nonlinearity.power(c, q), p, [1e-2, 1e4])
        want = [math.log(psi_power_closed_form(c, q, p, r))
                for r in (1e-2, 1e4)]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("nl", [Nonlinearity.exp_minus_one(1.0),
                                    Nonlinearity.power(2, 3)])
    def test_points_an_ulp_apart(self, nl):
        # a panel a few ulps wide is too narrow for QUADPACK to bisect;
        # its integrand is 1 at the left end, so it equals its width
        lo, hi = 0.999999999999977, 1.0
        got = log_psi_p(nl, 1.125, [lo, hi])
        assert got[0] >= got[1]
        want = np.logaddexp(got[1], math.log(hi - lo)
                            + math.log1p(-1.0 / 1.125) / 1.125
                            - math.log(nl.F(lo)) / 1.125)
        assert got[0] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [1e-20, 1e-60, 1e-160, 1e-300])
    def test_tiny_point_alone_matches_it_beside_a_large_one(self, r, p):
        # near 0 e^s - 1 has F ~ s^2/2, where doubling tail panels do not
        # shrink, and below about 1.5e-154 the Taylor sum of F is subnormal
        nl = Nonlinearity.exp_minus_one(1.0)
        alone = log_psi_p(nl, p, [r])[0]
        beside = log_psi_p(nl, p, [r, 10.0])[0]
        assert math.isfinite(alone)
        assert abs(alone - beside) <= 1e-12

    def test_exponential_psi2_grows_like_log_near_zero(self):
        # F^(-1/2) = sqrt(2)/s (1 + O(s)) for f = e^s - 1, so
        # Psi_2(1e-200) - Psi_2(1e-100) = log(1e100) up to O(1e-100)
        nl = Nonlinearity.exp_minus_one(1.0)
        gap = psi_p(nl, 2.0, 1e-200) - psi_p(nl, 2.0, 1e-100)
        assert gap == pytest.approx(100.0 * math.log(10.0), rel=1e-13)

    def test_output_follows_the_input_order(self):
        nl = Nonlinearity.power(2, 3)
        got = np.exp(log_psi_p(nl, 2.0, [4.0, 0.5, 2.0, 0.5]))
        assert np.allclose(got, [0.25, 2.0, 0.5, 2.0], rtol=1e-12)

    def test_divergent_and_invalid(self):
        assert np.all(log_psi_p(Nonlinearity.power(1, 1), 2.0, [1.0, 2.0])
                      == math.inf)
        with pytest.raises(ValueError, match="r > 0"):
            log_psi_p(Nonlinearity.power(2, 3), 2.0, [1.0, 0.0])


class TestFGap:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), log_a=st.floats(-3.0, 3.0),
           log_ratio=st.floats(-3.0, 2.0))
    def test_matches_well_conditioned_difference(self, data, log_a,
                                                 log_ratio):
        # dx >= 1e-3 a keeps F(a + dx) - F(a) well conditioned; for e^s - 1,
        # a + dx <= 700 keeps F finite
        if data.draw(st.booleans()):
            nl = Nonlinearity.power(data.draw(st.floats(1e-3, 1e3)),
                                    data.draw(st.floats(1e-3, 10.0)))
        else:
            nl = Nonlinearity.exp_minus_one(data.draw(st.floats(1e-3, 1e3)))
            # a in [1e-3, 300]
            log_a = -3.0 + (log_a + 3.0) * (3.0 + math.log10(300.0)) / 6.0
        a = 10.0 ** log_a
        b = a + a * 10.0 ** log_ratio
        dx = b - a
        assume(a + dx == b and (nl.kind == "power" or b <= 700.0))
        direct = nl.F(b) - nl.F(a)
        assert nl.F_gap(a, dx) == pytest.approx(direct, rel=1e-12, abs=0)


class TestA1:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_truth_table_at_the_keller_osserman_edge(self, p):
        # a power passes exactly when q + 1 > p: q + 1 = p fails and the
        # next double above p passes; e^s - 1 always passes, zero never
        table = {p: False, np.nextafter(p, 0.0): False,
                 np.nextafter(p, math.inf): True, p - 0.25: False,
                 p + 0.25: True}
        for m, verdict in table.items():
            q = float(m) - 1.0
            assert q + 1.0 == m
            assert check_a1(Nonlinearity.power(1.0, q), p) is verdict
        assert check_a1(Nonlinearity.exp_minus_one(1.0), p) is True
        assert check_a1(Nonlinearity.zero(), p) is False

    @pytest.mark.parametrize("nl, p", [(Nonlinearity.power(1.0, 1.0), 2.0),
                                       (Nonlinearity.power(1.0, 2.0), 3.0),
                                       (Nonlinearity.zero(), 2.0)],
                             ids=["linear", "power_at_edge", "zero"])
    def test_log_psi_p_asks_check_a1(self, monkeypatch, nl, p):
        # Psi_p is infinite exactly where (A1) fails, decided by check_a1
        # before any quadrature
        asked = []

        def recording(*args):
            asked.append(args)
            return check_a1(*args)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated a divergent Psi_p")

        monkeypatch.setattr(plaplab.nonlinearity, "check_a1", recording)
        monkeypatch.setattr(plaplab.nonlinearity, "integrate_to_infinity",
                            no_quadrature)
        monkeypatch.setattr(plaplab.nonlinearity, "panel_quad", no_quadrature)
        assert log_psi_p(nl, p, [0.5, 2.0]).tolist() == [math.inf, math.inf]
        assert asked == [(nl, p)]

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
    def test_tail_quadrature_agrees_with_power_rule(self, q, p):
        # numeric evidence for the analytic rule: the doubling tail of
        # F^(-1/p) from 1 outlasts its budget exactly when q + 1 <= p, and
        # otherwise meets the closed form
        nl = Nonlinearity.power(1.0, q)

        def tail():
            return plaplab.quadrature.integrate_to_infinity(
                lambda s: nl.F(s) ** (-1.0 / p), 1.0)

        if q + 1.0 <= p:
            with pytest.raises(QuadratureError, match="not converged"):
                tail()
        else:
            closed = psi_power_closed_form(1.0, q, p, 1.0) \
                / (1.0 - 1.0 / p) ** (1.0 / p)
            assert tail() == pytest.approx(closed, rel=1e-12)
        assert check_a1(nl, p) is (q + 1.0 > p)


class TestA2:
    def test_power23_reproduces_inverse_beta(self):
        rep = check_a2(Nonlinearity.power(2, 3), 2.0,
                       beta_grid=(0.25, 0.5, 0.75), t_max=1e4)
        assert rep.passes
        for beta, est in zip(rep.beta_values, rep.estimated_liminf_per_beta):
            assert est == pytest.approx(1.0 / beta, rel=1e-4)
        assert rep.log_liminf_per_beta == pytest.approx(
            [-math.log(b) for b in rep.beta_values], rel=1e-4)

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

    def test_exponential_ratio_is_kept_as_a_log(self):
        # Psi_2(beta t)/Psi_2(t) ~ e^((1 - beta) t / 2) for f = e^s - 1: the
        # ratio overflows at t = 1e4, its log is minimal at t = 1e3
        rep = check_a2(Nonlinearity.exp_minus_one(1.0), 2.0)
        assert rep.passes
        assert rep.log_liminf_per_beta == pytest.approx([375.0, 250.0, 125.0],
                                                        rel=1e-12)
        assert np.all(np.isfinite(rep.log_ratio_matrix))
        assert rep.estimated_liminf_per_beta[0] == pytest.approx(
            math.exp(375.0), rel=1e-10)

    def test_extra_radii_ride_along(self):
        radii = (0.5, 3.0, 2e4)
        rep = check_a2(Nonlinearity.power(2, 3), 2.0, radii=radii)
        assert np.exp(rep.log_psi_at_radii) == pytest.approx(
            [1.0 / r for r in radii], rel=1e-12)

    def test_requires_keller_osserman(self):
        with pytest.raises(ValueError, match="diverges"):
            check_a2(Nonlinearity.power(1, 1), 2.0)

    def test_beta_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            check_a2(Nonlinearity.power(2, 3), 2.0, beta_grid=(1.5,))

    def test_empty_beta_grid_rejected(self):
        # all() over no estimates would report a pass that was never tested
        with pytest.raises(ValueError, match="beta grid .* is empty"):
            check_a2(Nonlinearity.power(2, 3), 2.0, beta_grid=())
