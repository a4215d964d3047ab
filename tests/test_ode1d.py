"""Blow-up profiles by quadrature and the cross-sectional solves."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaplab import (GridFunction, Nonlinearity, QuadratureError,
                     SolverConfig, blowup_radius, build_grid, check_a1,
                     distance_profile_start, embed_cross_section,
                     energy_gradient, psi_p, solve_cross_finite,
                     solve_cross_large, solve_large_1d)
from plaplab import ode1d, quadrature
from plaplab.minimize import (_EPS_MACH, _ROUNDOFF_FACTOR,
                              NonConvergenceError, default_eps_schedule)
from plaplab.solver import _CylinderProblem

POWER23 = Nonlinearity.power(2, 3)

# int_1^inf ds / sqrt(s^4 - 1), i.e. the blow-up radius of the profile with
# center value 1 for f = 2 s^3, p = 2.  Frozen from the mpmath tanh-sinh
# oracle below (30 significant digits agree to 1e-15 with scipy).
RADIUS_ORACLE = 1.311028777146060


#: most r(a) evaluations one solve_large_1d takes for e^s - 1 over the
#: domain of test_exponential_center_value_round_trip: the largest count in
#: scans of 2785 draws from it (lam in [0.1, 10], p in {1.5, 2, 3},
#: r in [0.05, 2]), reached at p = 3 with r below 0.11
EXP_MAX_PROBES = 16


@contextlib.contextmanager
def probed_radius():
    """The center values at which solve_large_1d evaluates r(a)."""
    probes = []

    def radius(nl, p, a):
        probes.append(a)
        return blowup_radius(nl, p, a)

    with mock.patch.object(ode1d, "blowup_radius", radius):
        yield probes


def mpmath_radius_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    return float(mp.quad(lambda s: 1 / mp.sqrt(s ** 4 - 1), [1, 2, mp.inf]))


class TestBlowupRadius:
    def test_matches_independent_quadrature(self):
        live = mpmath_radius_oracle()
        assert live == pytest.approx(RADIUS_ORACLE, abs=1e-13)
        assert blowup_radius(POWER23, 2.0, 1.0) == pytest.approx(
            RADIUS_ORACLE, abs=1e-6)
        assert blowup_radius(POWER23, 2.0, 1.0) == pytest.approx(
            live, rel=1e-10)

    def test_scaling_identity(self):
        # s = a u turns r(a) into r(1)/a for f = c s^3, p = 2
        r1 = blowup_radius(POWER23, 2.0, 1.0)
        assert blowup_radius(POWER23, 2.0, 2.0) == pytest.approx(r1 / 2.0,
                                                                 rel=1e-10)

    def test_strictly_decreasing_in_center_value(self):
        radii = [blowup_radius(POWER23, 2.0, a) for a in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(radii, radii[1:]))

    def test_divergent_tail_raises(self, monkeypatch):
        def no_panel(*args):
            raise AssertionError("a panel was integrated")

        monkeypatch.setattr(ode1d, "panel_quad", no_panel)
        monkeypatch.setattr(quadrature, "panel_quad", no_panel)
        with pytest.raises(ValueError, match="no large solution"):
            blowup_radius(Nonlinearity.power(1, 1), 2.0, 1.0)

    def test_flat_nonlinearity_raises(self):
        with pytest.raises(ValueError, match="no large solution"):
            blowup_radius(Nonlinearity.zero(), 2.0, 1.0)

    def test_nonpositive_center_rejected(self):
        with pytest.raises(ValueError):
            blowup_radius(POWER23, 2.0, 0.0)

    @pytest.mark.parametrize("p,q,radius", [
        (4.0, 3.25, 18.11057015548830), (1.001, 3.0, 0.503371126160718),
        (1.003, 3.0, 0.5084969675368168)],
        ids=["slow_tail", "p_1.001", "p_1.003"])
    def test_finite_for_every_keller_osserman_power(self, p, q, radius):
        # q > p - 1 makes the integral finite, however slowly its tail
        # decays (here like s^(-(q-p+1)/p) = s^(-1/16)) and however close
        # p is to 1: a power's radius is its closed form
        assert blowup_radius(Nonlinearity.power(2.0, q), p, 1.0) == \
            pytest.approx(radius, rel=1e-14)


class TestLargeSolution:
    def test_center_value_recovery(self):
        sol = solve_large_1d(POWER23, 2.0, RADIUS_ORACLE)
        assert sol.a == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
    def test_radius_round_trip(self, p, r):
        with probed_radius() as probes:
            sol = solve_large_1d(POWER23, p, r)
        assert blowup_radius(POWER23, p, sol.a) == pytest.approx(r, rel=1e-8)
        # ln r is affine in ln a: a = 1, a = 2^(+-1) and one secant step
        assert len(probes) <= 3

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.5, 4.0), p=st.floats(1.001, 4.0),
           k=st.floats(1e-3, 4.0), r=st.floats(0.05, 20.0))
    def test_power_center_value_is_the_scaling_law(self, c, p, k, r):
        # r(lam a) = lam^(-k/p) r(a) with k = q - p + 1 gives
        # a = (r(1)/r)^(p/k), which the first secant step lands on.  A
        # power's r(a) is its closed form, so neither a slow tail (small
        # k/p) nor p near 1 limits this; only the search range of a does
        nl = Nonlinearity.power(c, p - 1.0 + k)
        log2_a = (p / k) * math.log2(blowup_radius(nl, p, 1.0) / r)
        assume(abs(log2_a) < ode1d.CENTER_DOUBLINGS - 1)
        with probed_radius() as probes:
            sol = solve_large_1d(nl, p, r)
        assert len(probes) <= 3
        expected = 2.0 ** log2_a
        assert sol.a == pytest.approx(expected, rel=1e-10)
        assert blowup_radius(nl, p, sol.a) == pytest.approx(r, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.1, 10.0), p=st.sampled_from([1.5, 2.0, 3.0]),
           r=st.floats(0.05, 2.0))
    def test_exponential_center_value_round_trip(self, lam, p, r):
        # every r here has a center value: at p = 3, r(a) rises to about
        # 5.34 lam^(-1/3) > 2 as a -> 0
        nl = Nonlinearity.exp_minus_one(lam)
        with probed_radius() as probes:
            sol = solve_large_1d(nl, p, r)
        assert len(probes) <= EXP_MAX_PROBES
        assert blowup_radius(nl, p, sol.a) == pytest.approx(r, rel=1e-10)
        assert np.all(np.isfinite(sol.dphi))
        assert sol.first_integral_residual().max() <= 1e-8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_first_integral_residual(self, p):
        sol = solve_large_1d(POWER23, p, 1.0)
        assert sol.first_integral_residual().max() <= 1e-8

    def test_profile_monotone_and_convex(self):
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        assert np.all(np.diff(sol.phi) > 0)
        # f(phi) > 0 along the profile, so phi' is increasing
        assert np.all(np.diff(sol.dphi) > 0)
        assert sol.t[0] == 0.0 and sol.dphi[0] == 0.0

    def test_near_boundary_law(self):
        # Psi_p(phi(t)) approaches the remaining distance r - t as the
        # center-value offset F(a) becomes negligible against F(phi)
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        k = int(np.argmax(sol.phi > 1e3 * sol.a))
        remaining = sol.r - sol.t[k]
        gap = abs(psi_p(POWER23, 2.0, sol.phi[k]) - remaining)
        assert gap <= 0.05 * remaining

    def test_value_at_matches_table(self):
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        for k in (1, 20, 60, 100):
            assert sol.value_at(sol.t[k]) == pytest.approx(sol.phi[k],
                                                           rel=1e-9)
        assert sol.value_at(0.0) == sol.a
        assert sol.value_at(-sol.t[20]) == pytest.approx(sol.phi[20],
                                                         rel=1e-9)

    def test_value_at_rejects_blowup_point(self):
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        with pytest.raises(ValueError):
            sol.value_at(sol.r)

    @pytest.mark.parametrize("nl", [POWER23,
                                    Nonlinearity.exp_minus_one(1.0)],
                             ids=["power", "exp_minus_one"])
    def test_value_at_below_the_first_tabulated_time(self, nl):
        # before t[1] value_at inverts the near integral, the time from
        # the center value a to a level; its secant resolves the level to
        # LEVEL_REL_TOL a, that is the time to that over phi'(t)
        sol = solve_large_1d(nl, 2.0, 0.5)
        t = sol.t[1] / 2.0
        v = sol.value_at(t)
        assert sol.a < v < sol.phi[1]
        back = ode1d._near_integral(nl, sol.p, sol.a, v)
        assert abs(back - t) <= \
            ode1d.LEVEL_REL_TOL * sol.a / sol.derivative_at(t)

    def test_value_at_rejects_times_beyond_the_table(self):
        # the table ends short of the blow-up radius
        sol = solve_large_1d(POWER23, 2.0, 0.5)
        t = 0.5 * (sol.t[-1] + sol.r)
        assert sol.t[-1] < t < sol.r
        with pytest.raises(ValueError, match="beyond the tabulated range"):
            sol.value_at(t)

    def test_derivative_from_first_integral(self):
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        t = 0.5
        v = sol.value_at(t)
        expected = math.sqrt(2.0 * (POWER23.F(v) - POWER23.F(sol.a)))
        assert sol.derivative_at(t) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_exponential_nonlinearity_round_trip(self, p):
        # F saturates double precision along the level ladder; the
        # tabulation truncates there instead of overflowing
        exp = Nonlinearity.exp_minus_one(1.0)
        with probed_radius() as probes:
            sol = solve_large_1d(exp, p, 0.5)
        assert len(probes) <= EXP_MAX_PROBES
        assert blowup_radius(exp, p, sol.a) == pytest.approx(0.5, rel=1e-8)
        assert sol.first_integral_residual().max() <= 1e-8
        assert np.all(np.isfinite(sol.dphi))

    def test_ladder_stops_where_the_speed_overflows(self):
        # the level 101 a = 709.2 has F ~ 1.0e308, finite, but at p = 1.5
        # |phi'|^p = 3 F is not: the ladder stops below it
        exp = Nonlinearity.exp_minus_one(1.0)
        a = 709.2 / 101.0
        sol = ode1d._tabulate(exp, 1.5, a, blowup_radius(exp, 1.5, a))
        assert sol.phi[-1] < 709.0
        assert np.all(np.isfinite(sol.dphi))
        assert sol.first_integral_residual().max() <= 1e-8

    @pytest.mark.parametrize("radius,message", [
        (lambda a: 10.0, "60 doublings"),
        (lambda a: 0.1, "60 halvings"),
        (lambda a: {1.0: 2.0, 2.0: 3.0}.get(a, 0.5), "not monotone"),
        (lambda a: 2.0 if a < 1.5 else 0.5, "root solve stalled"),
    ], ids=["doublings", "halvings", "non_monotone", "root_stall"])
    def test_bracketing_failure_is_numerical(self, monkeypatch, radius,
                                             message):
        monkeypatch.setattr("plaplab.ode1d.blowup_radius",
                            lambda nl, p, a: radius(a))
        with pytest.raises(QuadratureError, match=message):
            solve_large_1d(POWER23, 2.0, 1.0)

    def test_bisection_keeps_a_curved_secant_in_its_bracket(self,
                                                             monkeypatch):
        # ln r = -tanh(4 (ln a - 1)) is flat away from its root a = e: the
        # third probe overshoots and closes the bracket, and a secant
        # through two probes on its flat side leaves it; a bisection
        # replaces that step
        probes = []

        def radius(nl, p, a):
            probes.append(a)
            return math.exp(-math.tanh(4.0 * (math.log(a) - 1.0)))

        monkeypatch.setattr("plaplab.ode1d.blowup_radius", radius)
        sol = solve_large_1d(POWER23, 2.0, 1.0)
        assert sol.a == pytest.approx(math.e, rel=1e-10)
        assert len(probes) <= 12
        lo, hi = probes[1], probes[2]
        assert lo < math.e < hi
        assert all(lo < a < hi for a in probes[3:])

    def test_nonpositive_radius_is_bad_input(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            solve_large_1d(POWER23, 2.0, 0.0)


COSH_MID = 0.8868188839700739  # 1 / cosh(1/2)


class TestCrossFinite:
    def test_constants_are_solutions(self):
        prof = solve_cross_finite(Nonlinearity.zero(), SolverConfig(p=2.0),
                                  (0, 1), 4.0, 4.0, 31)
        assert np.max(np.abs(prof.values - 4.0)) < 1e-12
        assert prof.values[0] == 4.0 and prof.values[-1] == 4.0

    def test_linear_benchmark_cosh(self):
        # f(u) = u, p = 2, g = 1 on (0,1): u(y) = cosh(y - 1/2) / cosh(1/2)
        prof = solve_cross_finite(Nonlinearity.power(1, 1),
                                  SolverConfig(p=2.0), (0, 1), 1.0, 1.0, 401)
        assert prof.value_at(0.5) == pytest.approx(COSH_MID, abs=1e-4)
        exact = np.cosh(prof.y - 0.5) / np.cosh(0.5)
        assert np.max(np.abs(prof.values - exact)) < 1e-4

    def test_affine_p_harmonic_any_p(self):
        prof = solve_cross_finite(Nonlinearity.zero(), SolverConfig(p=3.0),
                                  (0, 1), 0.0, 1.0, 101)
        assert np.max(np.abs(prof.values - prof.y)) < 1e-10

    def test_quadratic_convergence_to_cosh(self):
        errors = []
        for n in (51, 101, 201):
            prof = solve_cross_finite(Nonlinearity.power(1, 1),
                                      SolverConfig(p=2.0, tol=1e-12), (0, 1),
                                      1.0, 1.0, n)
            exact = np.cosh(prof.y - 0.5) / np.cosh(0.5)
            errors.append(np.max(np.abs(prof.values - exact)))
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(orders) >= 1.8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_extension_solves_cylinder_equations(self, p):
        # matched discretization: the extended profile is a discrete
        # cylinder solution at the final eps, up to the solve tolerance
        tol = 1e-11
        prof = solve_cross_finite(POWER23, SolverConfig(p=p, tol=tol),
                                  (0.0, 2.0), 1.0, 1.0, 17)
        grid = build_grid(2.0, (0.0, 2.0), 33, 17)
        eps = default_eps_schedule(grid.hy)[-1]
        grad = energy_gradient(embed_cross_section(prof, grid), POWER23, p,
                               eps)
        interior = grid.interior_mask()
        scaled = np.abs(grad[interior]) / grid.lumped_mass()[interior]
        assert np.max(scaled) <= tol

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_distance_profile_solves_cylinder_equations_off_its_seams(self,
                                                                       p):
        # with hx = hy, the piece of the start that is P(y), and the piece
        # that is P at the distance to an end, each solve the cylinder's
        # interior equations wherever a node's whole stencil takes its
        # value from that one piece
        tol = 1e-11
        prof = solve_cross_finite(POWER23, SolverConfig(p=p, tol=tol),
                                  (0.0, 2.0), 1.0, 1.0, 17)
        grid = build_grid(2.0, (0.0, 2.0), 33, 17)
        eps = default_eps_schedule(grid.hy)[-1]
        start = distance_profile_start(prof, grid)
        grad = energy_gradient(start, POWER23, p, eps).reshape(17, 33)
        scaled = np.abs(grad) / grid.lumped_mass().reshape(17, 33)
        rows = start.as_rows()
        # P at the distance to the nearer end, in cells, where it is below
        # half the width
        cells = np.minimum(np.arange(33), np.arange(33)[::-1])
        along = np.where(cells < 8, prof.values[np.minimum(cells, 8)],
                         -np.inf)
        checked = {}
        for name, piece in (("y", rows == prof.values[:, None]),
                            ("x", rows == along[None, :])):
            # the P1 stencil of node (i, j) on the SW-NE split: itself,
            # its four neighbours, and (i + 1, j + 1) and (i - 1, j - 1)
            whole = piece[1:-1, 1:-1].copy()
            for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1),
                           (-1, -1)):
                whole &= piece[1 + dj:16 + dj, 1 + di:32 + di]
            checked[name] = int(whole.sum())
            assert np.max(scaled[1:-1, 1:-1][whole]) <= tol
        assert checked["x"] > 0 and checked["y"] > 0

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.1, 4.0),
           nl=st.one_of(
               st.builds(Nonlinearity.power, st.floats(0.5, 4.0),
                         st.floats(1.0, 5.0)),
               st.builds(Nonlinearity.exp_minus_one, st.floats(0.1, 4.0))),
           log_level=st.floats(-1.0, 1.3), blowup=st.booleans())
    def test_constant_extension_solves_cylinder_equations_for_any_data(
            self, p, nl, log_level, blowup):
        # the same, for any admissible data: the finite profile, or the
        # first level of a blow-up sweep, which the cylinder rows start
        # from; both equations hold to tol plus their roundoff floors
        tol = 1e-11
        level = 10.0 ** log_level
        if blowup:
            assume(check_a1(nl, p))
            prof = solve_cross_large(nl, SolverConfig(p=p, tol=tol),
                                     (0.0, 2.0), (level, 2.0 * level),
                                     17)[0][0]
        else:
            prof = solve_cross_finite(nl, SolverConfig(p=p, tol=tol),
                                      (0.0, 2.0), level, level, 17)
        assert (prof.values[0], prof.values[-1]) == (level, level)
        grid = build_grid(2.0, (0.0, 2.0), 33, 17)
        eps = default_eps_schedule(grid.hy)[-1]
        u = embed_cross_section(prof, grid).values
        floor = 0.0
        for problem, values in (
                (ode1d._CrossProblem(nl, SolverConfig(p=p), prof.y, level,
                                     level),
                 prof.values),
                (_CylinderProblem.on_grid(grid, nl, SolverConfig(p=p), u), u)):
            _, scale = problem.gradient(values, eps)
            free = problem.free
            floor += _ROUNDOFF_FACTOR * _EPS_MACH * np.max(
                scale[free] / problem.mass[free])
        grad = energy_gradient(GridFunction(grid, u), nl, p, eps)
        interior = grid.interior_mask()
        scaled = np.abs(grad[interior]) / grid.lumped_mass()[interior]
        assert np.max(scaled) <= tol + floor

    @pytest.mark.parametrize("p,lam,level", [(4.0, 2.0, 0.1),
                                             (3.5, 4.0, 0.18)])
    def test_dead_core_converges(self, p, lam, level):
        # f ~ lam s at 0 grows slower than s^(p-1): the solution vanishes
        # on a core, where Newton iterates dip below 0 and f' is that of
        # the zero extension (with f'(0) they crept for 200 steps)
        prof = solve_cross_finite(Nonlinearity.exp_minus_one(lam),
                                  SolverConfig(p=p, tol=1e-11), (0.0, 2.0),
                                  level, level, 17)
        assert prof.residual <= 1e-11
        assert np.min(prof.values) < 1e-6 * level
        assert np.all((prof.values >= -1e-11) & (prof.values <= level))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            solve_cross_finite(POWER23, SolverConfig(p=2.0), (0, 1), 1.0,
                               1.0, 2)

    @pytest.mark.parametrize("bad, message", [
        ({"p": 0.5}, "p > 1"),
        ({"p": 2.0, "tol": 0.0}, "tol must be positive"),
        ({"p": 2.0, "max_newton": 0}, "max_newton must be at least 1"),
    ], ids=["p", "tol", "max_newton"])
    def test_solver_settings_checked_before_any_solve(self, monkeypatch, bad,
                                                      message):
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(ode1d._CrossProblem, "minimize", no_solve)
        with pytest.raises(ValueError, match=message):
            solve_cross_finite(Nonlinearity.power(1, 1), SolverConfig(**bad),
                               (0, 1), 1.0, 1.0, 9)

    @pytest.mark.parametrize("n_nodes", [33, 257])
    def test_cold_start_between_unequal_ends(self, n_nodes):
        # started from the mean of the ends, this solve exceeds the Newton
        # budget; from the smaller end it converges
        prof = solve_cross_finite(Nonlinearity.exp_minus_one(1.0),
                                  SolverConfig(p=1.25), (0, 1), 1.0, 100.0,
                                  n_nodes)
        assert prof.values[0] == 1.0 and prof.values[-1] == 100.0
        assert np.all((prof.values >= 0.0) & (prof.values <= 100.0))

    def test_overflowing_level_is_nonconvergence(self):
        # f(800) = e^800 - 1 overflows: an infinite roundoff floor must not
        # pass the residual test
        with pytest.raises(NonConvergenceError, match="not finite"):
            ode1d._CrossProblem(Nonlinearity.exp_minus_one(1.0),
                                SolverConfig(p=2.0), np.linspace(0.0, 1.0, 9),
                                800.0, 800.0).minimize()

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                       reason="damped Newton exceeds its budget at p < 2 "
                              "where u' vanishes on a fine segment")
    def test_strong_data_on_a_fine_segment_at_small_p(self):
        # the cold start's first eps stage ends its 200 steps with a
        # residual of about 4e2; the Newton model is poor at the center,
        # where the p < 2 weight (eps + |u'|^2)^((p-2)/2) is largest
        prof = solve_cross_finite(Nonlinearity.power(2, 3),
                                  SolverConfig(p=1.25, tol=1e-11), (-1, 1),
                                  10.0, 10.0, 801)
        assert prof.residual <= 1e-11

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                       reason="damped Newton exceeds its budget at p < 2 "
                              "where u' vanishes on a fine segment")
    def test_weak_exponential_sweep_at_small_p(self):
        # the draw on which
        # test_constant_extension_solves_cylinder_equations_for_any_data
        # fails: the second level stops after 200 steps at its last eps
        # with a residual of about 1e-1
        levels, _ = solve_cross_large(Nonlinearity.exp_minus_one(0.1),
                                      SolverConfig(p=1.5, tol=1e-11), (0, 2),
                                      (0.1, 0.2), 17)
        assert levels[-1].residual <= 1e-11


class TestCrossLarge:
    M_LIST = (10.0, 100.0, 1000.0, 10000.0)

    def test_midpoint_matches_matched_truncation_profile(self):
        # The finite-M solution on (-1, 1) is exactly the restriction of the
        # blow-up profile on the slightly larger interval where phi reaches M
        # at y = +-1, so the matched oracle radius is 1 + Psi_p(M).
        prof = solve_cross_large(POWER23, SolverConfig(p=2.0), (-1, 1),
                                 self.M_LIST, 25601)[0][-1]
        delta = psi_p(POWER23, 2.0, self.M_LIST[-1])
        oracle = solve_large_1d(POWER23, 2.0, 1.0 + delta).a
        assert prof.value_at(0.0) == pytest.approx(oracle, abs=1e-4)
        # and the truncation gap to the true large solution is of size
        # a * Psi(M), slightly above 1e-4 itself
        a_inf = solve_large_1d(POWER23, 2.0, 1.0).a
        assert prof.value_at(0.0) == pytest.approx(a_inf, abs=3e-4)

    def test_interior_nondecreasing_in_m(self):
        previous = None
        for m in self.M_LIST:
            prof = solve_cross_finite(POWER23, SolverConfig(p=2.0), (-1, 1),
                                      m, m, 201)
            if previous is not None:
                assert np.min(prof.values[1:-1] - previous[1:-1]) >= -2e-9
            previous = prof.values

    def test_profile_below_interior_barrier(self):
        # each interior value is dominated at its own location by the
        # blow-up profile of the inscribed ball (radius = distance to the
        # nearest endpoint), evaluated at its half radius
        prof = solve_cross_large(POWER23, SolverConfig(p=2.0), (-1, 1),
                                 self.M_LIST, 801)[0][-1]
        for idx in (100, 200, 400, 600):
            y = prof.y[idx]
            dist = min(y - prof.interval[0], prof.interval[1] - y)
            barrier = solve_large_1d(POWER23, 2.0, dist)
            assert prof.values[idx] <= barrier.value_at(dist / 2.0)

    def test_stabilization_residual_reported(self):
        profiles, report = solve_cross_large(POWER23, SolverConfig(p=2.0),
                                             (-1, 1), (10.0, 100.0), 101)
        assert len(profiles) == 2
        assert report.m_values == (10.0, 100.0)
        assert report.stage_max_change[-1] > 0

    def test_one_problem_serves_every_level(self, monkeypatch):
        built = []

        class Counting(ode1d._CrossProblem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ode1d, "_CrossProblem", Counting)
        profiles, report = solve_cross_large(POWER23, SolverConfig(p=1.5),
                                             (-1, 1), self.M_LIST, 9)
        assert report.m_values == self.M_LIST
        assert len(profiles) == len(self.M_LIST)
        assert len(built) == 1

    def test_levels_equal_the_chain_of_segment_solves(self):
        # the sweep as one segment problem per level, each started from
        # the Euler predictor u + M ln(M_next / M) w of the level below, w
        # the tangent of that level's problem, is the reference bit for bit
        tol = 1e-11
        profiles, report = solve_cross_large(
            POWER23, SolverConfig(p=1.5, tol=tol), (-1, 1), self.M_LIST, 9)
        y = np.linspace(-1.0, 1.0, 9)
        chain, start = [], None
        for M, M_next in zip(self.M_LIST, self.M_LIST[1:] + (None,)):
            problem = ode1d._CrossProblem(
                POWER23, SolverConfig(p=1.5, tol=tol), y, M, M)
            u, _, info = problem.minimize(start)
            chain.append((u, info["residual"]))
            w = problem.tangent(u)
            assert w is not None
            if M_next is not None:
                start = u + M * (math.log(M_next) - math.log(M)) * w
        assert len(profiles) == len(chain)
        for M, prof, (u, residual) in zip(self.M_LIST, profiles, chain):
            assert np.array_equal(prof.values, u)
            assert (prof.values[0], prof.values[-1]) == (M, M)
            assert prof.residual == residual
            assert prof.tol == tol
        assert report.stage_max_change == tuple(
            np.max(np.abs(b[0] - a[0])[1:-1])
            for a, b in zip(chain, chain[1:]))

    def test_report_counts_the_newton_steps_of_every_level(self,
                                                          monkeypatch):
        stages_of = []
        minimize = ode1d._CrossProblem.minimize

        def recording(self, initial=None):
            level = minimize(self, initial)
            stages_of.append(level[1])
            return level

        monkeypatch.setattr(ode1d._CrossProblem, "minimize", recording)
        _, report = solve_cross_large(POWER23, SolverConfig(p=1.5), (-1, 1),
                                      self.M_LIST, 33)
        assert report.level_newton_steps == tuple(
            sum(s.iterations for s in stages) for stages in stages_of)
        # the first level climbs the eps ladder from a cold start; each
        # later one runs its last stage from the level below
        first, *later = report.level_newton_steps
        assert len(later) == 3 and first > max(later)

    def test_levels_do_not_alias(self):
        (first, last), _ = solve_cross_large(POWER23, SolverConfig(p=2.0),
                                             (-1, 1), (10.0, 100.0), 11)
        assert not np.shares_memory(last.values, first.values)
        assert first.values[0] == first.values[-1] == 10.0
        assert last.values[0] == last.values[-1] == 100.0

    @pytest.mark.parametrize("interval, n_nodes, message", [
        ((1.0, -1.0), 11, "degenerate interval"),
        ((-1.0, 1.0), 2, "at least 3 nodes"),
    ])
    def test_input_checks_of_the_finite_solve(self, interval, n_nodes,
                                              message):
        with pytest.raises(ValueError, match=message):
            solve_cross_large(POWER23, SolverConfig(p=2.0), interval,
                              (10.0, 100.0), n_nodes)

    def test_no_large_solution_without_keller_osserman(self):
        with pytest.raises(ValueError, match="no large solution"):
            solve_cross_large(Nonlinearity.power(1, 1), SolverConfig(p=2.0),
                              (-1, 1), (10.0, 100.0), 51)
