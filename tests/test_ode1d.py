"""Blow-up profiles by quadrature and the cross-sectional solves."""

import math

import numpy as np
import pytest

from plaplab import (DivergentBlowupError, Nonlinearity, QuadratureError,
                     blowup_radius, build_grid, embed_cross_section,
                     energy_gradient, psi_p, solve_cross_finite,
                     solve_cross_large, solve_large_1d)
from plaplab import ode1d
from plaplab.minimize import NonConvergenceError, default_eps_schedule

POWER23 = Nonlinearity.power(2, 3)

# int_1^inf ds / sqrt(s^4 - 1), i.e. the blow-up radius of the profile with
# center value 1 for f = 2 s^3, p = 2.  Frozen from the mpmath tanh-sinh
# oracle below (30 significant digits agree to 1e-15 with scipy).
RADIUS_ORACLE = 1.311028777146060


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

    def test_divergent_tail_raises(self):
        with pytest.raises(DivergentBlowupError):
            blowup_radius(Nonlinearity.power(1, 1), 2.0, 1.0)

    def test_flat_nonlinearity_raises(self):
        with pytest.raises(DivergentBlowupError):
            blowup_radius(Nonlinearity.zero(), 2.0, 1.0)

    def test_nonpositive_center_rejected(self):
        with pytest.raises(ValueError):
            blowup_radius(POWER23, 2.0, 0.0)


class TestLargeSolution:
    def test_center_value_recovery(self):
        sol = solve_large_1d(POWER23, 2.0, RADIUS_ORACLE)
        assert sol.a == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
    def test_radius_round_trip(self, p, r):
        sol = solve_large_1d(POWER23, p, r)
        assert blowup_radius(POWER23, p, sol.a) == pytest.approx(r, rel=1e-8)

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
        sol = solve_large_1d(exp, p, 0.5)
        assert blowup_radius(exp, p, sol.a) == pytest.approx(0.5, rel=1e-8)
        assert sol.first_integral_residual().max() <= 1e-8
        assert np.all(np.isfinite(sol.dphi))

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

    def test_nonpositive_radius_is_bad_input(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            solve_large_1d(POWER23, 2.0, 0.0)


COSH_MID = 0.8868188839700739  # 1 / cosh(1/2)


class TestCrossFinite:
    def test_constants_are_solutions(self):
        prof = solve_cross_finite(Nonlinearity.zero(), 2.0, (0, 1), 4.0, 4.0,
                                  31)
        assert np.max(np.abs(prof.values - 4.0)) < 1e-12
        assert prof.values[0] == 4.0 and prof.values[-1] == 4.0

    def test_linear_benchmark_cosh(self):
        # f(u) = u, p = 2, g = 1 on (0,1): u(y) = cosh(y - 1/2) / cosh(1/2)
        prof = solve_cross_finite(Nonlinearity.power(1, 1), 2.0, (0, 1), 1.0,
                                  1.0, 401)
        assert prof.value_at(0.5) == pytest.approx(COSH_MID, abs=1e-4)
        exact = np.cosh(prof.y - 0.5) / np.cosh(0.5)
        assert np.max(np.abs(prof.values - exact)) < 1e-4

    def test_affine_p_harmonic_any_p(self):
        prof = solve_cross_finite(Nonlinearity.zero(), 3.0, (0, 1), 0.0, 1.0,
                                  101)
        assert np.max(np.abs(prof.values - prof.y)) < 1e-10

    def test_quadratic_convergence_to_cosh(self):
        errors = []
        for n in (51, 101, 201):
            prof = solve_cross_finite(Nonlinearity.power(1, 1), 2.0, (0, 1),
                                      1.0, 1.0, n, tol=1e-12)
            exact = np.cosh(prof.y - 0.5) / np.cosh(0.5)
            errors.append(np.max(np.abs(prof.values - exact)))
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(orders) >= 1.8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_extension_solves_cylinder_equations(self, p):
        # matched discretization: the extended profile is a discrete
        # cylinder solution at the final eps, up to the solve tolerance
        tol = 1e-11
        prof = solve_cross_finite(POWER23, p, (0.0, 2.0), 1.0, 1.0, 17,
                                  tol=tol)
        grid = build_grid(2.0, (0.0, 2.0), 33, 17)
        eps = default_eps_schedule(grid.hy)[-1]
        grad = energy_gradient(embed_cross_section(prof, grid), POWER23, p,
                               eps)
        interior = grid.interior_mask()
        scaled = np.abs(grad[interior]) / grid.lumped_mass()[interior]
        assert np.max(scaled) <= tol

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            solve_cross_finite(POWER23, 2.0, (0, 1), 1.0, 1.0, 2)

    @pytest.mark.parametrize("n_nodes", [33, 257])
    def test_cold_start_between_unequal_ends(self, n_nodes):
        # started from the mean of the ends, this solve exceeds the Newton
        # budget; from the smaller end it converges
        prof = solve_cross_finite(Nonlinearity.exp_minus_one(1.0), 1.25,
                                  (0, 1), 1.0, 100.0, n_nodes)
        assert prof.values[0] == 1.0 and prof.values[-1] == 100.0
        assert np.all((prof.values >= 0.0) & (prof.values <= 100.0))

    def test_overflowing_level_is_nonconvergence(self):
        # f(800) = e^800 - 1 overflows: an infinite roundoff floor must not
        # pass the residual test
        with pytest.raises(NonConvergenceError, match="not finite"):
            ode1d._CrossProblem(Nonlinearity.exp_minus_one(1.0), 2.0,
                                np.linspace(0.0, 1.0, 9), 800.0,
                                800.0).minimize(1e-9, 200)


class TestCrossLarge:
    M_LIST = (10.0, 100.0, 1000.0, 10000.0)

    def test_midpoint_matches_matched_truncation_profile(self):
        # The finite-M solution on (-1, 1) is exactly the restriction of the
        # blow-up profile on the slightly larger interval where phi reaches M
        # at y = +-1, so the matched oracle radius is 1 + Psi_p(M).
        prof = solve_cross_large(POWER23, 2.0, (-1, 1), self.M_LIST, 25601)
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
            prof = solve_cross_finite(POWER23, 2.0, (-1, 1), m, m, 201)
            if previous is not None:
                assert np.min(prof.values[1:-1] - previous[1:-1]) >= -2e-9
            previous = prof.values

    def test_profile_below_interior_barrier(self):
        # each interior value is dominated at its own location by the
        # blow-up profile of the inscribed ball (radius = distance to the
        # nearest endpoint), evaluated at its half radius
        prof = solve_cross_large(POWER23, 2.0, (-1, 1), self.M_LIST, 801)
        for idx in (100, 200, 400, 600):
            y = prof.y[idx]
            dist = min(y - prof.interval[0], prof.interval[1] - y)
            barrier = solve_large_1d(POWER23, 2.0, dist)
            assert prof.values[idx] <= barrier.value_at(dist / 2.0)

    def test_stabilization_residual_reported(self):
        prof = solve_cross_large(POWER23, 2.0, (-1, 1), (10.0, 100.0), 101)
        assert prof.mode == "blowup"
        assert prof.m_values == (10.0, 100.0)
        assert prof.stabilization_residual > 0

    def test_one_problem_serves_every_level(self, monkeypatch):
        built = []

        class Counting(ode1d._CrossProblem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ode1d, "_CrossProblem", Counting)
        prof = solve_cross_large(POWER23, 1.5, (-1, 1), self.M_LIST, 9)
        assert prof.m_values == self.M_LIST
        assert len(built) == 1

    def test_levels_equal_the_chain_of_segment_solves(self):
        # the sweep as one segment problem per level, each warm-started
        # from the previous level, is the reference bit for bit
        tol = 1e-11
        prof = solve_cross_large(POWER23, 1.5, (-1, 1), self.M_LIST, 9,
                                 tol=tol)
        y = np.linspace(-1.0, 1.0, 9)
        chain, previous = [], None
        for M in self.M_LIST:
            problem = ode1d._CrossProblem(POWER23, 1.5, y, M, M)
            previous, _, info = problem.minimize(tol, 200, previous)
            chain.append((previous, info["residual"]))
        assert np.array_equal(prof.first_level.values, chain[0][0])
        assert prof.first_level.g == (10.0, 10.0)
        assert prof.first_level.residual == chain[0][1]
        assert np.array_equal(prof.values, chain[-1][0])
        assert prof.residual == chain[-1][1]
        assert prof.stabilization_residual == np.max(
            np.abs(chain[-1][0] - chain[-2][0])[1:-1])

    def test_levels_do_not_alias(self):
        prof = solve_cross_large(POWER23, 2.0, (-1, 1), (10.0, 100.0), 11)
        assert not np.shares_memory(prof.values, prof.first_level.values)
        assert prof.first_level.values[0] == 10.0
        assert prof.values[0] == prof.values[-1] == 100.0

    @pytest.mark.parametrize("interval, n_nodes, message", [
        ((1.0, -1.0), 11, "degenerate interval"),
        ((-1.0, 1.0), 2, "at least 3 nodes"),
    ])
    def test_input_checks_of_the_finite_solve(self, interval, n_nodes,
                                              message):
        with pytest.raises(ValueError, match=message):
            solve_cross_large(POWER23, 2.0, interval, (10.0, 100.0), n_nodes)

    def test_no_large_solution_without_keller_osserman(self):
        with pytest.raises(ValueError, match="no large solution"):
            solve_cross_large(Nonlinearity.power(1, 1), 2.0, (-1, 1),
                              (10.0, 100.0), 51)
