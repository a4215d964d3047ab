"""Energy assembly, Newton convergence, comparison and blow-up sweeps."""

import numpy as np
import pytest

from plaplab import (GridFunction, NonConvergenceError, Nonlinearity, Window,
                     SolverConfig, build_grid, energy, energy_gradient,
                     solve_blowup, solve_dirichlet, solve_large_1d,
                     verify_barrier)
from plaplab.minimize import minimize_newton
from plaplab.ode1d import _CrossProblem
from plaplab.solver import _CylinderProblem, _boundary_array

POWER23 = Nonlinearity.power(2, 3)
LINEAR = Nonlinearity.power(1, 1)  # f(u) = u


def unit_square_grid(n=9):
    return build_grid(0.5, (0.0, 1.0), n, n)


class TestEnergy:
    def test_zero_field_zero_nonlinearity(self):
        u = GridFunction.constant(unit_square_grid(), 0.0)
        assert energy(u, Nonlinearity.zero(), 2.0, 0.0) == 0.0

    def test_unit_slope_dirichlet_energy(self):
        g = unit_square_grid()
        u = GridFunction.from_callable(g, lambda X, Y: X)
        assert energy(u, Nonlinearity.zero(), 2.0, 0.0) == pytest.approx(
            0.5, rel=1e-14)

    def test_constant_field_absorption_only(self):
        u = GridFunction.constant(unit_square_grid(), 2.0)
        assert energy(u, POWER23, 2.0, 0.0) == pytest.approx(8.0, rel=1e-13)

    def test_negative_eps_rejected(self):
        u = GridFunction.constant(unit_square_grid(), 0.0)
        with pytest.raises(ValueError):
            energy(u, POWER23, 2.0, -1.0)


class TestEnergyGradient:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_matches_central_differences(self, p, eps):
        rng = np.random.default_rng(int(p * 100) + int(-np.log10(eps)))
        g = build_grid(1.0, (0.0, 1.0), 9, 7)
        u = GridFunction(g, 0.5 + rng.random(g.n_nodes))
        grad = energy_gradient(u, POWER23, p, eps)
        delta = 1e-6
        for _ in range(50):
            v = rng.standard_normal(g.n_nodes)
            up = GridFunction(g, u.values + delta * v)
            um = GridFunction(g, u.values - delta * v)
            fd = (energy(up, POWER23, p, eps)
                  - energy(um, POWER23, p, eps)) / (2.0 * delta)
            an = float(grad @ v)
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an))

    def test_zero_for_constant_field_without_absorption(self):
        g = unit_square_grid()
        u = GridFunction.constant(g, 3.0)
        grad = energy_gradient(u, Nonlinearity.zero(), 2.5, 1e-3)
        assert np.max(np.abs(grad)) < 1e-15

    def test_interior_optimality_at_minimizer(self):
        g = build_grid(1.0, (0.0, 1.0), 17, 9)
        cfg = SolverConfig(p=2.0, tol=1e-10)
        res = solve_dirichlet(g, LINEAR, cfg, 1.0)
        grad = energy_gradient(res.solution, LINEAR, 2.0,
                               res.diagnostics["eps_schedule"][-1])
        mass = g.lumped_mass()
        interior = g.interior_mask()
        assert np.max(np.abs(grad[interior]) / mass[interior]) <= 1e-9


def dense_newton_step(problem, u, eps):
    """Newton step of ``problem`` and a dense solve of the Hessian that
    is assembled from the per-cell blocks it hands to its banded solve."""
    seen = {}
    banded = problem._solve

    def record(blocks, fp, rhs):
        seen.update(blocks=blocks, fp=fp, rhs=rhs)
        return banded(blocks, fp, rhs)

    problem._solve = record
    grad, _ = problem.gradient(u, eps)
    step = problem.newton_step(u, eps, grad)
    H = np.zeros((len(u), len(u)))
    for cell, block in zip(problem.cells, seen["blocks"]):
        H[np.ix_(cell, cell)] += block
    idx = problem.free_idx
    H = H[np.ix_(idx, idx)] + np.diag(seen["fp"])
    return step, np.linalg.solve(H, seen["rhs"])


class TestBandedNewtonSolve:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_grid_step_matches_dense_solve(self, p):
        g = build_grid(2.0, (0.0, 1.0), 13, 6)
        problem = _CylinderProblem.on_grid(g, POWER23, p,
                                           _boundary_array(g, 2.0))
        u = problem.with_boundary(
            1.0 + np.random.default_rng(7).random(g.n_nodes))
        step, dense = dense_newton_step(problem, u, 1e-2)
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_segment_step_matches_dense_solve(self, p):
        problem = _CrossProblem(POWER23, p, np.linspace(0.0, 1.0, 12), 2.0,
                                3.0)
        u = problem.with_boundary(
            1.0 + np.random.default_rng(8).random(12))
        step, dense = dense_newton_step(problem, u, 1e-2)
        assert problem.kd == 1
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("ell", [2.0, 16.0])
    def test_grid_bandwidth_does_not_grow_with_length(self, ell):
        # square cells: nx = 9 at ell = 2, 65 at ell = 16
        g = build_grid(ell, (-2.0, 2.0), 4 * int(ell) + 1, 9)
        problem = _CylinderProblem.on_grid(g, POWER23, 1.5,
                                           _boundary_array(g, 1.0))
        assert problem.kd == g.ny - 1

    def test_tall_grid_is_banded_along_its_rows(self):
        g = build_grid(0.5, (0.0, 8.0), 5, 33)
        problem = _CylinderProblem.on_grid(g, POWER23, 1.5,
                                           _boundary_array(g, 1.0))
        assert problem.kd == g.nx - 1

    def test_indefinite_hessian_is_numerical_failure(self):
        g = unit_square_grid()
        problem = _CylinderProblem.on_grid(g, POWER23, 2.0,
                                           _boundary_array(g, 1.0))
        u = problem.with_boundary(np.ones(g.n_nodes))
        grad, _ = problem.gradient(u, 1e-2)
        nfree = len(problem.free_idx)
        with pytest.raises(np.linalg.LinAlgError):
            # the p = 2 Hessian has diagonal 4, so fp = -10 makes it indefinite
            problem._solve(problem.measure * problem._dots,
                           np.full(nfree, -10.0), np.ones(nfree))

        class Decreasing:
            def f_prime(self, s):
                return np.full(np.shape(s), -1e3)

        problem.nl = Decreasing()
        with pytest.raises(NonConvergenceError,
                           match=r"not positive definite \(eps=1\.000e-02, "
                                 r"p=2\.0\)"):
            problem.newton_step(u, 1e-2, grad)


class TestSolveDirichlet:
    def test_constant_data_in_one_step(self):
        g = unit_square_grid()
        res = solve_dirichlet(g, Nonlinearity.zero(), SolverConfig(p=2.0),
                              4.0)
        assert np.max(np.abs(res.solution.values - 4.0)) < 1e-12
        assert all(s.iterations <= 1 for s in res.stages)

    def test_boundary_data_exact(self):
        g = build_grid(1.0, (0.0, 1.0), 9, 9)
        res = solve_dirichlet(g, POWER23, SolverConfig(p=1.5),
                              lambda X, Y: 1.0 + Y)
        bmask = g.boundary_mask()
        _, Y = g.node_coords()
        assert np.array_equal(res.solution.values[bmask], (1.0 + Y)[bmask])

    def test_mid_cylinder_matches_cosh(self):
        # small version of the analytic benchmark: the correction to the
        # cross profile decays exponentially along the cylinder
        g = build_grid(6.0, (0.0, 1.0), 97, 33)
        res = solve_dirichlet(g, LINEAR, SolverConfig(p=2.0), 1.0)
        mid = res.solution.as_rows()[:, 48]
        exact = np.cosh(g.y - 0.5) / np.cosh(0.5)
        assert np.max(np.abs(mid - exact)) < 1e-3

    @pytest.mark.parametrize("p,nl", [(2.0, LINEAR), (1.5, POWER23),
                                      (3.0, POWER23)])
    def test_comparison_for_ordered_data(self, p, nl):
        g = build_grid(2.0, (0.0, 1.0), 33, 9)
        cfg = SolverConfig(p=p)
        lo = solve_dirichlet(g, nl, cfg, 0.7)
        hi = solve_dirichlet(g, nl, cfg, 1.3)
        gap = hi.solution.values - lo.solution.values
        assert np.min(gap) >= -2.0 * cfg.tol

    def test_determinism(self):
        g = build_grid(2.0, (0.0, 1.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        a = solve_dirichlet(g, POWER23, cfg, 2.0)
        b = solve_dirichlet(g, POWER23, cfg, 2.0)
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.energy == b.energy

    def test_nonconvergence_carries_trace(self):
        g = build_grid(1.0, (-1.0, 1.0), 17, 17)
        cfg = SolverConfig(p=1.5, max_newton=1)
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(g, POWER23, cfg, 1e4)
        assert err.value.trace is not None

    def test_eps_robustness_cauchy(self):
        # halving eps_min must not amplify the solution change
        g = build_grid(2.0, (0.0, 1.0), 33, 17)
        w = Window(-1.0, 1.0, 0.25, 0.75)
        from plaplab import window_node_mask
        mask = window_node_mask(g, w)
        for p in (1.5, 3.0):
            h = min(g.hx, g.hy)
            problem = _CylinderProblem.on_grid(g, POWER23, p,
                                               _boundary_array(g, 1.0))
            sols = []
            for k in range(3):
                schedule = tuple(np.geomspace(h, 0.01 * h * h / 2 ** k, 6))
                u, _, _ = minimize_newton(problem,
                                          problem.laplace_fill(schedule[0]),
                                          schedule, 1e-9, 200)
                sols.append(u[mask])
            d1 = np.max(np.abs(sols[1] - sols[0]))
            d2 = np.max(np.abs(sols[2] - sols[1]))
            assert d2 <= 10.0 * d1 + 1e-13


class TestSolveBlowup:
    def test_requires_keller_osserman(self):
        g = build_grid(1.0, (0.0, 1.0), 9, 9)
        with pytest.raises(ValueError, match="no large solution"):
            solve_blowup(g, LINEAR, SolverConfig(p=2.0), [10.0, 100.0])

    def test_monotone_stages_and_stabilization(self):
        g = build_grid(2.0, (-1.0, 1.0), 65, 33)
        w = Window(-1.0, 1.0, -0.5, 0.5)
        results, report = solve_blowup(g, POWER23, SolverConfig(p=2.0),
                                       [10.0, 100.0, 1000.0, 10000.0],
                                       window=w)
        assert report.monotone_margin >= -2e-9
        changes = report.stage_max_change
        assert all(a > b for a, b in zip(changes, changes[1:]))
        # boundary carries the final level exactly
        bmask = g.boundary_mask()
        assert np.all(results[-1].solution.values[bmask] == 10000.0)

    def test_final_stage_below_barrier(self):
        g = build_grid(2.0, (-2.0, 2.0), 33, 33)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=2.0),
                                  [10.0, 100.0, 1000.0])
        report = verify_barrier(results[-1], (0.0, 0.0), 1.2)
        assert report.passed

    def test_centerline_approaches_cross_profile(self):
        # fine transverse grid: the mid-cylinder value approaches the
        # center value of the 1D blow-up profile
        ny = 401
        hy = 2.0 / (ny - 1)
        g = build_grid(4.0, (-1.0, 1.0), 65, ny)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=2.0),
                                  [10.0, 100.0, 1000.0, 10000.0])
        center = results[-1].solution.as_rows()[(ny - 1) // 2, 32]
        a = solve_large_1d(POWER23, 2.0, 1.0).a
        assert center == pytest.approx(a, abs=1e-2)
