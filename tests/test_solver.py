"""Energy assembly, Newton convergence, comparison and blow-up sweeps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaplab import (GridFunction, NonConvergenceError, Nonlinearity, Window,
                     SolverConfig, build_grid, energy, energy_gradient,
                     solve_blowup, solve_dirichlet, solve_large_1d,
                     verify_barrier)
import plaplab.solver
from plaplab.minimize import default_eps_schedule, minimize_newton
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
        # with f = 0 constant data is the exact solution, and a cold start
        # begins there
        g = unit_square_grid()
        res = solve_dirichlet(g, Nonlinearity.zero(), SolverConfig(p=2.0),
                              4.0)
        assert np.all(res.solution.values == 4.0)
        assert all(s.iterations == 0 for s in res.stages)

    def test_cold_solve_factors_once_per_newton_step(self, monkeypatch):
        calls = []
        original = plaplab.solver.solveh_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(plaplab.solver, "solveh_banded", counting)
        g = build_grid(2.0, (-2.0, 2.0), 17, 17)
        res = solve_dirichlet(g, POWER23, SolverConfig(p=1.5), 10.0)
        steps = sum(s.iterations for s in res.stages)
        assert steps > 0 and len(calls) == steps

    @pytest.mark.parametrize("bdata", [
        lambda X, Y: 1.0 + 99.0 * (Y > 0.5),
        lambda X, Y: np.exp(3.0 * (X + Y)),
    ], ids=["step", "exponential"])
    def test_cold_start_from_nonconstant_data(self, bdata):
        # the Laplace fill of either data, or the mean of the step, as the
        # start exceeds the Newton budget here; the smallest value does not
        g = build_grid(1.0, (0.0, 1.0), 65, 33)
        cfg = SolverConfig(p=1.25)
        res = solve_dirichlet(g, Nonlinearity.exp_minus_one(1.0), cfg, bdata)
        assert res.residual <= 4.0 * (cfg.tol
                                      + res.diagnostics["roundoff_floor"])
        # 0 and the largest boundary value bound the solution (comparison)
        hi = np.max(res.solution.values[g.boundary_mask()])
        assert np.all(res.solution.values >= -2.0 * cfg.tol)
        assert np.all(res.solution.values <= hi + 2.0 * cfg.tol)

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

    def test_warm_start_runs_only_the_last_eps_stage(self):
        g = build_grid(1.0, (0.0, 1.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        ladder = default_eps_schedule(min(g.hx, g.hy))
        cold = solve_dirichlet(g, POWER23, cfg, 2.0)
        warm = solve_dirichlet(g, POWER23, cfg, 3.0,
                               initial=cold.solution.values)
        assert [s.eps for s in cold.stages] == list(ladder)
        assert [s.eps for s in warm.stages] == [ladder[-1]]
        assert warm.residual <= cfg.tol + warm.diagnostics["roundoff_floor"]

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
            u0 = problem.with_boundary(np.ones(g.n_nodes))
            sols = []
            for k in range(3):
                schedule = tuple(np.geomspace(h, 0.01 * h * h / 2 ** k, 6))
                u, _, _ = minimize_newton(problem, u0, schedule, 1e-9, 200)
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

    def test_levels_after_the_first_run_one_stage(self):
        g = build_grid(1.0, (-1.0, 1.0), 17, 9)
        results, report = solve_blowup(g, POWER23, SolverConfig(p=1.5),
                                       [10.0, 100.0, 1000.0])
        assert [len(r.stages) for r in results] == [5, 1, 1]
        assert report.level_newton_steps == tuple(
            sum(s.iterations for s in r.stages) for r in results)

    def test_initial_warm_starts_the_first_level(self):
        g = build_grid(1.0, (-1.0, 1.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        cold, _ = solve_blowup(g, POWER23, cfg, [10.0, 100.0])
        warm, _ = solve_blowup(g, POWER23, cfg, [10.0, 100.0],
                               initial=cold[0].solution.values)
        assert [len(r.stages) for r in warm] == [1, 1]
        assert warm[0].stages[0].iterations == 0
        assert np.array_equal(warm[0].solution.values,
                              cold[0].solution.values)

    def test_one_problem_serves_every_level(self, monkeypatch):
        built = []
        on_grid = _CylinderProblem.on_grid.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return on_grid(cls, *args, **kwargs)

        monkeypatch.setattr(_CylinderProblem, "on_grid",
                            classmethod(counting))
        g = build_grid(1.0, (-1.0, 1.0), 9, 9)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=1.5),
                                  [10.0, 100.0, 1000.0])
        assert len(results) == 3
        assert built == [_CylinderProblem]

    def test_levels_equal_the_chain_of_dirichlet_solves(self):
        # the sweep as one solve_dirichlet per level, each warm-started
        # from the previous level, is the reference bit for bit
        g = build_grid(1.0, (-1.0, 1.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        m_list = (10.0, 100.0, 1000.0)
        results, _ = solve_blowup(g, POWER23, cfg, m_list)
        previous = None
        for M, res in zip(m_list, results):
            ref = solve_dirichlet(g, POWER23, cfg, M, initial=previous)
            assert np.array_equal(res.solution.values, ref.solution.values)
            assert res.stages == ref.stages
            assert res.energy == ref.energy
            assert res.residual == ref.residual
            assert res.boundary_mode == f"blowup(M={M:g})"
            previous = ref.solution.values

    def test_levels_do_not_alias(self):
        g = build_grid(1.0, (-1.0, 1.0), 9, 9)
        m_list = (10.0, 100.0, 1000.0)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=2.0), m_list)
        values = [r.solution.values for r in results]
        for i, a in enumerate(values):
            assert not any(np.shares_memory(a, b) for b in values[i + 1:])
        # each level keeps its own boundary value after the sweep moved on
        bmask = g.boundary_mask()
        for M, u in zip(m_list, values):
            assert np.all(u[bmask] == M)

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(1.2, 4.0),
           exponents=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=3,
                              unique=True))
    def test_sweep_ends_at_the_cold_solve_of_its_last_level(self, p,
                                                            exponents):
        # the warm-started levels reach the minimizer of the last level
        # that a cold start down the whole eps ladder reaches
        m_list = sorted(10.0 ** e for e in exponents)
        assume(all(b > a for a, b in zip(m_list, m_list[1:])))
        g = build_grid(1.0, (-1.0, 1.0), 9, 9)
        nl = Nonlinearity.power(2, 4)
        cfg = SolverConfig(p=p)
        results, _ = solve_blowup(g, nl, cfg, m_list)
        cold = solve_dirichlet(g, nl, cfg, m_list[-1])
        gap = results[-1].solution.values - cold.solution.values
        assert np.max(np.abs(gap)) <= 2.0 * cfg.tol

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(1.2, 4.0), c=st.floats(0.5, 4.0),
           nx=st.integers(3, 9), ny=st.integers(3, 9),
           exponents=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=4,
                              unique=True))
    def test_comparison_holds_along_random_ladders(self, p, c, nx, ny,
                                                   exponents):
        # higher constant boundary data give higher solutions
        m_list = sorted(10.0 ** e for e in exponents)
        assume(all(b > a for a, b in zip(m_list, m_list[1:])))
        g = build_grid(1.0, (-1.0, 1.0), nx, ny)
        cfg = SolverConfig(p=p)
        results, report = solve_blowup(g, Nonlinearity.power(c, 4), cfg,
                                       m_list)
        assert report.monotone_margin >= -2.0 * cfg.tol
        interior = g.interior_mask()
        for lower, higher in zip(results, results[1:]):
            gap = higher.solution.values - lower.solution.values
            assert np.min(gap[interior]) >= -2.0 * cfg.tol

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
