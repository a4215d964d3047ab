"""Energy assembly, Newton convergence, comparison and blow-up sweeps."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from plaplab import (GridFunction, NonConvergenceError, Nonlinearity, Window,
                     SolverConfig, build_grid, energy, energy_gradient,
                     solve_blowup, solve_cross_finite, solve_dirichlet,
                     solve_large_1d, solve_levels, verify_barrier,
                     window_node_mask)
import plaplab.solver
from plaplab.minimize import (default_eps_schedule, minimize_newton,
                              sweep_levels, warm_levels)
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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_far_below_eps_keeps_its_energy(self, p):
        # the cell term (|grad u|^2 + eps^2)^(p/2) - eps^p is below one ulp
        # of eps^p here; as a difference it reads 0 or roundoff noise
        eps, slope = 1e-3, 1e-12
        u = GridFunction.from_callable(unit_square_grid(),
                                       lambda X, Y: slope * X)
        expected = eps ** p * math.expm1(
            0.5 * p * math.log1p((slope / eps) ** 2)) / p
        assert expected > 0.0
        assert energy(u, Nonlinearity.zero(), p, eps) == pytest.approx(
            expected, rel=1e-12, abs=0.0)

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
                               res.stages[-1].eps)
        mass = g.lumped_mass()
        interior = g.interior_mask()
        assert np.max(np.abs(grad[interior]) / mass[interior]) <= 1e-9


def dense_hessian(cells, b, measure, p, u, eps):
    """Hessian of the regularized gradient energy, written out cell by
    cell: with g = sum_k u_k b_k and s = |g|^2 + eps^2 on a cell, its block
    is measure (s^(p/2-1) b_k.b_l + (p-2) s^(p/2-2) (g.b_k)(g.b_l))."""
    H = np.zeros((len(u), len(u)))
    for cell, bt in zip(cells, b):
        g = u[cell] @ bt
        s = g @ g + eps * eps
        gb = bt @ g
        H[np.ix_(cell, cell)] += measure * (
            s ** (0.5 * p - 1.0) * (bt @ bt.T)
            + (p - 2.0) * s ** (0.5 * p - 2.0) * np.outer(gb, gb))
    return H


def dense_newton_step(problem, cells, b, measure, u, eps):
    """Newton step of ``problem`` on the mesh (``cells``, ``b``,
    ``measure``) and a dense solve of the same system, its Hessian from
    :func:`dense_hessian`."""
    grad, _ = problem.gradient(u, eps)
    step = problem.newton_step(u, eps, grad)
    idx = problem.free_idx
    H = dense_hessian(cells, b, measure, problem.cfg.p, u, eps)
    H = H[np.ix_(idx, idx)]
    H += np.diag(problem.mass[idx] * problem.nl.f_prime(u[idx]))
    return step, np.linalg.solve(H, -grad[idx])


class TestBandedNewtonSolve:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_grid_step_matches_dense_solve(self, p):
        g = build_grid(2.0, (0.0, 1.0), 13, 6)
        problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=p),
                                           _boundary_array(g, 2.0))
        u = problem.with_boundary(
            1.0 + np.random.default_rng(7).random(g.n_nodes))
        step, dense = dense_newton_step(
            problem, g.triangles(), g.gradient_coefficients(),
            g.triangle_area(), u, 1e-2)
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_segment_step_matches_dense_solve(self, p):
        y = np.linspace(0.0, 1.0, 12)
        h = y[1] - y[0]
        problem = _CrossProblem(POWER23, SolverConfig(p=p), y, 2.0, 3.0)
        u = problem.with_boundary(
            1.0 + np.random.default_rng(8).random(12))
        cells = np.stack([np.arange(11), np.arange(1, 12)], axis=1)
        b = np.broadcast_to([[-1.0 / h], [1.0 / h]], (11, 2, 1))
        step, dense = dense_newton_step(problem, cells, b, h, u, 1e-2)
        assert problem.kd == 1
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("short", [3, 4, 6])
    def test_steps_keep_the_bits_of_cholesky_banded(self, short):
        # every band, tridiagonal (a segment, or a grid of one interior
        # row) or wider, is factored by cholesky_banded and solved by
        # cho_solve_banded from the band assembled here
        g = build_grid(1.0, (0.0, 1.0), 9, short)
        problems = [_CylinderProblem.on_grid(g, POWER23, SolverConfig(p=1.5),
                                             _boundary_array(g, 2.0)),
                    _CrossProblem(POWER23, SolverConfig(p=1.5),
                                  np.linspace(0.0, 1.0, 3 * short), 2.0,
                                  3.0)]
        assert [pr.kd for pr in problems] == [1 if short == 3 else short - 1,
                                              1]
        for problem in problems:
            u = problem.with_boundary(
                1.0 + np.random.default_rng(9).random(len(problem.free)))
            grad, _ = problem.gradient(u, 1e-2)
            blocks = problem._hessian_blocks(u, 1e-2)
            fp = problem.mass[problem.free_idx] * POWER23.f_prime(
                u[problem.free_idx])
            nfree = len(problem.free_idx)
            ab = np.bincount(problem._band_slots, weights=blocks.ravel(),
                             minlength=(problem.kd + 1) * nfree + 1)
            ab = ab[:-1].reshape(nfree, problem.kd + 1).T
            ab[0] += fp[problem._to_band]
            x = cho_solve_banded(
                (cholesky_banded(ab, lower=True), True),
                -grad[problem.free_idx][problem._to_band])
            step = problem.newton_step(u, 1e-2, grad)
            assert np.array_equal(step, x[problem._from_band])

    @pytest.mark.parametrize("mesh", ["grid", "segment"])
    def test_indefinite_band_leaves_no_factor(self, mesh):
        # a steeply decreasing f makes the Hessian indefinite on either
        # mesh, the segment's tridiagonal band included; the failed step
        # has dropped the factor of the step before
        if mesh == "grid":
            g = unit_square_grid()
            problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=2.0),
                                               _boundary_array(g, 1.0))
        else:
            problem = _CrossProblem(POWER23, SolverConfig(p=2.0),
                                    np.linspace(0.0, 1.0, 9), 1.0, 1.0)
            assert problem.kd == 1
        u = problem.with_boundary(np.ones(len(problem.free)))
        grad, _ = problem.gradient(u, 1e-2)
        problem.newton_step(u, 1e-2, grad)

        class Decreasing:
            def f_prime(self, s):
                return np.full(np.shape(s), -1e3)

        problem.nl = Decreasing()
        with pytest.raises(NonConvergenceError,
                           match="not positive definite"):
            problem.newton_step(u, 1e-2, grad)
        assert problem.tangent(u) is None

    @pytest.mark.parametrize("ell", [2.0, 16.0])
    def test_grid_bandwidth_does_not_grow_with_length(self, ell):
        # square cells: nx = 9 at ell = 2, 65 at ell = 16
        g = build_grid(ell, (-2.0, 2.0), 4 * int(ell) + 1, 9)
        problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=1.5),
                                           _boundary_array(g, 1.0))
        assert problem.kd == g.ny - 1

    def test_tall_grid_is_banded_along_its_rows(self):
        g = build_grid(0.5, (0.0, 8.0), 5, 33)
        problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=1.5),
                                           _boundary_array(g, 1.0))
        assert problem.kd == g.nx - 1

    def test_newton_step_memory_stays_lean(self):
        # tracemalloc peak of building a 257 x 33 problem and taking one
        # Newton step: 4.92 MB with one cell shape and the gradient's
        # cell quantities handed to the Hessian, 7.28 MB with per-cell
        # coefficient arrays (b, |b| and the b_k . b_l, 18 numbers a
        # cell) and 8.87 MB with per-cell 3 x 3 Hessian blocks.  The bound
        # is 10 % over the first, so that per-cell coefficients, or a
        # hand-off kept alive into the band's assembly, would break it
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            g = build_grid(8.0, (-1.0, 1.0), 257, 33)
            problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=1.5),
                                               _boundary_array(g, 10.0))
            u = problem.with_boundary(
                1.0 + np.random.default_rng(0).random(g.n_nodes))
            grad, _ = problem.gradient(u, 1e-4)
            problem.newton_step(u, 1e-4, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.10 * 4.92e6

    def test_indefinite_hessian_is_numerical_failure(self):
        g = unit_square_grid()
        problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=2.0),
                                           _boundary_array(g, 1.0))
        u = problem.with_boundary(np.ones(g.n_nodes))
        grad, _ = problem.gradient(u, 1e-2)
        nfree = len(problem.free_idx)
        with pytest.raises(np.linalg.LinAlgError):
            # the p = 2 Hessian has diagonal 4, so fp = -10 makes it indefinite
            problem._solve(problem._hessian_blocks(u, 1e-2),
                           np.full(nfree, -10.0), np.ones(nfree))

        class Decreasing:
            def f_prime(self, s):
                return np.full(np.shape(s), -1e3)

        problem.nl = Decreasing()
        with pytest.raises(NonConvergenceError,
                           match=r"not positive definite \(eps=1\.000e-02, "
                                 r"p=2\.0\)"):
            problem.newton_step(u, 1e-2, grad)


@st.composite
def kernel_cases(draw):
    """A problem of p in (1, 4] with power or e^s - 1 absorption on a
    wide grid, a tall grid (banded along its rows), either of them folded
    onto its half mesh, or a segment, with random nodal values (boundary
    data included) and eps."""
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    nl = draw(st.one_of(
        st.builds(Nonlinearity.power, st.floats(0.5, 4.0),
                  st.floats(1.0, 5.0)),
        st.builds(Nonlinearity.exp_minus_one, st.floats(0.1, 4.0))))
    mesh = draw(st.sampled_from(["wide", "tall", "segment"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if mesh == "segment":
        n = draw(st.integers(3, 24))
        problem = _CrossProblem(nl, SolverConfig(p=p),
                                np.linspace(0.0, 1.0, n),
                                *rng.uniform(0.0, 2.0, 2))
    else:
        short, extra = draw(st.integers(3, 7)), draw(st.integers(0, 8))
        nx, ny = (short + extra, short) if mesh == "wide" else \
            (short, short + 1 + extra)
        g = build_grid(1.0, (0.0, 1.0), nx, ny)
        build = _CylinderProblem.on_half_mesh if draw(st.booleans()) \
            else _CylinderProblem.on_grid
        problem = build(g, nl, SolverConfig(p=p),
                        rng.uniform(0.0, 2.0, g.n_nodes))
        n = len(problem.free)
    u = problem.with_boundary(rng.uniform(0.0, 2.0, n))
    return problem, u, draw(st.floats(1e-3, 0.3))


def free_direction(problem, seed=0):
    """A random direction of max norm 1 that moves the free nodes only."""
    v = np.random.default_rng(seed).standard_normal(len(problem.free))
    v[~problem.free] = 0.0
    return v / np.max(np.abs(v))


def gradient_difference(problem, u, eps, v):
    """Central difference of ``problem.gradient`` along ``v`` (max norm
    1), its step a small fraction of eps h: the cell gradients then move
    by much less than the regularization even on a flat cell, where the
    gradient term bends most."""
    delta = 3e-4 * eps * problem.h
    up, _ = problem.gradient(u + delta * v, eps)
    um, _ = problem.gradient(u - delta * v, eps)
    return (up - um) / (2.0 * delta)


def pair_matvec(problem, blocks, v):
    """H v for the Hessian whose node-pair entries are ``blocks``."""
    Hv = np.zeros(len(v))
    for block, k, l in zip(blocks, *problem._pairs):
        np.add.at(Hv, problem.nodes[k], block * v[problem.nodes[l]])
        if k != l:
            np.add.at(Hv, problem.nodes[l], block * v[problem.nodes[k]])
    return Hv


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases())
    def test_gradient_matches_objective_differences(self, case):
        problem, u, eps = case
        grad, _ = problem.gradient(u, eps)
        delta = 1e-6
        for i in problem.free_idx:
            e = np.zeros(len(u))
            e[i] = delta
            fd = (problem.objective(u + e, eps)
                  - problem.objective(u - e, eps)) / (2.0 * delta)
            assert abs(fd - grad[i]) <= 1e-5 * (1.0 + np.max(np.abs(grad)))

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases())
    def test_hessian_matches_gradient_differences(self, case):
        problem, u, eps = case
        free = problem.free_idx
        fp = problem.mass * problem.nl.f_prime(u)
        blocks = problem._hessian_blocks(u, eps)
        # the node-pair entries of _hessian_blocks, applied to a direction
        v = free_direction(problem)
        Hv = pair_matvec(problem, blocks, v) + fp * v
        fd = gradient_difference(problem, u, eps, v)
        assert np.max(np.abs(fd - Hv)[free]) <= 1e-5 * (
            1.0 + np.max(np.abs(Hv[free])))
        # the band the Newton step factors: H s = -grad on the free nodes,
        # to roundoff in |H| |s|.  Checked algebraically: near p = 1 the
        # step can exceed 1e6, far beyond where a difference of the
        # gradient along it stays linear.
        grad, _ = problem.gradient(u, eps)
        s = np.zeros(len(u))
        s[free] = problem.newton_step(u, eps, grad)
        residual = pair_matvec(problem, blocks, s) + fp * s + grad
        row_sums = pair_matvec(problem, np.abs(blocks), np.ones(len(u)))
        h_norm = np.max((row_sums + np.abs(fp))[free])
        assert np.max(np.abs(residual[free])) <= (
            1e-12 * h_norm * np.max(np.abs(s)))

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases())
    def test_scale_bounds_the_gradient_term(self, case):
        problem, u, eps = case
        grad, scale = problem.gradient(u, eps)
        fvals = problem.mass * problem.nl.f_extended(u)
        assert np.all(np.abs(grad - fvals) + np.abs(fvals)
                      <= scale * (1.0 + 1e-12))


MESHES = {
    "grid": lambda: _CylinderProblem.on_grid(
        build_grid(1.0, (0.0, 1.0), 9, 6), POWER23, SolverConfig(p=1.5),
        np.linspace(1.0, 2.0, 54)),
    "half": lambda: _CylinderProblem.on_half_mesh(
        build_grid(1.0, (0.0, 1.0), 9, 6), POWER23, SolverConfig(p=1.5),
        np.full(54, 2.0)),
    "segment": lambda: _CrossProblem(POWER23, SolverConfig(p=1.5),
                                     np.linspace(0.0, 1.0, 12), 2.0, 3.0),
}


@pytest.mark.parametrize("mesh", sorted(MESHES))
class TestCellPasses:
    def test_coefficients_have_one_cell_shape(self, mesh):
        # every float array a problem holds with more than one axis has a
        # cell axis of length 1: the one shape, broadcast over the cells
        problem = MESHES[mesh]()
        held = {name: value for name, value in vars(problem).items()
                if isinstance(value, np.ndarray) and value.ndim > 1
                and value.dtype.kind == "f"}
        assert {"b", "_abs_b", "_pair_dots"} <= set(held)
        assert all(value.shape[-1] == 1 for value in held.values())

    def test_an_iterate_written_in_place_gets_no_stale_hand_off(self, mesh):
        # the objective's cell pass and the gradient's cell weights are
        # handed on only at an equal iterate
        problem = MESHES[mesh]()
        u = problem.with_boundary(
            1.0 + np.random.default_rng(3).random(len(problem.free)))
        first, last = problem.free_idx[0], problem.free_idx[-1]
        problem.objective(u, 1e-2)
        u[first] += 0.5
        grad, scale = problem.gradient(u, 1e-2)
        fresh_grad, fresh_scale = MESHES[mesh]().gradient(u, 1e-2)
        assert np.array_equal(grad, fresh_grad)
        assert np.array_equal(scale, fresh_scale)
        u[last] -= 0.25
        assert np.array_equal(problem.newton_step(u, 1e-2, grad),
                              MESHES[mesh]().newton_step(u, 1e-2, grad))

    def test_a_solve_makes_one_cell_pass_per_objective_and_stage(
            self, mesh, monkeypatch):
        # each gradient but a stage's first takes the cell pass of the
        # accepted trial's objective, and each Hessian the gradient's
        passes, objectives = [], []
        cell_pass = _CylinderProblem._cell_pass
        objective = _CylinderProblem.objective

        def counted_pass(self, u):
            passes.append(1)
            return cell_pass(self, u)

        def counted_objective(self, u, eps):
            objectives.append(1)
            return objective(self, u, eps)

        monkeypatch.setattr(_CylinderProblem, "_cell_pass", counted_pass)
        monkeypatch.setattr(_CylinderProblem, "objective", counted_objective)
        problem = MESHES[mesh]()
        _, stages, _ = problem.minimize()
        assert sum(s.iterations for s in stages) > len(stages)
        assert len(passes) <= len(objectives) + len(stages)


class TestBoundaryArray:
    def test_scalar_from_a_callable_is_broadcast(self):
        g = unit_square_grid()
        values = _boundary_array(g, lambda X, Y: 3.0)
        bmask = g.boundary_mask()
        assert np.all(values[bmask] == 3.0)
        assert np.all(values[~bmask] == 0.0)

    def test_non_finite_boundary_data_raise(self):
        g = unit_square_grid()
        with pytest.raises(ValueError, match="finite on all boundary"):
            _boundary_array(g, lambda X, Y: np.where(X == X.max(), np.nan,
                                                     1.0))
        # values at interior nodes are not boundary data: they are dropped
        interior = np.flatnonzero(~g.boundary_mask())[0]
        values = _boundary_array(g, lambda X, Y: np.where(
            np.arange(X.size) == interior, np.inf, 1.0))
        assert np.all(np.isfinite(values))


class TestSolveDirichlet:
    @pytest.mark.parametrize("bad", [
        {"p": math.nan}, {"p": math.inf}, {"p": 2.0, "tol": math.nan},
        {"p": 2.0, "tol": math.inf}, {"p": 2.0, "max_newton": math.nan},
        {"p": 2.0, "max_newton": math.inf},
    ], ids=["p_nan", "p_inf", "tol_nan", "tol_inf", "max_newton_nan",
            "max_newton_inf"])
    def test_non_finite_settings_rejected(self, bad):
        # a NaN tol would otherwise surface as NonConvergenceError, a
        # numerical failure, at the first solve, and a NaN max_newton
        # would lift the Newton budget
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**bad)

    def test_constant_data_in_one_step(self):
        # with f = 0 constant data is the exact solution, and a cold start
        # begins there
        g = unit_square_grid()
        res = solve_dirichlet(g, Nonlinearity.zero(), SolverConfig(p=2.0),
                              4.0)
        assert np.all(res.solution.values == 4.0)
        assert all(s.iterations == 0 for s in res.stages)

    def test_cold_solve_factors_once_per_newton_step(self, monkeypatch):
        # a tridiagonal band (one interior row, or a segment) is factored
        # by the same cholesky_banded as a wider one
        calls, steps = [], []
        original = plaplab.solver.cholesky_banded
        original_step = _CylinderProblem.newton_step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def stepping(problem, *args):
            steps.append(problem.kd)
            return original_step(problem, *args)

        monkeypatch.setattr(plaplab.solver, "cholesky_banded", counting)
        monkeypatch.setattr(_CylinderProblem, "newton_step", stepping)
        cfg = SolverConfig(p=1.5)
        for ny, kd in [(17, 16), (3, 1), (None, 1)]:
            calls.clear()
            steps.clear()
            if ny is None:
                solve_cross_finite(POWER23, cfg, (-2.0, 2.0), 10.0, 10.0, 17)
            else:
                g = build_grid(2.0, (-2.0, 2.0), 17, ny)
                res = solve_dirichlet(g, POWER23, cfg, 10.0)
                assert len(steps) == sum(s.iterations for s in res.stages)
            assert steps and len(calls) == len(steps)
            assert set(steps) == {kd}

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
        assert res.residual <= cfg.tol + res.roundoff_floor
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
        assert warm.residual <= cfg.tol + warm.roundoff_floor

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
        mask = window_node_mask(g, w)
        for p in (1.5, 3.0):
            h = min(g.hx, g.hy)
            problem = _CylinderProblem.on_grid(g, POWER23, SolverConfig(p=p),
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


class TestSolveLevels:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_every_level_matches_its_cold_solve(self, p):
        # both minimize one strictly convex energy to a residual within
        # tol; on this grid the warm and cold minimizers differ by at most
        # 0.02 tol, and on the 17 x 17 `check` grid by at most 0.34 tol
        g = build_grid(1.0, (-1.0, 1.0), 17, 9)
        cfg = SolverConfig(p=p)
        levels = (0.25, 1.0, 2.5, 4.0, 9.0)
        results = solve_levels(g, POWER23, cfg, levels)
        assert [len(r.stages) for r in results] == [5, 1, 1, 1, 1]
        for M, res in zip(levels, results):
            cold = solve_dirichlet(g, POWER23, cfg, M)
            gap = res.solution.values - cold.solution.values
            assert np.max(np.abs(gap)) <= 2.0 * cfg.tol
            assert res.boundary_mode == cold.boundary_mode
        # the lowest level is the cold solve itself
        assert np.array_equal(results[0].solution.values,
                              solve_dirichlet(g, POWER23, cfg,
                                              levels[0]).solution.values)

    def test_one_problem_serves_every_level(self, monkeypatch):
        built = []
        on_half_mesh = _CylinderProblem.on_half_mesh.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return on_half_mesh(cls, *args, **kwargs)

        monkeypatch.setattr(_CylinderProblem, "on_half_mesh",
                            classmethod(counting))
        g = build_grid(1.0, (-1.0, 1.0), 9, 9)
        results = solve_levels(g, POWER23, SolverConfig(p=1.5),
                               [0.5, 1.0, 2.0])
        assert len(results) == 3
        assert built == [_CylinderProblem]


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
        on_half_mesh = _CylinderProblem.on_half_mesh.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return on_half_mesh(cls, *args, **kwargs)

        monkeypatch.setattr(_CylinderProblem, "on_half_mesh",
                            classmethod(counting))
        g = build_grid(1.0, (-1.0, 1.0), 9, 9)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=1.5),
                                  [10.0, 100.0, 1000.0])
        assert len(results) == 3
        assert built == [_CylinderProblem]

    def test_levels_equal_the_chain_of_dirichlet_solves(self):
        # the sweep as one solve_dirichlet per level, each started from
        # the Euler predictor of the level below, is the reference bit for
        # bit; the predictor's tangent comes from the same solve repeated
        # on a half-mesh problem of its own
        g = build_grid(1.0, (-1.0, 1.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        m_list = (10.0, 100.0, 1000.0)
        results, _ = solve_blowup(g, POWER23, cfg, m_list)
        start = None
        for k, (M, res) in enumerate(zip(m_list, results)):
            ref = solve_dirichlet(g, POWER23, cfg, M, initial=start)
            assert np.array_equal(res.solution.values, ref.solution.values)
            assert res.stages == ref.stages
            assert res.energy == ref.energy
            assert res.residual == ref.residual
            assert res.boundary_mode == f"blowup(M={M:g})"
            problem = _CylinderProblem.on_half_mesh(g, POWER23, cfg,
                                                    _boundary_array(g, M))
            kept = len(problem.free)
            u, _, _ = problem.minimize(None if start is None
                                       else start[:kept])
            assert np.array_equal(u[problem.lift], ref.solution.values)
            w = problem.tangent(u)
            assert w is not None
            if k + 1 < len(m_list):
                start = (u + M * (math.log(m_list[k + 1]) - math.log(M))
                         * w)[problem.lift]

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
        bound = solve_large_1d(POWER23, 2.0, 1.2).value_at(0.6)
        report = verify_barrier(results[-1], (0.0, 0.0), 1.2, bound)
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


@st.composite
def half_turn_cases(draw):
    """A grid of any parity of (nx, ny), long or tall, on a cross-section
    that may sit off the x axis, and p in [1.2, 4]."""
    g = build_grid(draw(st.sampled_from([0.5, 1.0, 2.0])),
                   draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0),
                                         (0.5, 1.5)])),
                   draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    return g, SolverConfig(p=draw(st.floats(1.2, 4.0)))


class TestHalfMesh:
    """Solves whose boundary data the half-turn (x, y) -> (-x, y0 + y1 - y)
    leaves unchanged run on the half mesh; the whole mesh's problem is the
    reference."""

    @settings(max_examples=25, deadline=None)
    @given(case=half_turn_cases(),
           exponents=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=3,
                              unique=True))
    # cells of aspect 10 near p = 1.2: the discrete comparison principle
    # fails, and both meshes' sweeps lose monotonicity at M = 100
    @example(case=(build_grid(2.0, (-1.0, 1.0), 3, 11),
                   SolverConfig(p=1.21875)), exponents=[1.0, 2.0])
    def test_sweeps_take_the_whole_meshs_steps_to_its_values(self, case,
                                                             exponents):
        g, cfg = case
        m_list = sorted(10.0 ** e for e in exponents)
        assume(all(b > a for a, b in zip(m_list, m_list[1:])))
        nl = Nonlinearity.power(2, 4)
        full = _CylinderProblem.on_grid(g, nl, cfg, np.zeros(g.n_nodes))
        try:
            levels, report = sweep_levels(full, m_list, full.free)
        except NonConvergenceError as exc:
            # the half mesh's sweep stops where the whole mesh's does
            with pytest.raises(NonConvergenceError,
                               match=re.escape(str(exc))):
                solve_blowup(g, nl, cfg, m_list)
        else:
            results, half_report = solve_blowup(g, nl, cfg, m_list)
            assert half_report.level_newton_steps == \
                report.level_newton_steps
            for M, (u, _, _), res in zip(m_list, levels, results):
                assert np.max(np.abs(res.solution.values - u)) <= (
                    10.0 * cfg.tol * max(1.0, M))
        for M, (u, stages, _), res in zip(
                m_list, warm_levels(full, m_list),
                solve_levels(g, nl, cfg, m_list)):
            assert res.newton_steps == sum(s.iterations for s in stages)
            assert np.max(np.abs(res.solution.values - u)) <= (
                10.0 * cfg.tol * max(1.0, M))

    @settings(max_examples=40, deadline=None)
    @given(case=half_turn_cases(), seed=st.integers(0, 2 ** 32 - 1),
           eps=st.floats(1e-3, 0.3))
    def test_lift_doubles_the_energy_and_carries_gradient_and_step(
            self, case, seed, eps):
        # for v on the half mesh: E(lift v) = 2 E_half(v), the half's
        # gradient is half the whole gradient summed over each node and
        # its image, and the whole mesh's Newton step is the lift of the
        # half's
        g, cfg = case
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 2.0, g.n_nodes)
        data += data[::-1]
        half = _CylinderProblem.on_half_mesh(g, POWER23, cfg, data)
        v = half.with_boundary(rng.uniform(0.0, 4.0, len(half.free)))
        u = GridFunction(g, v[half.lift])
        whole = energy(u, POWER23, cfg.p, eps)
        assert whole == pytest.approx(2.0 * half.full_energy(v, eps),
                                      rel=1e-12)
        fold = np.bincount(half.lift, minlength=len(v),
                           weights=energy_gradient(u, POWER23, cfg.p, eps))
        grad, scale = half.gradient(v, eps)
        assert np.all(np.abs(fold - 2.0 * grad) <= 1e-12 * 2.0 * scale)
        full = _CylinderProblem.on_grid(g, POWER23, cfg, data)
        whole_step = np.zeros(g.n_nodes)
        whole_step[full.free_idx] = full.newton_step(
            u.values, eps, full.gradient(u.values, eps)[0])
        step = np.zeros(len(v))
        step[half.free_idx] = half.newton_step(v, eps, grad)
        assert np.max(np.abs(whole_step - step[half.lift])) <= (
            1e-10 * np.max(np.abs(whole_step)))

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(3, 70), ny=st.integers(3, 70))
    def test_band_is_no_wider_than_the_whole_meshs(self, nx, ny):
        # the lines across the shorter side, read through the fold, keep
        # the whole mesh's half-bandwidth min(nx, ny) - 1; lines along the
        # longer side would give the longer one
        g = build_grid(1.0, (0.0, 2.0), nx, ny)
        half = _CylinderProblem.on_half_mesh(g, POWER23, SolverConfig(p=2.0),
                                             np.zeros(g.n_nodes))
        assert half.kd <= min(nx, ny) - 1
        assert len(half.free) == (g.n_nodes + 1) // 2

    def test_an_off_centre_window_watches_its_image_too(self):
        # a window in one corner: the half mesh keeps only the image of
        # some of its nodes, and the sweep's changes are still the whole
        # mesh's over the window
        g = build_grid(1.0, (0.0, 2.0), 17, 9)
        cfg = SolverConfig(p=1.5)
        m_list = (10.0, 100.0, 1000.0)
        window = Window(0.2, 0.8, 1.3, 1.7)
        full = _CylinderProblem.on_grid(g, POWER23, cfg, np.zeros(g.n_nodes))
        _, report = sweep_levels(full, m_list,
                                 window_node_mask(g, window) & full.free)
        _, half_report = solve_blowup(g, POWER23, cfg, m_list, window=window)
        assert half_report.stage_max_change == pytest.approx(
            report.stage_max_change, abs=10.0 * cfg.tol * m_list[-1])

    def test_asymmetric_data_solve_on_the_whole_mesh(self, monkeypatch):
        built = []
        on_half_mesh = _CylinderProblem.on_half_mesh.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return on_half_mesh(cls, *args, **kwargs)

        monkeypatch.setattr(_CylinderProblem, "on_half_mesh",
                            classmethod(counting))
        g = build_grid(1.0, (0.0, 1.0), 9, 7)
        cfg = SolverConfig(p=2.0)
        tilted = solve_dirichlet(g, LINEAR, cfg, lambda X, Y: 1.0 + X)
        assert built == []
        flat = solve_dirichlet(g, LINEAR, cfg, lambda X, Y: 1.0 + X * X)
        assert built == [_CylinderProblem]
        for res in (tilted, flat):
            u = res.solution
            assert res.energy == pytest.approx(
                energy(u, LINEAR, 2.0, res.stages[-1].eps), rel=1e-12)


@pytest.mark.parametrize("caller,seen", [(None, "1"), ("2", "2")])
def test_importing_plaplab_sets_one_openblas_thread_unless_set(caller, seen):
    # the default must be in place before numpy loads OpenBLAS, so it is
    # read in a fresh interpreter, one per case
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    env["PYTHONPATH"] = str(Path(plaplab.solver.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, plaplab; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == seen
