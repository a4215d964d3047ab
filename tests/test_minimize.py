"""The Newton iteration's stage tolerances, line-search energies and stall
exit, and the M sweep shared by the cylinder and the cross-sectional
blow-up solves."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaplab import (NonConvergenceError, Nonlinearity, SolverConfig,
                     build_grid, solve_blowup, solve_cross_large,
                     solve_levels)
from plaplab.minimize import (_EPS_MACH, _ROUNDOFF_FACTOR, StageTrace,
                              default_eps_schedule, level_step,
                              minimize_newton, sweep_levels, warm_levels)
from plaplab.ode1d import _CrossProblem
from plaplab.solver import _CylinderProblem

POWER23 = Nonlinearity.power(2, 3)


def blowup_2d(m_list):
    return solve_blowup(build_grid(1.0, (0.0, 1.0), 9, 9), POWER23,
                        SolverConfig(p=2.0), m_list)


def blowup_1d(m_list):
    return solve_cross_large(POWER23, SolverConfig(p=2.0), (-1.0, 1.0),
                             m_list, 11)


def levels_2d(m_list):
    return solve_levels(build_grid(1.0, (0.0, 1.0), 9, 9), POWER23,
                        SolverConfig(p=2.0), m_list)


@pytest.mark.parametrize("solve", [blowup_2d, blowup_1d, levels_2d],
                         ids=["solve_blowup", "solve_cross_large",
                              "solve_levels"])
@pytest.mark.parametrize("m_list", [(), (10.0, 10.0), (100.0, 10.0)],
                         ids=["empty", "repeated", "decreasing"])
def test_non_increasing_levels_rejected(solve, m_list):
    with pytest.raises(ValueError, match="strictly increasing"):
        solve(m_list)


class _FakeSweepProblem:
    """Five nodes, the outer two fixed, solved under ``cfg``; ``minimize``
    returns ``rule(M, start)`` for the level M found on the fixed nodes,
    with one stage of ``int(M)`` Newton steps, and records each start it
    is given; ``tangent`` records the solution it is asked at and returns
    ``w`` (None: as after a solve in no Newton step)."""

    free = np.array([False, True, True, True, False])
    nl = POWER23

    def __init__(self, rule, tol=1e-9, w=None):
        self.rule = rule
        self.cfg = SolverConfig(p=2.0, tol=tol, max_newton=50)
        self.boundary_values = np.zeros(5)
        self.starts = []
        self.w = w
        self.tangent_at = []

    def tangent(self, u):
        self.tangent_at.append(u)
        return self.w

    def minimize(self, initial=None):
        self.starts.append(initial)
        level = self.boundary_values[~self.free]
        assert np.all(level == level[0])
        stage = StageTrace(eps=1e-3, iterations=int(level[0]),
                           residual=0.0, objective=0.0, tol=self.cfg.tol,
                           backtracks=0)
        return self.rule(float(level[0]), initial), [stage], {"M": level[0]}


def _lower_one_interior_value(drop):
    """Sweep rule whose second level lowers one interior value by
    ``drop``."""
    def rule(M, initial):
        values = np.full(5, M)
        if initial is not None:
            values[1:-1] = initial[1:-1]
            values[2] -= drop
        return values

    return rule


def test_interior_drop_beyond_twice_tol_aborts():
    tol = 1e-9
    problem = _FakeSweepProblem(_lower_one_interior_value(3.0 * tol), tol)
    with pytest.raises(NonConvergenceError, match="lost monotonicity"):
        sweep_levels(problem, (10.0, 100.0), problem.free)


def test_interior_drop_within_twice_tol_is_the_margin():
    tol = 1e-9
    problem = _FakeSweepProblem(_lower_one_interior_value(1.5 * tol), tol)
    _, report = sweep_levels(problem, (10.0, 100.0), problem.free)
    assert report.monotone_margin == pytest.approx(-1.5 * tol)


def test_changes_and_margin_over_the_watched_nodes():
    # the watched node is neither the one that changes most nor the one
    # that changes least
    problem = _FakeSweepProblem(
        lambda M, initial: np.array([M, 0.5 * M, 0.1 * M, 0.3 * M, M]))
    start = np.full(5, 7.0)
    results, report = sweep_levels(problem, [1, 2, 4], slice(3, 4),
                                   initial=start)
    assert report.m_values == (1.0, 2.0, 4.0)
    assert [info["M"] for _, _, info in results] == [1.0, 2.0, 4.0]
    assert [[s.iterations for s in stages] for _, stages, _ in results] == \
        [[1], [2], [4]]
    assert report.stage_max_change == pytest.approx([0.3, 0.6])
    assert report.monotone_margin == pytest.approx(0.1)
    assert report.level_newton_steps == (1, 2, 4)
    # the first level starts from ``initial``, each later one from the last
    # when the level below has no tangent
    assert problem.starts[0] is start
    assert all(s is u for s, (u, _, _) in zip(problem.starts[1:], results))
    assert all(t is u for t, (u, _, _) in zip(problem.tangent_at, results))


@pytest.mark.parametrize("m_list, steps", [
    ((1.0, 2.0, 4.0), (math.log(2.0), 2.0 * math.log(2.0))),
    ((-1.0, 0.0, 3.0), (1.0, 3.0)),
    ((-2.0, 0.5, 2.0), (2.5, 0.5 * math.log(4.0))),
], ids=["positive", "through_zero", "from_below_zero"])
def test_each_later_level_starts_from_the_euler_predictor(m_list, steps):
    # u_k + step w: the step is M_k ln(M_k+1 / M_k) from a positive level,
    # M_k+1 - M_k from a level <= 0
    w = np.array([1.0, 0.25, 0.5, 0.75, 1.0])
    problem = _FakeSweepProblem(
        lambda M, initial: np.array([M, 0.5 * M, 0.1 * M, 0.3 * M, M]), w=w)
    levels = list(warm_levels(problem, m_list))
    assert problem.starts[0] is None
    assert len(problem.tangent_at) == len(m_list) - 1
    for (u, _, _), at, start, step in zip(levels, problem.tangent_at,
                                          problem.starts[1:], steps):
        assert at is u
        np.testing.assert_allclose(start, u + step * w, rtol=1e-15)


@pytest.mark.parametrize("m_from, m_to, expected", [
    (10.0, 100.0, 10.0 * math.log(10.0)), (0.5, 0.75, 0.5 * math.log(1.5)),
    (5e-324, 1.0, None), (0.0, 2.0, 2.0), (-3.0, -1.0, 2.0)],
    ids=["decade", "close", "subnormal", "from_zero", "negative"])
def test_level_step(m_from, m_to, expected):
    # M_k ln(M_k+1 / M_k) from a positive level, never beyond the linear
    # step M_k+1 - M_k, which a level <= 0 takes; finite where the ratio
    # overflows
    step = level_step(m_from, m_to)
    assert 0.0 < step <= m_to - m_from
    if expected is not None:
        assert step == pytest.approx(expected, rel=1e-15)


class _BelowResolution:
    """One free dof with a constant residual and a zero Newton step."""

    free = np.array([False, True, False])
    mass = np.ones(3)

    def __init__(self, residual):
        self.residual = residual

    def gradient(self, u, eps):
        return np.full(3, self.residual), np.zeros(3)  # roundoff floor 0

    def newton_step(self, u, eps, grad):
        return np.zeros(1)

    def objective(self, u, eps):
        return 0.0


def test_stall_within_the_bound_is_accepted():
    u, stages, info = minimize_newton(_BelowResolution(3e-9), np.zeros(3),
                                      (1e-2,), 1e-9, 10)
    assert info["stalled"]
    assert info["residual"] == 3e-9
    assert len(stages) == 1


def test_stall_beyond_the_bound_raises_with_trace():
    with pytest.raises(NonConvergenceError, match="below resolution") as err:
        minimize_newton(_BelowResolution(5e-9), np.zeros(3), (1e-2,), 1e-9,
                        10)
    assert err.value.trace[-1].residual == 5e-9
    assert err.value.trace[-1].tol == 1e-9  # the only stage is the last


class _SmallNodeBehind:
    """Two free dofs, one large and converged, one small and off by 1e-12;
    energy 0.5 |u - target|^2 over the free dofs, exact Newton steps."""

    free = np.array([False, True, True, False])
    mass = np.ones(4)
    target = np.array([0.0, 1e6, 1e-12, 0.0])

    def gradient(self, u, eps):
        g = np.where(self.free, u - self.target, 0.0)
        return g, np.zeros(4)  # roundoff floor 0

    def newton_step(self, u, eps, grad):
        return -grad[self.free]

    def objective(self, u, eps):
        return float(0.5 * np.sum((u - self.target)[self.free] ** 2))


def test_step_resolved_at_its_own_node_is_taken():
    # the step (0, 1e-12) is below the resolution of the node at 1e6 but
    # not of the node it moves
    problem = _SmallNodeBehind()
    u, stages, info = minimize_newton(problem, np.array([0.0, 1e6, 0, 0]),
                                      (1e-2,), 1e-14, 10)
    assert not info["stalled"]
    assert stages[0].iterations == 1
    assert u[2] == 1e-12


class _Recorder:
    """Stands in for a problem and records the iterate of every gradient
    call and whether each objective call is a line-search trial (a point
    other than the last iterate whose gradient was taken)."""

    def __init__(self, problem):
        self.problem = problem
        self.free = problem.free
        self.mass = problem.mass
        self.iterates = []        # (eps, u) per gradient call
        self.trials = self.at_iterate = self.steps = 0

    def gradient(self, u, eps):
        self.iterates.append((eps, u.copy()))
        return self.problem.gradient(u, eps)

    def newton_step(self, u, eps, grad):
        self.steps += 1
        return self.problem.newton_step(u, eps, grad)

    def objective(self, u, eps):
        if np.array_equal(u, self.iterates[-1][1]):
            self.at_iterate += 1
        else:
            self.trials += 1
        return self.problem.objective(u, eps)


TOL = 1e-11


@pytest.fixture(scope="module")
def cold_solve():
    """A cold five-stage solve of a small blow-up level at p = 1.5."""
    grid = build_grid(1.0, (-1.0, 1.0), 9, 9)
    problem = _CylinderProblem.on_grid(grid, POWER23, SolverConfig(p=1.5),
                                       np.zeros(grid.n_nodes))
    problem.boundary_values[~problem.free] = 10.0
    recorder = _Recorder(problem)
    schedule = default_eps_schedule(problem.h)
    u, stages, info = minimize_newton(
        recorder, problem.with_boundary(np.full(grid.n_nodes, 10.0)),
        schedule, TOL, 200)
    return problem, recorder, schedule, u, stages


def _stage_end(problem, recorder, eps):
    """Residual and roundoff floor per free node where the stage at
    ``eps`` stopped (its last gradient)."""
    u = [u for e, u in recorder.iterates if e == eps][-1]
    grad, scale = problem.gradient(u, eps)
    m = problem.mass[problem.free]
    return (np.abs(grad[problem.free]) / m,
            _ROUNDOFF_FACTOR * _EPS_MACH * scale[problem.free] / m)


def test_intermediate_stages_stop_at_the_looser_bound(cold_solve):
    problem, recorder, schedule, _, stages = cold_solve
    assert [s.eps for s in stages] == [float(e) for e in schedule]
    above_tol = []
    for stage in stages[:-1]:
        resid, floor = _stage_end(problem, recorder, stage.eps)
        assert stage.tol == max(TOL, stage.eps)
        assert np.all(resid <= stage.tol + floor)
        above_tol.append(np.any(resid > TOL + floor))
    # the parent rule would have gone on iterating in some stage
    assert any(above_tol)
    resid, floor = _stage_end(problem, recorder, stages[-1].eps)
    assert stages[-1].tol == TOL
    assert np.all(resid <= TOL + floor)


def test_each_line_search_energy_is_computed_once(cold_solve):
    problem, recorder, _, u, stages = cold_solve
    backtracks = recorder.trials - recorder.steps
    assert recorder.steps == sum(s.iterations for s in stages) > 0
    assert backtracks >= 0
    assert recorder.trials + recorder.at_iterate <= \
        recorder.steps + backtracks + len(stages)
    assert stages[-1].objective == problem.objective(u, stages[-1].eps)


class _EnergyDrownedInRoundoff:
    """One free dof with gradient u - 1 and exact Newton steps, but an
    objective that rises towards the minimizer, so that every Armijo trial
    fails and the residual-decrease fallback takes the full step."""

    free = np.array([False, True, False])
    mass = np.ones(3)

    def gradient(self, u, eps):
        return np.where(self.free, u - 1.0, 0.0), np.zeros(3)

    def newton_step(self, u, eps, grad):
        return -grad[self.free]

    def objective(self, u, eps):
        return -float((u[1] - 1.0) ** 2)


def test_energy_after_the_fallback_is_evaluated_afresh():
    problem = _EnergyDrownedInRoundoff()
    u, stages, _ = minimize_newton(problem, np.zeros(3), (1e-2,), 1e-12, 5)
    assert u[1] == 1.0 and stages[0].iterations == 1
    assert stages[0].objective == problem.objective(u, 1e-2) == 0.0


class _RejectsFirstTrial:
    """One free dof with energy 0.5 (u - 1)^2 and exact Newton steps, but
    an objective that reads NaN at the first line-search trial, so that
    the first step is halved once."""

    free = np.array([False, True, False])
    mass = np.ones(3)

    def __init__(self):
        self.calls = 0

    def gradient(self, u, eps):
        return np.where(self.free, u - 1.0, 0.0), np.zeros(3)

    def newton_step(self, u, eps, grad):
        return -grad[self.free]

    def objective(self, u, eps):
        self.calls += 1
        return np.nan if self.calls == 2 else 0.5 * float((u[1] - 1.0) ** 2)


def test_stage_counts_its_rejected_trials():
    # the first trial is rejected and the half step taken; the second
    # step lands on the minimizer
    u, stages, _ = minimize_newton(_RejectsFirstTrial(), np.zeros(3),
                                   (1e-1, 1e-2), 1e-12, 5)
    assert u[1] == 1.0
    assert [(s.iterations, s.backtracks) for s in stages] == [(2, 1), (0, 0)]
    # every trial down to t = 2^-45 rejected: 46, then the fallback step
    _, stages, _ = minimize_newton(_EnergyDrownedInRoundoff(), np.zeros(3),
                                   (1e-2,), 1e-12, 5)
    assert (stages[0].iterations, stages[0].backtracks) == (1, 46)


def test_backtracks_are_the_trials_beyond_one_a_step(cold_solve):
    _, recorder, _, _, stages = cold_solve
    assert sum(s.backtracks for s in stages) == \
        recorder.trials - recorder.steps


# -- the Euler predictor of a warm sweep --------------------------------------

def _problem(mesh, nl, cfg, n):
    """A problem with every fixed node at 0: ``n`` nodes on a segment of
    (-1, 1), or an ``n`` x 5 grid of the square (-1, 1)^2."""
    if mesh == "segment":
        return _CrossProblem(nl, cfg, np.linspace(-1.0, 1.0, n), 0.0, 0.0)
    grid = build_grid(1.0, (-1.0, 1.0), n, 5)
    return _CylinderProblem.on_grid(grid, nl, cfg, np.zeros(grid.n_nodes))


def _steps(level):
    return sum(s.iterations for s in level[1])


def _rough(problem, seed):
    """A start whose free values are random in [0, 2)."""
    return np.random.default_rng(seed).uniform(0.0, 2.0,
                                               len(problem.free))


def _minimize_at(problem, M, start=None):
    problem.boundary_values[~problem.free] = M
    return problem.minimize(start)


MESHES = st.sampled_from(["segment", "grid"])


@settings(max_examples=40, deadline=None)
@given(mesh=MESHES, n=st.integers(5, 9), p=st.floats(1.1, 4.0),
       c=st.floats(0.5, 4.0), q=st.floats(1.0, 5.0),
       exponent=st.floats(-0.5, 2.5))
def test_tangent_matches_central_difference_of_solved_levels(
        mesh, n, p, c, q, exponent):
    # w = du/dM from the factor of the level's last Newton step, against
    # (u(M + d) - u(M - d)) / 2d of levels solved to 1e-12: the largest
    # gap over 200 random cases was 4.5e-7 (3.8e-8 with a factor at u)
    nl, cfg = Nonlinearity.power(c, q), SolverConfig(p=p, tol=1e-12)
    M = 10.0 ** exponent
    delta = 1e-4 * M
    problem = _problem(mesh, nl, cfg, n)
    level = _minimize_at(problem, M)
    u = level[0]
    assume(_steps(level) > 0)
    w = problem.tangent(u)
    assert problem.tangent(u) is None  # the factor is released
    up, _, _ = _minimize_at(_problem(mesh, nl, cfg, n), M + delta, u)
    um, _, _ = _minimize_at(_problem(mesh, nl, cfg, n), M - delta, u)
    assert np.all(w[~problem.free] == 1.0)
    assert np.max(np.abs(w - (up - um) / (2.0 * delta))) <= 1e-5


@settings(max_examples=30, deadline=None)
@given(mesh=MESHES, n=st.integers(5, 9), p=st.floats(1.1, 4.0),
       m_first=st.floats(-5.0, 0.0), gap=st.floats(0.1, 20.0))
def test_without_absorption_the_predictor_from_a_level_at_most_zero_is_exact(
        mesh, n, p, m_first, gap):
    # with f = 0 the solution moves by the constant M_k+1 - M_k, w = 1
    # exactly, and from a level <= 0 the step is that difference: the
    # next level starts at its solution and takes no Newton step
    problem = _problem(mesh, Nonlinearity.zero(), SolverConfig(p=p), n)
    u, stages, _ = _minimize_at(problem, m_first)  # the constant m_first
    eps = stages[-1].eps
    grad, _ = problem.gradient(u, eps)
    problem.newton_step(u, eps, grad)  # a factor at u
    w = problem.tangent(u)
    assert np.all(w == 1.0)
    start = u + level_step(m_first, m_first + gap) * w
    second = _minimize_at(problem, m_first + gap, start)
    assert _steps(second) == 0
    np.testing.assert_array_equal(second[0][problem.free],
                                  start[problem.free])


@pytest.mark.parametrize("mesh", ["segment", "grid"])
def test_a_level_solved_in_no_step_reuses_no_factor(mesh):
    problem = _problem(mesh, POWER23, SolverConfig(p=1.5), 7)
    first = _minimize_at(problem, 2.0, _rough(problem, 0))
    assert _steps(first) > 0
    u = first[0]
    # from its own solution the level takes no step: no tangent, though
    # the solve before left a factor
    again = _minimize_at(problem, 2.0, u)
    assert _steps(again) == 0
    assert problem.tangent(u) is None
    # in a sweep: with f = 0 the second level takes no step, so the third
    # starts from the second's solution itself
    problem = _problem(mesh, Nonlinearity.zero(), SolverConfig(p=1.5), 7)
    starts = []
    minimize = problem.minimize

    def recording(initial=None):
        starts.append(initial)
        return minimize(initial)

    problem.minimize = recording
    levels = list(warm_levels(problem, (-1.0, 1.0, 3.0),
                              _rough(problem, 0)))
    assert [_steps(level) > 0 for level in levels] == [True, False, True]
    assert starts[2] is levels[1][0]


@settings(max_examples=30, deadline=None)
@given(mesh=MESHES, n=st.integers(5, 9), p=st.floats(1.1, 4.0),
       c=st.floats(0.5, 4.0), q=st.floats(1.0, 5.0),
       m_list=st.lists(st.floats(-5.0, 20.0), min_size=2, max_size=5,
                       unique=True).map(sorted))
def test_ladders_through_levels_at_most_zero_converge(mesh, n, p, c, q,
                                                      m_list):
    # f is extended by 0 below 0, so a level <= 0 solves the p-Laplace
    # equation; every level converges within its stopping bound wherever
    # the same ladder converges with each level started from the solution
    # below (at p near 1 a start far from a flat solution can exceed the
    # Newton budget at the last eps alone, with or without the predictor)
    assume(m_list[0] <= 0.0)
    cfg = SolverConfig(p=p, tol=1e-10)
    nl = Nonlinearity.power(c, q)
    plain = _problem(mesh, nl, cfg, n)
    plain.tangent = lambda u: None
    try:
        list(warm_levels(plain, m_list))
    except NonConvergenceError:
        assume(False)
    problem = _problem(mesh, nl, cfg, n)
    for M, (u, stages, info) in zip(m_list, warm_levels(problem, m_list)):
        assert stages[-1].tol == cfg.tol
        bound = cfg.tol + info["roundoff_floor"]
        assert info["residual"] <= (4.0 if info["stalled"] else 1.0) * bound
        assert np.all(u[~problem.free] == M)
