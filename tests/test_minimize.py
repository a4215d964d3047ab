"""The Newton iteration's stall exit and the M sweep shared by the cylinder
and the cross-sectional blow-up solves."""

import numpy as np
import pytest

from plaplab import (NonConvergenceError, Nonlinearity, SolverConfig,
                     build_grid, solve_blowup, solve_cross_large)
from plaplab.minimize import minimize_newton, sweep_levels

POWER23 = Nonlinearity.power(2, 3)


def blowup_2d(m_list):
    return solve_blowup(build_grid(1.0, (0.0, 1.0), 9, 9), POWER23,
                        SolverConfig(p=2.0), m_list)


def blowup_1d(m_list):
    return solve_cross_large(POWER23, 2.0, (-1.0, 1.0), m_list, 11)


@pytest.mark.parametrize("solve", [blowup_2d, blowup_1d],
                         ids=["solve_blowup", "solve_cross_large"])
@pytest.mark.parametrize("m_list", [(), (10.0, 10.0), (100.0, 10.0)],
                         ids=["empty", "repeated", "decreasing"])
def test_non_increasing_levels_rejected(solve, m_list):
    with pytest.raises(ValueError, match="strictly increasing"):
        solve(m_list)


def test_interior_drop_beyond_twice_tol_aborts():
    tol = 1e-9
    interior = np.array([False, True, True, False])

    def solve_level(M, initial):
        # the second level lowers one interior value by 3 tol
        values = np.full(4, M)
        if initial is not None:
            values[1:-1] = initial[1:-1]
            values[2] -= 3.0 * tol
        return None, values

    with pytest.raises(NonConvergenceError, match="lost monotonicity"):
        sweep_levels(solve_level, (10.0, 100.0), POWER23, 2.0, tol,
                     interior, interior)


def test_changes_and_margin_over_the_watched_nodes():
    def solve_level(M, initial):
        return M, np.array([M, 0.5 * M, 0.1 * M, M])

    levels, results, changes, margin = sweep_levels(
        solve_level, [1, 2, 4], POWER23, 2.0, 1e-9,
        np.array([False, True, True, False]), slice(2, 3))
    assert levels == (1.0, 2.0, 4.0)
    assert results == [1.0, 2.0, 4.0]
    assert changes == pytest.approx([0.1, 0.2])
    assert margin == pytest.approx(0.1)


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
