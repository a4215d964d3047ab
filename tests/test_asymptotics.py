"""Rate fitting, ell sweeps and the structural check battery."""

import numpy as np
import pytest

from plaplab import (BlowupData, FiniteData, NonConvergenceError,
                     Nonlinearity, RateRow, RateUnresolvableError,
                     SolverConfig, SweepSpec, Window, asymptotics, build_grid,
                     embed_cross_section, fit_rate, solve_blowup,
                     solve_dirichlet, solve_large_1d, sweep_ell,
                     verify_barrier, verify_caccioppoli, verify_comparison,
                     verify_monotone_in_ell)
from plaplab.asymptotics import caccioppoli_constant

POWER23 = Nonlinearity.power(2, 3)
LINEAR = Nonlinearity.power(1, 1)


def rows_from(f, ells=(2.0, 4.0, 8.0, 16.0)):
    return [RateRow(ell=l, error=f(l)) for l in ells]


class TestFitRate:
    def test_exact_half_slope(self):
        rep = fit_rate(rows_from(lambda l: 7.0 * l ** -0.5), p=2.0)
        assert rep.slope == pytest.approx(-0.5, abs=1e-12)
        assert rep.passed
        assert rep.constant_estimate == pytest.approx(7.0, rel=1e-12)

    def test_faster_decay_passes(self):
        rep = fit_rate(rows_from(lambda l: 3.0 * l ** -2.0), p=2.0)
        assert rep.slope == pytest.approx(-2.0, abs=1e-12)
        assert rep.passed

    def test_slow_decay_fails(self):
        rep = fit_rate(rows_from(lambda l: l ** -0.2), p=2.0)
        assert not rep.passed

    def test_floor_rows_excluded(self):
        rows = rows_from(lambda l: 1.0 * l ** -1.0, (2.0, 4.0, 8.0))
        rows.append(RateRow(ell=16.0, error=1e-9))
        rep = fit_rate(rows, p=2.0, floor=1e-9)
        assert [r.used_in_fit for r in rep.rows] == [True, True, True, False]
        assert rep.slope == pytest.approx(-1.0, abs=1e-12)

    def test_unresolvable_when_all_rows_at_floor(self):
        rows = rows_from(lambda l: 0.0)
        with pytest.raises(RateUnresolvableError, match="unresolvable"):
            fit_rate(rows, p=2.0, floor=0.0)

    def test_too_few_rows(self):
        with pytest.raises(RateUnresolvableError):
            fit_rate(rows_from(lambda l: l ** -1.0, (2.0, 4.0)), p=2.0)

    @pytest.mark.parametrize("last, reason", [
        (RateRow(ell=16.0, error=1e-3, note="floor re-solve failed: X"),
         "no discretization floor: floor re-solve failed: X"),
        (RateRow(ell=16.0, error=float("nan"), note="solve failed: Y"),
         "no discretization floor: the largest-ell row (ell=16) has no "
         "error: solve failed: Y"),
    ], ids=["floor_failed", "last_row_failed"])
    def test_missing_floor_is_unresolvable(self, last, reason):
        # a missing floor must not read as floor 0 with every row fitted
        rows = rows_from(lambda l: l ** -1.0, (2.0, 4.0, 8.0)) + [last]
        with pytest.raises(RateUnresolvableError) as err:
            fit_rate(rows, p=2.0, floor=float("nan"))
        assert str(err.value) == reason


class TestSweepSpecValidation:
    def test_window_must_fit_smallest_half_cylinder(self):
        with pytest.raises(ValueError, match="half-length"):
            SweepSpec(nl=LINEAR, p=2.0, cross=(0.0, 1.0),
                      regime=FiniteData(1.0), ells=(2.0, 4.0),
                      window=Window(-1.5, 1.5, 0.25, 0.75), ny=9)

    def test_window_must_be_interior_in_y(self):
        with pytest.raises(ValueError, match="interior"):
            SweepSpec(nl=LINEAR, p=2.0, cross=(0.0, 1.0),
                      regime=FiniteData(1.0), ells=(2.0, 4.0),
                      window=Window(-1.0, 1.0, 0.0, 1.0), ny=9)

    def test_incompatible_ell_spacing_rejected(self):
        with pytest.raises(ValueError, match="resolvable"):
            SweepSpec(nl=LINEAR, p=2.0, cross=(0.0, 1.0),
                      regime=FiniteData(1.0), ells=(2.0, 3.1415),
                      window=Window(-1.0, 1.0, 0.25, 0.75), ny=9)


class TestSweep:
    SPEC = dict(nl=LINEAR, p=2.0, cross=(0.0, 1.0), regime=FiniteData(1.0),
                ells=(2.0, 4.0), window=Window(-1.0, 1.0, 0.25, 0.75), ny=9)

    def test_zero_nonlinearity_constant_data_is_flat(self):
        # both solutions are the constant, so the error column is zero up
        # to linear-solver roundoff and the rate is unresolvable
        spec = SweepSpec(nl=Nonlinearity.zero(), p=2.0, cross=(0.0, 1.0),
                         regime=FiniteData(2.0), ells=(2.0, 4.0, 8.0),
                         window=Window(-1.0, 1.0, 0.25, 0.75), ny=9)
        rows, floor, _ = sweep_ell(spec)
        assert all(r.error <= 1e-13 for r in rows)
        with pytest.raises(RateUnresolvableError):
            fit_rate(rows, 2.0, floor)

    def test_linear_benchmark_errors_decrease(self):
        # cross-section width 2 keeps three rows above the noise floor
        spec = SweepSpec(nl=LINEAR, p=2.0, cross=(0.0, 2.0),
                         regime=FiniteData(1.0), ells=(2.0, 4.0, 8.0),
                         window=Window(-1.0, 1.0, 0.5, 1.5), ny=17)
        rows, floor, _ = sweep_ell(spec)
        errors = [r.error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        rep = fit_rate(rows, 2.0, floor)
        assert rep.passed
        assert rep.slope <= -0.5 + 0.1

    def test_blowup_errors_decrease(self):
        spec = SweepSpec(nl=POWER23, p=2.0, cross=(-2.0, 2.0),
                         regime=BlowupData((10.0, 100.0, 1000.0)),
                         ells=(2.0, 4.0, 8.0),
                         window=Window(-1.0, 1.0, -1.0, 1.0), ny=17)
        rows, floor, extras = sweep_ell(spec)
        errors = [r.error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert set(extras) == {2.0, 4.0, 8.0}
        for blow in extras.values():
            assert blow.monotone_margin >= -2e-11

    def test_numerical_failure_is_recorded(self, monkeypatch):
        def fail(spec, ell, ny=None, *, reference):
            raise NonConvergenceError("stub failure")

        monkeypatch.setattr(asymptotics, "measure_row", fail)
        rows, floor, _ = sweep_ell(SweepSpec(**self.SPEC))
        assert all(r.note == "solve failed: stub failure" for r in rows)
        assert np.isnan(floor)

    def test_reference_solved_once_per_transverse_grid(self, monkeypatch):
        solved = []
        original = asymptotics._reference_profile

        def counting(spec, ny):
            solved.append(ny)
            return original(spec, ny)

        monkeypatch.setattr(asymptotics, "_reference_profile", counting)
        rows, floor, _ = sweep_ell(SweepSpec(**self.SPEC), threads=2)
        assert all(np.isfinite(r.error) for r in rows) and np.isfinite(floor)
        assert solved == [9, 17]

    def test_failed_reference_fails_every_row(self, monkeypatch):
        def fail(spec, ny):
            raise NonConvergenceError("stub reference failure")

        monkeypatch.setattr(asymptotics, "_reference_profile", fail)
        rows, floor, _ = sweep_ell(SweepSpec(**self.SPEC))
        assert all(r.note == "solve failed: stub reference failure"
                   for r in rows)
        assert np.isnan(floor)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(spec, ell, ny=None, *, reference):
            raise TypeError("stub bug")

        monkeypatch.setattr(asymptotics, "measure_row", broken)
        with pytest.raises(TypeError, match="stub bug"):
            sweep_ell(SweepSpec(**self.SPEC))

    REGIMES = pytest.mark.parametrize(
        "regime", [FiniteData(1.0), BlowupData((10.0, 100.0))],
        ids=["finite", "blowup"])

    @REGIMES
    def test_every_solve_starts_from_its_references_first_level(
            self, monkeypatch, regime):
        spec = SweepSpec(**{**self.SPEC, "nl": POWER23, "regime": regime})
        references = {}
        original = asymptotics._reference_profile

        def recording_reference(spec, ny):
            references[ny] = original(spec, ny)
            return references[ny]

        starts = []

        def recording(solve):
            def wrapped(grid, *args, initial, **kwargs):
                out = solve(grid, *args, initial=initial, **kwargs)
                first = out[0][0] if isinstance(out, tuple) else out
                starts.append((grid, initial, first))
                return out
            return wrapped

        monkeypatch.setattr(asymptotics, "_reference_profile",
                            recording_reference)
        monkeypatch.setattr(asymptotics, "solve_dirichlet",
                            recording(solve_dirichlet))
        monkeypatch.setattr(asymptotics, "solve_blowup",
                            recording(solve_blowup))
        _, floor, _ = sweep_ell(spec)
        assert np.isfinite(floor)
        # the two rows, then the floor re-solve at doubled resolution
        assert [(g.ell, g.ny) for g, _, _ in starts] == \
            [(2.0, 9), (4.0, 9), (4.0, 17)]
        for grid, initial, first in starts:
            start = references[grid.ny].start
            if isinstance(regime, BlowupData):
                assert start.g == (10.0, 10.0)
            assert np.array_equal(initial,
                                  embed_cross_section(start, grid).values)
            assert len(first.stages) == 1

    @REGIMES
    def test_row_agrees_with_a_cold_solve(self, regime):
        # the minimizer is unique: the start changes the path, not the end;
        # p = 1.5, since at p = 2 eps only adds a constant to the energy
        spec = SweepSpec(**{**self.SPEC, "nl": POWER23, "regime": regime,
                            "p": 1.5})
        _, _, results, _ = asymptotics.measure_row(
            spec, 4.0, reference=asymptotics._reference_profile(spec, 9))
        warm = results[-1].solution
        cfg = spec.solver_config()
        if isinstance(regime, FiniteData):
            cold = solve_dirichlet(warm.grid, POWER23, cfg, regime.g)
        else:
            cold = solve_blowup(warm.grid, POWER23, cfg, regime.m_list)[0][-1]
        assert np.max(np.abs(warm.values - cold.solution.values)) <= \
            10.0 * spec.tol

    def test_first_levels_take_fewer_newton_steps_than_cold(self):
        spec = SweepSpec(nl=POWER23, p=1.5, cross=(-2.0, 2.0),
                         regime=BlowupData((10.0, 100.0)), ells=(2.0, 4.0),
                         window=Window(-1.0, 1.0, -1.0, 1.0), ny=9)
        _, _, extras = sweep_ell(spec)
        assert set(extras) == {2.0, 4.0}
        for ell, blow in extras.items():
            grid = build_grid(ell, spec.cross, spec.nx_for(ell), spec.ny)
            _, cold = solve_blowup(grid, POWER23, spec.solver_config(),
                                   spec.regime.m_list)
            assert blow.level_newton_steps[0] < cold.level_newton_steps[0]

    def test_threaded_sweep_matches_serial(self, monkeypatch):
        spec = SweepSpec(nl=LINEAR, p=2.0, cross=(0.0, 1.0),
                         regime=FiniteData(1.0), ells=(2.0, 4.0),
                         window=Window(-1.0, 1.0, 0.25, 0.75), ny=9)
        threaded, floor_t, _ = sweep_ell(spec, threads=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(asymptotics, "ThreadPoolExecutor", no_pool)
        serial, floor_s, _ = sweep_ell(spec, threads=1)
        assert [(r.ell, r.error) for r in serial] == \
            [(r.ell, r.error) for r in threaded]
        assert floor_s == floor_t


@pytest.fixture(scope="module")
def blowup_pair():
    """Matched-M blow-up solves at ell = 2 and ell = 4."""
    cfg = SolverConfig(p=2.0)
    m_list = [10.0, 100.0, 1000.0]
    out = {}
    for ell in (2.0, 4.0):
        grid = build_grid(ell, (-1.0, 1.0), int(16 * ell) + 1, 17)
        results, _ = solve_blowup(grid, POWER23, cfg, m_list)
        out[ell] = results[-1]
    return out


class TestVerifiers:
    def test_comparison_ordered_pair(self):
        g = build_grid(1.0, (0.0, 1.0), 17, 9)
        cfg = SolverConfig(p=2.0)
        u = solve_dirichlet(g, LINEAR, cfg, 1.0)
        v = solve_dirichlet(g, LINEAR, cfg, 2.0)
        rep = verify_comparison(u, v)
        assert rep.passed and rep.worst > 0
        with pytest.raises(ValueError, match="must not exceed"):
            verify_comparison(v, u)

    def test_comparison_identical_data_gives_equality(self):
        g = build_grid(1.0, (0.0, 1.0), 17, 9)
        cfg = SolverConfig(p=2.0)
        u = solve_dirichlet(g, LINEAR, cfg, 1.0)
        v = solve_dirichlet(g, LINEAR, cfg, 1.0)
        rep = verify_comparison(u, v)
        assert rep.passed
        assert abs(rep.worst) <= 2.0 * cfg.tol

    def test_comparison_requires_same_grid(self):
        cfg = SolverConfig(p=2.0)
        u = solve_dirichlet(build_grid(1.0, (0.0, 1.0), 17, 9), LINEAR, cfg,
                            1.0)
        v = solve_dirichlet(build_grid(2.0, (0.0, 1.0), 17, 9), LINEAR, cfg,
                            2.0)
        with pytest.raises(ValueError, match="same grid"):
            verify_comparison(u, v)

    def test_monotone_in_ell_blowup(self, blowup_pair):
        rep = verify_monotone_in_ell(blowup_pair[2.0], blowup_pair[4.0],
                                     Window(-1.0, 1.0, -0.5, 0.5))
        assert rep.passed

    def test_monotone_in_ell_equal_solves(self, blowup_pair):
        rep = verify_monotone_in_ell(blowup_pair[2.0], blowup_pair[2.0],
                                     Window(-1.0, 1.0, -0.5, 0.5))
        assert rep.passed
        assert rep.worst == 0.0

    def test_monotone_requires_matched_regime(self, blowup_pair):
        g = build_grid(4.0, (-1.0, 1.0), 65, 17)
        other = solve_dirichlet(g, POWER23, SolverConfig(p=2.0), 1000.0)
        with pytest.raises(ValueError, match="regimes differ"):
            verify_monotone_in_ell(blowup_pair[2.0], other,
                                   Window(-1.0, 1.0, -0.5, 0.5))

    def test_barrier_on_blowup_stage(self, blowup_pair):
        res = blowup_pair[4.0]
        for cx in (-1.0, 0.0, 1.0):
            rep = verify_barrier(res, (cx, 0.0), 0.8)
            assert rep.passed, str(rep)

    def test_barrier_reuses_a_given_profile(self, blowup_pair, monkeypatch):
        res = blowup_pair[4.0]
        centers = ((-1.0, 0.0), (1.0, 0.0))
        solved = [verify_barrier(res, c, 0.8) for c in centers]
        profile = solve_large_1d(res.nl, res.p, 0.8)
        monkeypatch.setattr(asymptotics, "solve_large_1d", None)
        for center, ref in zip(centers, solved):
            rep = verify_barrier(res, center, 0.8, profile=profile)
            assert rep.passed and rep.details == ref.details

    def test_barrier_trivial_for_zero_data(self):
        g = build_grid(2.0, (-1.0, 1.0), 33, 17)
        res = solve_dirichlet(g, POWER23, SolverConfig(p=2.0), 0.0)
        assert np.max(np.abs(res.solution.values)) <= 1e-12
        rep = verify_barrier(res, (0.0, 0.0), 0.8)
        assert rep.passed

    def test_barrier_bound_grows_on_smaller_balls(self):
        # smaller domains carry larger blow-up profiles
        R = 0.8
        big = solve_large_1d(POWER23, 2.0, R).value_at(R / 2.0)
        small = solve_large_1d(POWER23, 2.0, R / 2.0).value_at(R / 4.0)
        assert big <= small

    def test_barrier_rejects_escaping_ball(self, blowup_pair):
        with pytest.raises(ValueError, match="not contained"):
            verify_barrier(blowup_pair[2.0], (0.0, 0.0), 1.5)

    def test_caccioppoli_constant_value(self):
        assert caccioppoli_constant(2.0) == pytest.approx(4.0, rel=1e-14)

    def test_caccioppoli_constant_solution(self):
        # u identically constant: the left side vanishes
        g = build_grid(2.0, (0.0, 1.0), 33, 9)
        res = solve_dirichlet(g, Nonlinearity.zero(), SolverConfig(p=2.0),
                              2.0)
        rep = verify_caccioppoli(res, Window(-0.5, 0.5, 0.4, 0.6),
                                 Window(-1.0, 1.0, 0.25, 0.75))
        assert rep.passed
        assert rep.details["lhs"] <= 1e-12

    def test_caccioppoli_cosh_benchmark(self):
        g = build_grid(4.0, (0.0, 1.0), 65, 33)
        res = solve_dirichlet(g, LINEAR, SolverConfig(p=2.0), 1.0)
        rep = verify_caccioppoli(res, Window(-1.0, 1.0, 0.3, 0.7),
                                 Window(-2.0, 2.0, 0.15, 0.85))
        assert rep.passed
        assert rep.details["lhs"] > 0

    def test_caccioppoli_across_blowup_stages(self):
        g = build_grid(2.0, (-1.0, 1.0), 33, 17)
        results, _ = solve_blowup(g, POWER23, SolverConfig(p=2.0),
                                  [10.0, 100.0, 1000.0])
        for res in results:
            rep = verify_caccioppoli(res, Window(-0.75, 0.75, -0.4, 0.4),
                                     Window(-1.25, 1.25, -0.6, 0.6))
            assert rep.passed, str(rep)

    def test_caccioppoli_rejects_non_nested(self):
        g = build_grid(2.0, (0.0, 1.0), 33, 9)
        res = solve_dirichlet(g, POWER23, SolverConfig(p=2.0), 1.0)
        with pytest.raises(ValueError, match="nested"):
            verify_caccioppoli(res, Window(-1.0, 1.0, 0.25, 0.75),
                               Window(-1.0, 1.0, 0.25, 0.75))
