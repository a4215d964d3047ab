"""Rate fitting, ell sweeps and the structural check battery."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plaplab import (BlowupData, FiniteData, NonConvergenceError,
                     Nonlinearity, RateRow, RateUnresolvableError,
                     SolverConfig, SweepSpec, Window, asymptotics, build_grid,
                     distance_profile_start, embed_cross_section,
                     fit_rate, solve_blowup, solve_dirichlet,
                     solve_large_1d, sweep_ell, verify_barrier,
                     verify_caccioppoli, verify_comparison,
                     verify_monotone_in_ell)
from plaplab.asymptotics import caccioppoli_constant
from plaplab.minimize import comparison_slack
import plaplab.nonlinearity
import plaplab.ode1d

POWER23 = Nonlinearity.power(2, 3)
LINEAR = Nonlinearity.power(1, 1)


def usable_cpus(monkeypatch, n):
    """Make the process read ``n`` usable CPUs, which decides whether
    :func:`sweep_ell` forks its floor (n > 1) or runs it inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def barrier_bound(result, R):
    """phi_R(R/2) of ``result``'s nonlinearity and p, the bound that
    :func:`verify_barrier` is given."""
    return solve_large_1d(result.nl, result.p, R).value_at(R / 2.0)


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
        rows.append(RateRow(ell=16.0, error=1e-9, note="n", newton_steps=7))
        rep = fit_rate(rows, p=2.0, floor=1e-9)
        assert [r.used_in_fit for r in rep.rows] == [True, True, True, False]
        assert (rep.rows[-1].note, rep.rows[-1].newton_steps) == ("n", 7)
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

    @pytest.mark.parametrize("bad, message", [
        ({"p": 0.8}, "p > 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_newton": 0}, "max_newton must be at least 1"),
        # hy = 0.125: a quarter cell from the cross-section's lower edge
        ({"window": Window(-1.0, 1.0, 0.03125, 0.75)}, "one cell"),
    ], ids=["p", "tol", "max_newton", "window_within_a_cell"])
    def test_bad_input_is_refused_before_any_solve(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(**{**TestSweep.SPEC, **bad})


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

    def test_blowup_sweep_probes_a1_once(self, monkeypatch):
        # (A1) is decided analytically: the spec, both references, every
        # row and the floor ask for it, and none evaluates Psi_p (one CPU
        # keeps the floor in this process, where the probes are recorded)
        usable_cpus(monkeypatch, 1)
        probes = []
        log_psi_p = plaplab.nonlinearity.log_psi_p

        def counting(*args, **kwargs):
            probes.append(args)
            return log_psi_p(*args, **kwargs)

        monkeypatch.setattr(plaplab.nonlinearity, "log_psi_p", counting)
        spec = SweepSpec(nl=POWER23, p=2.0, cross=(-2.0, 2.0),
                         regime=BlowupData((10.0, 100.0)), ells=(2.0, 4.0),
                         window=Window(-1.0, 1.0, -1.0, 1.0), ny=9)
        rows, _, _ = sweep_ell(spec)
        assert len(rows) == 2
        assert probes == []

    def test_blowup_errors_decrease(self):
        spec = SweepSpec(nl=POWER23, p=2.0, cross=(-2.0, 2.0),
                         regime=BlowupData((10.0, 100.0, 1000.0)),
                         ells=(2.0, 4.0, 8.0),
                         window=Window(-1.0, 1.0, -1.0, 1.0), ny=17)
        rows, floor, extras = sweep_ell(spec)
        errors = [r.error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert set(extras.cylinder) == {2.0, 4.0, 8.0}
        for blow in extras.cylinder.values():
            assert blow.monotone_margin >= -2e-11

    def test_numerical_failure_is_recorded(self, monkeypatch):
        def fail(spec, ell, ny=None, *, reference):
            raise NonConvergenceError("stub failure")

        monkeypatch.setattr(asymptotics, "measure_row", fail)
        rows, floor, _ = sweep_ell(SweepSpec(**self.SPEC))
        assert all(r.note == "solve failed: stub failure"
                   and r.newton_steps is None for r in rows)
        assert np.isnan(floor)

    def test_reference_solved_once_per_transverse_grid(self, monkeypatch):
        solved = []
        original = asymptotics._reference_profile

        def counting(spec, ny):
            solved.append(ny)
            return original(spec, ny)

        monkeypatch.setattr(asymptotics, "_reference_profile", counting)
        rows, floor, _ = sweep_ell(SweepSpec(**self.SPEC))
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
        # a ValueError too: SweepSpec has refused bad input, so one raised
        # inside a row is not recorded as that row's failure
        for error in (TypeError, ValueError):
            def broken(spec, ell, ny=None, *, reference):
                raise error("stub bug")

            monkeypatch.setattr(asymptotics, "measure_row", broken)
            with pytest.raises(error, match="stub bug"):
                sweep_ell(SweepSpec(**self.SPEC))

    REGIMES = pytest.mark.parametrize(
        "regime", [FiniteData(1.0), BlowupData((10.0, 100.0))],
        ids=["finite", "blowup"])

    @REGIMES
    def test_every_solve_starts_from_its_references_first_level(
            self, monkeypatch, regime):
        # the rows' reference is every level of the profile; the floor's,
        # the last level alone, solved as one M level from that level.
        # Each starts from that level's distance-to-boundary profile: the
        # level itself on the end columns, the profile in the middle
        # One CPU keeps the blow-up floor in this process, where the
        # wrappers record it; a forked floor runs the same code (see
        # TestFloorOverlap).
        usable_cpus(monkeypatch, 1)
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
                levels = out[1].m_values if isinstance(out, tuple) else ()
                starts.append((grid, initial, first, levels))
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
        assert [(g.ell, g.ny) for g, _, _, _ in starts] == \
            [(2.0, 9), (4.0, 9), (4.0, 17)]
        blowup = isinstance(regime, BlowupData)
        for grid, initial, first, levels in starts:
            is_floor = grid.ny == 17
            profiles = references[grid.ny][0]
            start = profiles[-1] if is_floor else profiles[0]
            level = regime.m_list[-1 if is_floor else 0] if blowup \
                else regime.g
            assert (start.values[0], start.values[-1]) == (level, level)
            assert np.array_equal(initial,
                                  distance_profile_start(start, grid).values)
            rows = initial.reshape(grid.ny, grid.nx)
            assert np.all(rows[:, [0, -1]] == level)
            assert np.array_equal(rows[:, grid.nx // 2], start.values)
            assert len(first.stages) == 1
            if blowup:
                assert levels == ((level,) if is_floor else regime.m_list)

    @REGIMES
    def test_row_agrees_with_a_cold_solve(self, regime):
        # the minimizer is unique: the start changes the path, not the end;
        # p = 1.5, since at p = 2 eps only adds a constant to the energy
        spec = SweepSpec(**{**self.SPEC, "nl": POWER23, "regime": regime,
                            "p": 1.5})
        _, _, results, _ = asymptotics.measure_row(
            spec, 4.0, reference=asymptotics._reference_profile(spec, 9)[0])
        warm = results[-1].solution
        cfg = spec.cfg
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
        assert set(extras.cylinder) == {2.0, 4.0}
        for ell, blow in extras.cylinder.items():
            grid = build_grid(ell, spec.cross, spec.nx_for(ell), spec.ny)
            _, cold = solve_blowup(grid, POWER23, spec.cfg,
                                   spec.regime.m_list)
            assert blow.level_newton_steps[0] < cold.level_newton_steps[0]


class TestFloor:
    """The floor's one-level solve at the last M against the full ladder."""

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.5, 3.0), ny=st.sampled_from([9, 17]),
           ell=st.sampled_from([2.0, 4.0]),
           nl=st.one_of(
               st.builds(Nonlinearity.power, st.floats(0.5, 4.0),
                         st.floats(2.0, 5.0)),
               st.builds(Nonlinearity.exp_minus_one, st.floats(0.5, 2.0))))
    def test_one_level_solve_matches_the_ladders_last_level(self, p, ny,
                                                           ell, nl):
        # the minimizer at the last M is unique: starting there from the
        # reference's distance-to-boundary profile changes the path, not
        # the end.  Both solves stop at tol, so they agree to 2 tol; over
        # 400 uniform draws the worst gap was 4.3e-12, at f = 3.86 s^2.08,
        # p = 2.87, ny = 17, ell = 4 (values near M = 1e3)
        assume(plaplab.nonlinearity.check_a1(nl, p))
        spec = SweepSpec(nl=nl, p=p, cross=(-2.0, 2.0),
                         regime=BlowupData((10.0, 100.0, 1000.0)),
                         ells=(ell,), window=Window(-1.0, 1.0, -1.0, 1.0),
                         ny=ny)
        measure_row = asymptotics.measure_row
        reference = asymptotics._reference_profile(spec, ny)[0]
        _, _, ladder, _ = measure_row(spec, ell, ny, reference=reference)
        floor_results = []

        def recording(*args, **kwargs):
            out = measure_row(*args, **kwargs)
            floor_results.extend(out[2])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asymptotics, "measure_row", recording)
            _, _, record = asymptotics._measure_floor(spec, ny)
        [one] = floor_results
        assert len(one.stages) == 1
        u = one.solution
        free = u.grid.interior_mask()
        extended = embed_cross_section(reference[-1], u.grid).values
        assert record == {
            "ny": ny, "m": 1000.0, "newton_steps": one.newton_steps,
            "backtracks": one.backtracks,
            "below_reference": float(np.max(extended[free]
                                            - u.values[free])),
            "slack": comparison_slack(spec.tol, u.values)}
        assert np.max(np.abs(one.solution.values
                             - ladder[-1].solution.values)) <= 2.0 * spec.tol

    @pytest.mark.parametrize("m", [1e5, 1e7])
    def test_roundoff_gap_passes_the_comparison_check(self, m):
        # at these levels the floor's solution lies 6.4e-10 (44 ulp of M)
        # and 2.9e-9 (1.6 ulp) below its extended reference, from roundoff
        # alone: beyond 2 tol = 2e-11, within the comparison slack
        spec = SweepSpec(nl=Nonlinearity.power(0.543086, 2.2783), p=2.643,
                         cross=(0.0, 2.0),
                         regime=BlowupData((m / 100, m / 10, m)),
                         ells=(1.0, 2.0, 4.0, 8.0),
                         window=Window(-0.5, 0.5, 0.5, 1.5), ny=17)
        rows, floor, extras = sweep_ell(spec)
        assert math.isfinite(floor)
        assert not any("floor re-solve" in r.note for r in rows)
        record = extras.floor_solve
        assert 2.0 * spec.tol < record["below_reference"] <= record["slack"]
        assert record["slack"] == comparison_slack(spec.tol, [m])

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(1.5, 4.0), c=st.floats(0.1, 10.0),
           k=st.floats(0.05, 3.0), log_m=st.floats(3.0, 8.0),
           ny=st.sampled_from([5, 9]), ell=st.sampled_from([2.0, 4.0]))
    @example(p=3.5, c=6.5, k=0.6, log_m=8.0, ny=5, ell=4.0)  # 8.4e-9 below
    def test_every_solved_floor_passes_the_comparison_check(self, p, c, k,
                                                           log_m, ny, ell):
        # f = c s^q with q = p - 1 + k, which satisfies (A1), from M = 1e3
        # to 1e8; on these small grids about one floor in ten lies more
        # than 2 tol below its extended reference.  A floor beyond its
        # slack raises NonConvergenceError
        m = 10.0 ** log_m
        spec = SweepSpec(nl=Nonlinearity.power(c, p - 1.0 + k), p=p,
                         cross=(0.0, 2.0),
                         regime=BlowupData((m / 100, m / 10, m)),
                         ells=(ell,), window=Window(-0.5, 0.5, 0.5, 1.5),
                         ny=ny)
        _, _, record = asymptotics._measure_floor(spec, 2 * ny - 1)
        assert record["below_reference"] <= record["slack"]


class TestFloorOverlap:
    """The floor forked beside the rows against the floor run after them:
    the same outcome on every path, and no child left behind."""

    SPEC = dict(TestSweep.SPEC, nl=POWER23, regime=BlowupData((10.0, 100.0)))

    def sweep(self, monkeypatch, cpus, **change):
        usable_cpus(monkeypatch, cpus)
        spec = SweepSpec(**{**self.SPEC, **change})
        assert asymptotics._floor_overlaps(spec) is (
            cpus > 1 and isinstance(spec.regime, BlowupData))
        try:
            return sweep_ell(spec)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("levels", [(10.0, 100.0), (100.0,)],
                             ids=["two_levels", "one_level"])
    def test_floor_equals_the_inline_floor_bit_for_bit(self, monkeypatch,
                                                       levels):
        regime = BlowupData(levels)
        forked = self.sweep(monkeypatch, 2, regime=regime)
        inline = self.sweep(monkeypatch, 1, regime=regime)
        assert forked[0] == inline[0]
        assert forked[1] == inline[1] and np.isfinite(forked[1])
        solves = [out[2].floor_solve for out in (forked, inline)]
        assert [s.pop("overlapped") for s in solves] == [True, False]
        assert solves[0] == solves[1] == {
            "ny": 17, "m": 100.0, "newton_steps": solves[0]["newton_steps"],
            "backtracks": solves[0]["backtracks"],
            "below_reference": solves[0]["below_reference"],
            "slack": comparison_slack(1e-11, [100.0])}

    def test_finite_data_floor_stays_inline(self, monkeypatch):
        rows, floor, extras = self.sweep(monkeypatch, 2,
                                         regime=FiniteData(1.0))
        assert np.isfinite(floor)
        assert extras.floor_solve["overlapped"] is False

    def test_failed_fork_runs_the_floor_inline(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("stub: no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        rows, floor, extras = self.sweep(monkeypatch, 2)
        inline = self.sweep(monkeypatch, 1)
        assert (rows, floor) == inline[:2] and np.isfinite(floor)
        assert extras.floor_solve["overlapped"] is False

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_numerical_floor_failure_is_noted_on_the_last_row(
            self, monkeypatch, cpus):
        def fail(spec, ny):
            raise NonConvergenceError("stub floor failure")

        monkeypatch.setattr(asymptotics, "_measure_floor", fail)
        rows, floor, extras = self.sweep(monkeypatch, cpus)
        assert rows[-1].note == "floor re-solve at ny=17 failed: stub " \
            "floor failure"
        assert np.isfinite(rows[-1].error) and rows[-1].newton_steps > 0
        assert np.isnan(floor) and extras.floor_solve is None

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_floor_programming_error_propagates(self, monkeypatch, cpus):
        def broken(spec, ny):
            raise TypeError("stub floor bug")

        monkeypatch.setattr(asymptotics, "_measure_floor", broken)
        with pytest.raises(TypeError) as info:
            self.sweep(monkeypatch, cpus)
        assert str(info.value) == "stub floor bug"
        # a forked floor's exception carries the child's stack as a note
        notes = getattr(info.value, "__notes__", [])
        assert len(notes) == (cpus > 1)
        assert all("in broken" in note for note in notes)

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_row_programming_error_propagates(self, monkeypatch, cpus):
        # the floor's own measure_row runs: a forked child is still
        # solving when the first row raises, and is killed
        measure_row = asymptotics.measure_row

        def broken(spec, ell, ny=None, *, reference):
            if ny is None:
                raise TypeError("stub row bug")
            return measure_row(spec, ell, ny, reference=reference)

        monkeypatch.setattr(asymptotics, "measure_row", broken)
        with pytest.raises(TypeError, match="^stub row bug$"):
            self.sweep(monkeypatch, cpus)

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_floor_is_unused_when_the_last_row_fails(self, monkeypatch,
                                                     cpus):
        # run after the rows, the floor is never started; forked, its
        # outcome (here a bug) is discarded
        measure_row = asymptotics.measure_row

        def last_fails(spec, ell, ny=None, *, reference):
            if ell == spec.ells[-1]:
                raise NonConvergenceError("stub row failure")
            return measure_row(spec, ell, ny, reference=reference)

        def broken(spec, ny):
            raise TypeError("stub floor bug")

        monkeypatch.setattr(asymptotics, "measure_row", last_fails)
        monkeypatch.setattr(asymptotics, "_measure_floor", broken)
        rows, floor, extras = self.sweep(monkeypatch, cpus)
        assert rows[-1].note == "solve failed: stub row failure"
        assert np.isfinite(rows[0].error)
        assert np.isnan(floor) and extras.floor_solve is None

    def test_child_without_a_result_raises_runtime_error(self, monkeypatch):
        def vanish(spec, ny):
            os._exit(3)  # runs in the child only

        monkeypatch.setattr(asymptotics, "_measure_floor", vanish)
        with pytest.raises(RuntimeError, match="exit code 3"):
            self.sweep(monkeypatch, 2)


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
        bound = barrier_bound(res, 0.8)
        for cx in (-1.0, 0.0, 1.0):
            rep = verify_barrier(res, (cx, 0.0), 0.8, bound)
            assert rep.passed, str(rep)

    def test_barrier_reuses_a_given_profile(self, blowup_pair, monkeypatch):
        # the bound of one profile serves every ball of its radius: the
        # check solves no profile of its own, and judges by the bound alone
        res = blowup_pair[4.0]
        bound = barrier_bound(res, 0.8)
        monkeypatch.setattr(plaplab.ode1d, "solve_large_1d", None)
        for center in ((-1.0, 0.0), (1.0, 0.0)):
            rep = verify_barrier(res, center, 0.8, bound)
            assert rep.passed and rep.details["bound"] == bound
            u_max = rep.details["u_max"]
            assert not verify_barrier(res, center, 0.8, 0.5 * u_max).passed

    def test_barrier_trivial_for_zero_data(self):
        g = build_grid(2.0, (-1.0, 1.0), 33, 17)
        res = solve_dirichlet(g, POWER23, SolverConfig(p=2.0), 0.0)
        assert np.max(np.abs(res.solution.values)) <= 1e-12
        rep = verify_barrier(res, (0.0, 0.0), 0.8, barrier_bound(res, 0.8))
        assert rep.passed

    def test_barrier_bound_grows_on_smaller_balls(self):
        # smaller domains carry larger blow-up profiles
        R = 0.8
        big = solve_large_1d(POWER23, 2.0, R).value_at(R / 2.0)
        small = solve_large_1d(POWER23, 2.0, R / 2.0).value_at(R / 4.0)
        assert big <= small

    def test_barrier_rejects_escaping_ball(self, blowup_pair):
        with pytest.raises(ValueError, match="not contained"):
            verify_barrier(blowup_pair[2.0], (0.0, 0.0), 1.5, 1.0)

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
