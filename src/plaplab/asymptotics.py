"""Cylinder-length sweeps, convergence-rate fits and structural checks.

For a fixed cross-section and a growing half-length ell, the solution of
the cylinder problem converges on any fixed interior window to the
(constantly extended) cross-sectional solution, with the windowed error

    e(ell) = || grad(u_ell - u_inf) ||_{L^p(window)}

bounded by C / ell^(1/p).  The sweep measures e(ell) against the discrete
cross-sectional reference computed on the same transverse grid (matched
discretization and, in the blow-up regime, matched truncation level M),
so that e(ell) reflects domain growth rather than resolution change.  The
fitted log-log slope is accepted when it is at most -1/p + 0.1: the bound
is one-sided, so faster empirical decay (exponential, in the benchmark
regimes) passes.

The discretization floor, the largest ell re-solved at doubled
resolution, does not depend on the rows.  For blow-up data, where a
second CPU and ``os.fork`` exist, it runs in a forked child beside them;
its outcome is the one the serial order gives.

The structural checks render the comparison principle, the interior
barrier bound u <= phi(R/2) on balls, monotonicity of blow-up solutions
in ell, and the interior gradient estimate with explicit cutoff constants
as paired-solve assertions: the gradient estimate with a 5 percent
discretization slack, the others, like the floor's check, with
:func:`plaplab.minimize.comparison_slack`.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .grid import (Window, build_grid, cutoff_function,
                   distance_profile_start, embed_cross_section,
                   lp_norm_gradient, require_window_inside, tied_nx,
                   window_node_mask)
from .minimize import (BlowupReport, NonConvergenceError, comparison_slack,
                       increasing_levels)
from .nonlinearity import Nonlinearity, require_a1
from .ode1d import (LargeSolution1D, solve_cross_finite, solve_cross_large,
                    solve_large_1d)
from .solver import SolveResult, SolverConfig, solve_blowup, solve_dirichlet

__all__ = [
    "FiniteData",
    "BlowupData",
    "SweepSpec",
    "SweepReports",
    "RateRow",
    "RateReport",
    "RateUnresolvableError",
    "CheckReport",
    "sweep_ell",
    "fit_rate",
    "verify_comparison",
    "verify_monotone_in_ell",
    "verify_barrier",
    "verify_caccioppoli",
]

RATE_SLOPE_SLACK = 0.1
FLOOR_EXCLUSION_FACTOR = 3.0


class RateUnresolvableError(RuntimeError):
    """Too few sweep rows rise above the discretization floor to fit, or
    the floor itself is missing."""


@dataclass(frozen=True)
class FiniteData:
    """Finite Dirichlet data: the constant level ``g`` on the whole
    boundary, the cross-section's ends included."""
    g: float


@dataclass(frozen=True)
class BlowupData:
    """Boundary blow-up approximated by an increasing sweep of levels."""
    m_list: tuple

    def __post_init__(self):
        object.__setattr__(self, "m_list", increasing_levels(self.m_list))


@dataclass(frozen=True)
class SweepSpec:
    """One rate experiment: problem data, ell ladder, window, mesh policy.

    The transverse spacing hy is fixed by ``ny`` and the x spacing is tied
    to it (hx = hy), so every ell row sees the same resolution density and
    the discrete cross-sectional reference is matched exactly.  Every
    input is checked before the first solve: ``cfg``, the one
    :class:`SolverConfig` of its solves, checks p, ``tol`` and
    ``max_newton``; the window must lie one cell inside the smallest
    row's grid; and blow-up data must satisfy (A1).
    """

    nl: Nonlinearity
    p: float
    cross: tuple
    regime: Union[FiniteData, BlowupData]
    ells: tuple
    window: Window
    ny: int
    tol: float = 1e-11
    max_newton: int = 200
    cfg: SolverConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cfg", SolverConfig(
            p=self.p, tol=self.tol, max_newton=self.max_newton))
        ells = tuple(float(e) for e in self.ells)
        if any(b <= a for a, b in zip(ells, ells[1:])) or not ells:
            raise ValueError(f"ell list must be strictly increasing: {ells}")
        object.__setattr__(self, "ells", ells)
        object.__setattr__(self, "cross",
                           (float(self.cross[0]), float(self.cross[1])))
        if self.ny < 3:
            raise ValueError(f"need ny >= 3, got {self.ny}")
        half = ells[0] / 2.0
        tiny = 1e-12 * (1.0 + half)
        if self.window.x_lo < -half - tiny or self.window.x_hi > half + tiny:
            raise ValueError(
                f"window {self.window} must lie inside the half-length "
                f"{half} cylinder (smallest ell / 2)")
        for ell in ells:
            if abs(2.0 * ell / self.hy - round(2.0 * ell / self.hy)) > 1e-9:
                raise ValueError(
                    f"ell={ell} is not resolvable with hx tied to "
                    f"hy={self.hy}; choose ny so that 2*ell/hy is integral")
        require_window_inside(build_grid(ells[0], self.cross,
                                         self.nx_for(ells[0]), self.ny),
                              self.window)
        if isinstance(self.regime, BlowupData):
            require_a1(self.nl, self.p)

    @property
    def hy(self) -> float:
        return (self.cross[1] - self.cross[0]) / (self.ny - 1)

    def nx_for(self, ell: float, ny: Optional[int] = None) -> int:
        return tied_nx(ell, self.cross, ny or self.ny)


@dataclass(frozen=True)
class RateRow:
    ell: float
    error: float
    used_in_fit: Optional[bool] = None
    note: str = ""
    newton_steps: Optional[int] = None  # over the row's solves; None: failed


@dataclass(frozen=True)
class RateReport:
    """Windowed-error table with fitted log-log decay."""

    rows: tuple
    slope: float
    intercept: float
    target_slope: float
    passed: bool
    floor: float

    @property
    def constant_estimate(self) -> float:
        return math.exp(self.intercept)


@dataclass(frozen=True)
class SweepReports:
    """The blow-up sweep reports of a :func:`sweep_ell`: each row's, keyed
    by ell, and that of the cross-sectional reference on the sweep's
    transverse grid (None for finite data or when it failed); and
    ``floor_solve``, the record ``{"ny", "m", "newton_steps",
    "backtracks", "below_reference", "slack", "overlapped"}`` of the
    floor's solve (``m`` its blow-up level, ``below_reference`` and
    ``slack`` its comparison check, all three None for finite data;
    ``backtracks`` its rejected line-search trials; ``overlapped`` whether
    it ran in a forked child beside the rows), None when there is no
    floor."""

    cylinder: dict = field(default_factory=dict)
    cross_section: Optional[BlowupReport] = None
    floor_solve: Optional[dict] = None


def _reference_profile(spec: SweepSpec, ny: int) -> tuple:
    """The cross-sectional reference on ``ny`` transverse nodes: one
    profile per boundary level (a single one for finite data), and the
    sweep's :class:`BlowupReport` (None for finite data)."""
    if isinstance(spec.regime, FiniteData):
        g = spec.regime.g
        return [solve_cross_finite(spec.nl, spec.cfg, spec.cross, g, g,
                                   ny)], None
    return solve_cross_large(spec.nl, spec.cfg, spec.cross,
                             spec.regime.m_list, ny)


def _gradient_noise_floor(u, ref, p, w):
    """Roundoff level of the measured gradient-difference norm.

    Nodal values carry relative rounding of order machine epsilon, which
    the per-cell difference quotients amplify by 1/h; anything below this
    scale is numerical noise, not signal.
    """
    grid = u.grid
    mask = window_node_mask(grid, w)
    vmax = float(np.max(np.abs(u.values[mask]))
                 + np.max(np.abs(ref.values[mask])))
    h = min(grid.hx, grid.hy)
    return 8.0 * np.finfo(float).eps * vmax / h * w.area ** (1.0 / p)


def measure_row(spec: SweepSpec, ell: float, ny: Optional[int] = None, *,
                reference):
    """Solve one ell against the cross-sectional ``reference`` profiles
    solved on the same ``ny`` transverse nodes; returns (error,
    noise_floor, results, blowup_report), ``results`` holding one solve
    per boundary level (a single one for finite data, whose report is
    None).  The first solve starts from the reference's first level as a
    profile of the distance to the boundary
    (:func:`plaplab.grid.distance_profile_start`): the cross-section the
    cylinder converges to away from its ends, with the end layers the
    same profile gives near them; the error is measured against the
    reference's last level, extended constantly."""
    grid = build_grid(ell, spec.cross, spec.nx_for(ell, ny), ny or spec.ny)
    initial = distance_profile_start(reference[0], grid).values
    if isinstance(spec.regime, FiniteData):
        results = [solve_dirichlet(grid, spec.nl, spec.cfg, spec.regime.g,
                                   initial=initial)]
        blow = None
    else:
        results, blow = solve_blowup(grid, spec.nl, spec.cfg,
                                     spec.regime.m_list, window=spec.window,
                                     initial=initial)
    res = results[-1]
    ref = embed_cross_section(reference[-1], grid)
    err = lp_norm_gradient(res.solution - ref, spec.p, spec.window)
    noise = _gradient_noise_floor(res.solution, ref, spec.p, spec.window)
    return err, noise, results, blow


def _measure_floor(spec: SweepSpec, ny: int) -> tuple:
    """The largest ell measured again on ``ny`` transverse nodes against
    the reference on that grid; returns (error, noise_floor, record), the
    record ``{"ny", "m", "newton_steps", "backtracks", "below_reference",
    "slack"}`` of its solve (``m`` the blow-up level and the last two its
    comparison check, None for finite data).

    Only the solution at the last boundary level counts, and the
    minimizer there is unique, so blow-up data are solved at their last
    level alone, started by :func:`measure_row` from the distance profile
    of the reference's last level, rather than up the whole M sweep: one
    Newton stage instead of one per level.
    :func:`solve_blowup` still checks (A1).  In place of the sweep's
    M-monotonicity check, the comparison principle the solve must keep
    is checked: the extended reference solves the equations at the free
    nodes and stays below M at the cylinder's ends, so the solution must
    not lie below it at a free node by more than the
    :func:`plaplab.minimize.comparison_slack` of ``tol`` and the
    solution; a violation raises :class:`NonConvergenceError`.
    """
    reference = _reference_profile(spec, ny)[0][-1:]
    m = spec.regime.m_list[-1] if isinstance(spec.regime, BlowupData) \
        else None
    level_spec = spec if m is None else replace(spec,
                                                regime=BlowupData((m,)))
    err, noise, results, _ = measure_row(level_spec, spec.ells[-1], ny,
                                         reference=reference)
    u = results[-1].solution
    below = slack = None
    if m is not None:
        free = u.grid.interior_mask()
        below = float(np.max(
            embed_cross_section(reference[0], u.grid).values[free]
            - u.values[free]))
        slack = comparison_slack(spec.tol, u.values)
        if below > slack:
            raise NonConvergenceError(
                f"solution at M={m:g} lies {below:.3e} below its extended "
                f"reference, beyond the slack {slack:.3e}")
    return err, noise, {"ny": ny, "m": m,
                        "newton_steps": results[-1].newton_steps,
                        "backtracks": results[-1].backtracks,
                        "below_reference": below, "slack": slack}


def _floor_overlaps(spec: SweepSpec) -> bool:
    """Whether :func:`sweep_ell` runs the floor in a forked child beside
    the rows: for blow-up data, where a second CPU and ``os.fork`` exist.
    Finite-data rows are too short to pay for the fork."""
    if not (isinstance(spec.regime, BlowupData) and hasattr(os, "fork")):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


class _ForkedFloor:
    """:func:`_measure_floor` in a forked child.

    The child pickles its outcome, the result or the exception it raised,
    into a pipe and leaves by ``os._exit``: it never returns into the
    caller's stack, and never flushes the stdio buffers it inherited.
    The parent takes the outcome with :meth:`outcome`; :meth:`close` kills
    and reaps a child that :meth:`outcome` has not reaped.
    """

    def __init__(self, spec: SweepSpec, ny: int):
        read, write = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self._pid == 0:
            status = 1
            try:
                os.close(read)
                try:
                    outcome = (True, _measure_floor(spec, ny))
                except BaseException as exc:  # sent to the parent
                    # pickling drops the traceback: keep the child's stack
                    exc.add_note(traceback.format_exc())
                    outcome = (False, exc)
                payload = pickle.dumps(outcome)
                with os.fdopen(write, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self._pipe = os.fdopen(read, "rb")

    def outcome(self) -> tuple:
        """Wait for the child; return its result, or raise its exception
        (same type and message, the child's traceback as a note).  A
        child that ends without sending one raises
        :class:`RuntimeError`."""
        with self._pipe:
            payload = self._pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if not payload:
            raise RuntimeError(
                "the floor re-solve's process ended without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    def close(self):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        self._pipe.close()


def sweep_ell(spec: SweepSpec):
    """Measure e(ell) over the ladder, one row after another; returns
    (rows, floor, extras).

    A row whose solve fails numerically is recorded with the failure
    reason instead of aborting the whole sweep; any other exception
    propagates, since ``spec`` has checked the input.  Each row records
    the Newton steps of its solves.  The reference is solved once per
    transverse grid, and every row starts from the distance profile of
    its first level (:func:`measure_row`); when it fails, every row
    records that failure.  The discretization floor is estimated by
    re-solving the largest ell at doubled resolution
    (:func:`_measure_floor`: blow-up data at their last level only,
    started from the distance profile of that level of the reference on
    the finer grid) and comparing the two measurements (NaN when either
    fails; the re-solve's failure is noted on the largest-ell row).
    Extras, the :class:`SweepReports`, carries the blow-up stabilization
    reports of the rows and of the cross-sectional reference, and the
    record of the floor's solve.

    The floor does not depend on the rows, so once the reference is
    solved it runs in a forked child while the rows run here, when three
    conditions hold: the data are blow-up data, the process may use more
    than one CPU, and ``os.fork`` exists.  Elsewhere, or when the fork
    fails, it runs after the rows.  Either way its outcome is used as the
    serial order would use it: only when the largest-ell row is finite,
    its numerical failure noted on that row and any other exception
    raised here; and no child outlives the call.
    """

    def failed(ell, exc):
        return RateRow(ell=ell, error=float("nan"),
                       note=f"solve failed: {exc}")

    try:
        reference, cross_report = _reference_profile(spec, spec.ny)
    except ArithmeticError as exc:  # recorded, not raised
        return [failed(ell, exc) for ell in spec.ells], float("nan"), \
            SweepReports()

    ny_fine = 2 * spec.ny - 1
    forked = None
    if _floor_overlaps(spec):
        try:
            forked = _ForkedFloor(spec, ny_fine)
        except OSError:  # no process to spare: the floor runs after the rows
            pass
    try:
        rows, cylinder = [], {}
        noise_max = 0.0
        for ell in spec.ells:
            try:
                err, noise, results, blow = measure_row(spec, ell,
                                                        reference=reference)
            except ArithmeticError as exc:  # recorded, not raised
                rows.append(failed(ell, exc))
                continue
            rows.append(RateRow(ell=ell, error=err, newton_steps=sum(
                r.newton_steps for r in results)))
            noise_max = max(noise_max, noise)
            if blow is not None:
                cylinder[ell] = blow
        coarse = rows[-1].error  # the largest ell
        floor, floor_solve = float("nan"), None
        if math.isfinite(coarse):
            try:
                fine, noise_fine, record = forked.outcome() \
                    if forked is not None else _measure_floor(spec, ny_fine)
                floor_solve = {**record, "overlapped": forked is not None}
                # resolution sensitivity of the closest-to-floor row,
                # bounded below by the rounding level of the norm
                # measurement itself
                floor = max(abs(coarse - fine), noise_max, noise_fine)
            except ArithmeticError as exc:  # recorded on its row, not raised
                rows[-1] = replace(rows[-1], note=f"floor re-solve at "
                                   f"ny={ny_fine} failed: {exc}")
    finally:
        if forked is not None:
            forked.close()
    return rows, floor, SweepReports(cylinder, cross_report, floor_solve)


def fit_rate(rows, p: float, floor: float = 0.0) -> RateReport:
    """Least-squares line on (log ell, log e); one-sided pass criterion.

    Rows at or below ``FLOOR_EXCLUSION_FACTOR`` times the floor (or with
    zero/failed errors) are excluded; fewer than three usable rows raise
    :class:`RateUnresolvableError`, and so does a missing (non-finite)
    floor, with the reason the largest-ell row records: its own failure,
    or that of the floor re-solve.
    """
    if not math.isfinite(floor):
        last = max(rows, key=lambda r: r.ell)
        failed = "" if math.isfinite(last.error) else \
            f"the largest-ell row (ell={last.ell:g}) has no error: "
        raise RateUnresolvableError(
            f"no discretization floor: {failed}{last.note}")
    flagged = []
    for r in rows:
        usable = math.isfinite(r.error) and r.error > 0.0 \
            and r.error > FLOOR_EXCLUSION_FACTOR * floor
        flagged.append(replace(r, used_in_fit=usable))
    used = [r for r in flagged if r.used_in_fit]
    if len(used) < 3:
        raise RateUnresolvableError(
            f"rate unresolvable at this resolution: only {len(used)} rows "
            f"above the discretization floor {floor:.3e}")
    log_l = np.log([r.ell for r in used])
    log_e = np.log([r.error for r in used])
    slope, intercept = np.polyfit(log_l, log_e, 1)
    target = -1.0 / p
    return RateReport(rows=tuple(flagged), slope=float(slope),
                      intercept=float(intercept), target_slope=target,
                      passed=bool(slope <= target + RATE_SLOPE_SLACK),
                      floor=float(floor))


# -- structural checks ------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one structural assertion."""

    name: str
    passed: bool
    worst: float
    details: dict = field(default_factory=dict)

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"[{state}] {self.name}: worst margin {self.worst:.3e}"


def verify_comparison(u: SolveResult, v: SolveResult) -> CheckReport:
    """Ordered boundary data must give ordered solutions (u <= v up to
    :func:`plaplab.minimize.comparison_slack`)."""
    if u.solution.grid != v.solution.grid:
        raise ValueError("comparison requires solves on the same grid")
    if u.nl != v.nl or u.p != v.p:
        raise ValueError("comparison requires the same nonlinearity and p")
    bmask = u.solution.grid.boundary_mask()
    bgap = v.solution.values[bmask] - u.solution.values[bmask]
    if np.min(bgap) < -1e-14 * max(1.0, np.max(np.abs(bgap))):
        raise ValueError("boundary data of u must not exceed that of v")
    slack = comparison_slack(max(u.tol, v.tol), v.solution.values)
    gap = v.solution.values - u.solution.values
    worst = float(np.min(gap))
    idx = int(np.argmin(gap))
    return CheckReport(name="comparison", passed=bool(worst >= -slack),
                       worst=worst,
                       details={"slack": slack, "worst_node": idx})


def verify_monotone_in_ell(shorter: SolveResult, longer: SolveResult,
                           window: Window) -> CheckReport:
    """Blow-up solutions shrink as the cylinder grows (matched final M),
    up to :func:`plaplab.minimize.comparison_slack`."""
    g1, g2 = shorter.solution.grid, longer.solution.grid
    if g1.ell > g2.ell:
        raise ValueError(f"expected ell ordering, got {g1.ell} > {g2.ell}")
    if g1.cross != g2.cross or g1.ny != g2.ny:
        raise ValueError("cross-sections and transverse grids must match")
    if shorter.boundary_mode != longer.boundary_mode:
        raise ValueError(
            f"boundary regimes differ: {shorter.boundary_mode} vs "
            f"{longer.boundary_mode}")
    require_window_inside(g1, window)
    mask = window_node_mask(g1, window)
    rows1 = shorter.solution.as_rows()
    rows2 = longer.solution.as_rows()
    resampled = np.empty_like(rows1)
    for j in range(g1.ny):
        resampled[j] = np.interp(g1.x, g2.x, rows2[j])
    gap = (rows1.ravel() - resampled.ravel())[mask]
    worst = float(np.min(gap))
    slack = comparison_slack(max(shorter.tol, longer.tol),
                             shorter.solution.values)
    return CheckReport(name="monotone_in_ell", passed=bool(worst >= -slack),
                       worst=worst,
                       details={"slack": slack, "ells": (g1.ell, g2.ell)})


def verify_barrier(result: SolveResult, x0: tuple, R: float,
                   profile: Optional[LargeSolution1D] = None) -> CheckReport:
    """Interior bound u <= phi(R/2) on the half ball, phi the radial
    blow-up profile of radius R, up to
    :func:`plaplab.minimize.comparison_slack`.

    ``profile`` is that phi when the caller has solved it already (it
    depends only on the nonlinearity, p and R, not on the ball's center).
    """
    grid = result.solution.grid
    cx, cy = float(x0[0]), float(x0[1])
    y0, y1 = grid.cross
    if not (abs(cx) + R <= grid.ell and cy - R >= y0 and cy + R <= y1):
        raise ValueError(
            f"ball B_{R}(({cx}, {cy})) is not contained in the rectangle")
    phi = profile if profile is not None else \
        solve_large_1d(result.nl, result.p, R)
    bound = phi.value_at(R / 2.0)
    X, Y = grid.node_coords()
    ball = (X - cx) ** 2 + (Y - cy) ** 2 <= (R / 2.0) ** 2
    u_max = float(np.max(result.solution.values[ball]))
    slack = comparison_slack(result.tol, result.solution.values)
    return CheckReport(name="barrier", passed=bool(u_max <= bound + slack),
                       worst=bound - u_max,
                       details={"bound": bound, "u_max": u_max,
                                "slack": slack, "center": (cx, cy), "R": R})


def caccioppoli_constant(p: float) -> float:
    """Explicit cutoff constant 2^(2p) (p-1)^(p-1) / p^p of the interior
    gradient estimate."""
    return 2.0 ** (2.0 * p) * (p - 1.0) ** (p - 1.0) / p ** p


def verify_caccioppoli(result: SolveResult, inner: Window,
                       outer: Window) -> CheckReport:
    """Interior gradient estimate with explicit constants:

    int_inner |grad u|^p <= 2 f(L) L |outer|
                            + C(p) ||grad chi||^p_{L^p(outer)} L^p ,

    with L the sup of |u| over the outer window, chi the piecewise-linear
    cutoff, and 5 percent discretization slack.
    """
    grid = result.solution.grid
    if min(inner.margins_to(outer)) <= 0:
        raise ValueError("windows must be strictly nested: inner << outer")
    p = result.p
    lhs = lp_norm_gradient(result.solution, p, inner) ** p
    lam = float(np.max(np.abs(
        result.solution.values[window_node_mask(grid, outer)])))
    chi = cutoff_function(inner, outer, grid)
    grad_chi_p = lp_norm_gradient(chi, p, outer) ** p
    rhs = (2.0 * result.nl.f(lam) * lam * outer.area
           + caccioppoli_constant(p) * grad_chi_p * lam ** p)
    slack = 0.05 * rhs
    return CheckReport(name="caccioppoli", passed=bool(lhs <= rhs + slack),
                       worst=rhs - lhs,
                       details={"lhs": lhs, "rhs": rhs, "lambda": lam,
                                "grad_chi_p": grad_chi_p})
