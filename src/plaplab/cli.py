"""Config-driven command line front end.

Subcommands map one-to-one onto the computational modules:

    psi     Keller-Osserman table (r, Psi_p(r)) plus the existence and
            uniqueness verdicts for large solutions
    ode1d   blow-up profile by first-integral quadrature
    solve   one cylinder Dirichlet or blow-up-sweep solve
    sweep   windowed-error rows e(ell) over an ell ladder
    rate    sweep plus log-log slope fit against the -1/p bound
    check   structural battery (comparison, barrier, cutoff estimate,
            monotonicity in ell)

Configuration is one strict JSON file (schema_version 1; unknown keys
and values of the wrong kind are rejected on load, so a typo in p or q
cannot silently invalidate an experiment).  Exit codes: 0 success, 2
validation error, 3 numerical failure, 4 property-check failure.  Every
artifact is written to a temporary file beside it and renamed into
place, so none is ever half-written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .asymptotics import (BlowupData, FiniteData, RateUnresolvableError,
                          SweepSpec, fit_rate, sweep_ell, verify_barrier,
                          verify_caccioppoli, verify_comparison,
                          verify_monotone_in_ell)
from .grid import (Window, build_grid, replacing_file, require_window_inside,
                   tied_nx, write_grid_function)
from .nonlinearity import (Nonlinearity, check_a1, check_a2, log_psi_p,
                           require_a1)
from .ode1d import _tabulate, blowup_radius, solve_large_1d
from .solver import SolverConfig, solve_blowup, solve_dirichlet, solve_levels

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTY = 4


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


#: the value kind of a count: an integer of at least 1
_COUNT = "count"

# the configuration tree: key -> nested dict, or the leaf's value kind:
# float, int, _COUNT, str, [float] (a list of numbers) or [float, n] (of n)
_SCHEMA = {
    "schema_version": int,
    "p": float,
    "nonlinearity": {"kind": str, "c": float, "q": float, "lam": float},
    "geometry": {"ell": float, "ell_list": [float], "cross": [float, 2],
                 "nx": int, "ny": int},
    "boundary": {"dirichlet": float, "blowup": [float]},
    "solver": {"tol": float, "max_newton": int},
    "window": [float, 4],
    "psi": {"r_min": float, "r_max": float, "points": int},
    "a2": {"betas": [float], "t_max": float},
    "ode1d": {"r": float, "a": float},
    "check": {"pairs": _COUNT, "balls": _COUNT, "window_pairs": _COUNT},
    "out": str,
}


def _typed(value, kind, key=""):
    """``value`` checked against ``kind``, a node of :data:`_SCHEMA`, and
    converted to it; ``key`` is its path, which a :class:`ConfigError`
    names.  An object's keys must be known.  A number must be finite:
    null, booleans, strings, numbers beyond the float range (NaN
    included) and, for an int or a count, fractional numbers are
    rejected; a list of numbers becomes a tuple of floats."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"'{key}' must be an object")
        typed = {}
        for name, item in value.items():
            where = f"{key}.{name}" if key else name
            if name not in kind:
                raise ConfigError(f"unknown configuration key '{where}'")
            typed[name] = _typed(item, kind[name], where)
        return typed
    if isinstance(kind, list):
        length = kind[1] if len(kind) == 2 else None
        if not isinstance(value, list) or \
                len(value) != (length or len(value)):
            raise ConfigError(f"'{key}' must be a list of {length or 'any'} "
                              f"numbers, got {value!r}")
        return tuple(_typed(v, float, f"{key}[{i}]")
                     for i, v in enumerate(value))
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"'{key}' must be a string, got {value!r}")
        return value
    number = float if kind is float else int
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max or number(value) != value:
        what = "an integer" if number is int else "a finite number"
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    if kind is _COUNT and value < 1:
        raise ConfigError(f"'{key}' must be at least 1, got {number(value)}")
    return number(value)


def load_config(path) -> dict:
    """The configuration in the JSON file ``path``, every key checked and
    converted by one walk over :data:`_SCHEMA`, whether or not the
    command reads it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _typed(cfg, _SCHEMA)
    if cfg.get("schema_version") != 1:
        raise ConfigError(
            f"schema_version must be 1, got {cfg.get('schema_version')!r}")
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing required configuration key '{key}'")
    return cfg[key]


def build_nonlinearity(spec) -> Nonlinearity:
    kind = spec.get("kind")
    if kind == "power":
        return Nonlinearity.power(spec.get("c", 1.0), spec.get("q", 1.0))
    if kind == "exp_minus_one":
        return Nonlinearity.exp_minus_one(spec.get("lam", 1.0))
    if kind == "zero":
        return Nonlinearity.zero()
    raise ConfigError(
        f"nonlinearity.kind must be 'power', 'exp_minus_one' or 'zero', "
        f"got {kind!r}")


def _get_p(cfg) -> float:
    p = _require(cfg, "p")
    if p <= 1.0:
        raise ConfigError(f"p must exceed 1, got {p}")
    return p


def _boundary_regime(cfg):
    b = _require(cfg, "boundary")
    if "dirichlet" in b and "blowup" in b:
        raise ConfigError("boundary must set either 'dirichlet' or 'blowup'")
    if "dirichlet" in b:
        return FiniteData(b["dirichlet"])
    if "blowup" in b:
        return BlowupData(b["blowup"])
    raise ConfigError("boundary must set 'dirichlet' or 'blowup'")


def _write_json(data, path):
    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"cannot serialize {type(obj)}")

    with replacing_file(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _write_csv(path, header, rows):
    with replacing_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float)
                             else v for v in row])


# -- subcommands ------------------------------------------------------------

def cmd_psi(cfg, out: Path) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    psi_cfg = cfg.get("psi", {})
    r_min = psi_cfg.get("r_min", 1e-2)
    r_max = psi_cfg.get("r_max", 1e2)
    points = psi_cfg.get("points", 25)
    if not (0 < r_min < r_max) or points < 2:
        raise ConfigError("psi table needs 0 < r_min < r_max and points >= 2")
    radii = np.geomspace(r_min, r_max, points)
    a1 = check_a1(nl, p)
    verdict = {"p": p, "nonlinearity": nl.describe(), "a1": a1, "a2": None}
    if a1:
        a2_cfg = cfg.get("a2", {})
        # the table radii ride along in the probe's sweep: one shared tail
        rep = check_a2(nl, p, beta_grid=a2_cfg.get("betas", (0.25, 0.5, 0.75)),
                       t_max=a2_cfg.get("t_max", 1e4), radii=radii)
        log_values = rep.log_psi_at_radii
        verdict["a2"] = {
            "passes": rep.passes,
            "beta_values": list(rep.beta_values),
            "log_liminf_per_beta": list(rep.log_liminf_per_beta),
            "margin": rep.margin,
        }
    else:
        log_values = log_psi_p(nl, p, radii)
    # both artifacts only once the verdict stands
    _write_csv(out / "psi.csv", ["r", "psi_p"],
               [(float(r), math.exp(v)) for r, v in zip(radii, log_values)])
    _write_json(verdict, out / "verdict.json")
    print(f"psi table written; (A1) {'holds' if a1 else 'fails'}"
          + ("" if verdict["a2"] is None else
             f", (A2) {'holds' if verdict['a2']['passes'] else 'fails'}"))
    return EXIT_OK


def cmd_ode1d(cfg, out: Path) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    spec = cfg.get("ode1d", {})
    if ("r" in spec) == ("a" in spec):
        raise ConfigError("ode1d needs exactly one of 'r' (radius) or "
                          "'a' (center value)")
    if "a" in spec:
        # tabulated from the given center value: its radius is one quadrature
        sol = _tabulate(nl, p, spec["a"], blowup_radius(nl, p, spec["a"]))
    else:
        sol = solve_large_1d(nl, p, spec["r"])
    resid = sol.first_integral_residual()
    _write_csv(out / "profile.csv",
               ["t", "phi", "dphi", "first_integral_residual"],
               [(float(t), float(v), float(d), float(e))
                for t, v, d, e in zip(sol.t, sol.phi, sol.dphi, resid)])
    _write_json({"a": sol.a, "r": sol.r, "p": p,
                 "residual_max": float(resid.max())}, out / "ode1d.json")
    print(f"profile written: a={sol.a:.12g}, r={sol.r:.12g}, "
          f"max first-integral residual {resid.max():.3e}")
    return EXIT_OK


def _geometry(cfg, default_ny):
    """The ``geometry`` section, its cross-section (y0, y1) and ``ny``,
    checked, and ``grid_for(ell, nx=None)``, the grid of half-length ell
    with hx tied to hy unless ``nx`` is given."""
    geo = _require(cfg, "geometry")
    cross = geo.get("cross")
    if not (cross and cross[0] < cross[1]):
        raise ConfigError("geometry.cross must be [y0, y1] with y0 < y1")
    ny = geo.get("ny", default_ny)
    if ny < 3:
        raise ConfigError(f"geometry.ny must be at least 3, got {ny}")

    def grid_for(ell, nx=None):
        return build_grid(ell, cross,
                          tied_nx(ell, cross, ny) if nx is None else nx, ny)

    return geo, cross, ny, grid_for


def _geometry_single(cfg):
    geo, _, _, grid_for = _geometry(cfg, 33)
    if "ell" not in geo:
        raise ConfigError("geometry.ell is required for this subcommand")
    return grid_for(geo["ell"], geo.get("nx"))


def cmd_solve(cfg, out: Path) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    grid = _geometry_single(cfg)
    regime = _boundary_regime(cfg)
    scfg = SolverConfig(p=p, **cfg.get("solver", {}))
    window = Window(*cfg["window"]) if "window" in cfg else None
    if window is not None:
        require_window_inside(grid, window)
    diagnostics = {"p": p, "nonlinearity": nl.describe(),
                   "grid": {"ell": grid.ell, "cross": list(grid.cross),
                            "nx": grid.nx, "ny": grid.ny}}
    if isinstance(regime, FiniteData):
        res = solve_dirichlet(grid, nl, scfg, regime.g)
    else:
        results, report = solve_blowup(grid, nl, scfg, regime.m_list,
                                       window=window)
        res = results[-1]
        diagnostics["blowup"] = asdict(report)
    diagnostics.update({
        "boundary": res.boundary_mode,
        # F(M) of e^s - 1 overflows past M ~ 709.8 on the fixed nodes alone;
        # JSON has no infinity
        "energy": res.energy if math.isfinite(res.energy) else None,
        "residual": res.residual,
        "iterations": [s.iterations for s in res.stages],
        "backtracks": [s.backtracks for s in res.stages],
        "eps_schedule": [s.eps for s in res.stages],
        "stage_tol": [s.tol for s in res.stages],
        "roundoff_floor": res.roundoff_floor,
    })
    write_grid_function(res.solution, out / "solution.csv",
                        out / "solution.meta.json")
    _write_json(diagnostics, out / "solve.json")
    print(f"solve finished: residual {res.residual:.3e}, "
          f"energy {res.energy:.6e}")
    return EXIT_OK


def _sweep_spec(cfg) -> SweepSpec:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    geo, cross, ny, _ = _geometry(cfg, 33)
    ells = geo.get("ell_list")
    if not ells:
        raise ConfigError("geometry.ell_list is required for sweeps")
    return SweepSpec(nl=nl, p=p, cross=cross, regime=_boundary_regime(cfg),
                     ells=ells, window=Window(*_require(cfg, "window")),
                     ny=ny, **cfg.get("solver", {}))


def _write_sweep_outputs(out, rows, floor, extras):
    _write_csv(out / "rows.csv", ["ell", "error"],
               [(r.ell, r.error) for r in rows])
    data = {"floor": floor if math.isfinite(floor) else None,
            "rows": [{"ell": r.ell,
                      "error": r.error if math.isfinite(r.error) else None,
                      "note": r.note, "newton_steps": r.newton_steps}
                     for r in rows],
            "blowup_reports": {str(ell): asdict(b)
                               for ell, b in extras.cylinder.items()},
            "cross_section_report": None if extras.cross_section is None
            else asdict(extras.cross_section),
            "floor_solve": extras.floor_solve}
    _write_json(data, out / "sweep.json")


def cmd_sweep(cfg, out: Path) -> int:
    spec = _sweep_spec(cfg)
    rows, floor, extras = sweep_ell(spec)
    _write_sweep_outputs(out, rows, floor, extras)
    print("sweep rows:", ", ".join(f"e({r.ell:g})={r.error:.3e}"
                                   for r in rows))
    return EXIT_OK


#: the artifacts of a rate fit, written only when the fit resolves
_FIT_ARTIFACTS = ("rate_rows.csv", "rate_plot.dat", "rate.json")


def cmd_rate(cfg, out: Path) -> int:
    """Sweep, then fit.  An unresolvable fit exits 4 and leaves the
    sweep's ``rows.csv`` and ``sweep.json`` (each whole: they record why)
    and none of :data:`_FIT_ARTIFACTS`, which it removes when an earlier
    run left them in ``out``; a fit that misses the bound exits 4 with
    every artifact written."""
    spec = _sweep_spec(cfg)
    rows, floor, extras = sweep_ell(spec)
    _write_sweep_outputs(out, rows, floor, extras)
    try:
        report = fit_rate(rows, spec.p, floor)
    except RateUnresolvableError:
        for name in _FIT_ARTIFACTS:
            (out / name).unlink(missing_ok=True)
        raise
    _write_csv(out / "rate_rows.csv", ["ell", "error", "used_in_fit"],
               [(r.ell, r.error, int(bool(r.used_in_fit)))
                for r in report.rows])
    with replacing_file(out / "rate_plot.dat") as fh:
        for r in report.rows:
            if r.used_in_fit:
                fh.write(f"{r.ell!r} {r.error!r}\n")
    _write_json({"slope": report.slope, "intercept": report.intercept,
                 "target_slope": report.target_slope, "pass": report.passed,
                 "floor": report.floor,
                 "constant_estimate": report.constant_estimate},
                out / "rate.json")
    verdict = "pass" if report.passed else "FAIL"
    print(f"rate fit: slope {report.slope:.4f} vs target "
          f"{report.target_slope:.4f} + 0.1 -> {verdict}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def cmd_check(cfg, out: Path) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    regime = _boundary_regime(cfg)
    window = Window(*_require(cfg, "window"))
    geo, cross, _, grid_for = _geometry(cfg, 17)
    ells = geo.get("ell_list") or (geo.get("ell", 2.0),)
    scfg = SolverConfig(p=p, **cfg.get("solver", {}))
    check_cfg = cfg.get("check", {})
    n_pairs = check_cfg.get("pairs", 5)
    n_balls = check_cfg.get("balls", 5)
    n_windows = check_cfg.get("window_pairs", 3)
    if len(ells) >= 2 and not ells[1] > ells[0]:
        raise ConfigError(f"the second ell of 'geometry.ell_list' must "
                          f"exceed the first, got {list(ells)}")
    reports = []
    grid = grid_for(ells[0])
    require_window_inside(grid, window)
    if isinstance(regime, BlowupData):
        require_a1(nl, p)
    # ordered constant boundary data -> ordered solutions; the distinct
    # levels of all pairs are solved in increasing order on one problem
    rng = np.random.default_rng(0)
    base = regime.m_list[0] if isinstance(regime, BlowupData) else \
        abs(regime.g) + 1.0
    pairs = [tuple(float(g) for g in np.sort(rng.uniform(0.0, base, size=2)))
             for _ in range(n_pairs)]
    levels = sorted({g for pair in pairs for g in pair})
    solved = dict(zip(levels, solve_levels(grid, nl, scfg, levels)))
    for pair in pairs:
        lower, upper = (solved[g] for g in pair)
        rep = verify_comparison(lower, upper)
        reports.append(replace(rep, details={
            **rep.details, "levels": pair,
            "newton_steps": (lower.newton_steps, upper.newton_steps)}))

    if isinstance(regime, BlowupData) or check_a1(nl, p):
        m_list = regime.m_list if isinstance(regime, BlowupData) else \
            (10.0, 100.0, 1000.0)
        results, _ = solve_blowup(grid, nl, scfg, m_list, window=window)
        final = results[-1]
        # balls sit deep inside: the interior bound phi_R(R/2) then carries
        # a wide margin over the solution, dominating the coarse-mesh
        # overshoot of the under-resolved boundary layer
        R = 0.4 * min(grid.ell, 0.5 * (cross[1] - cross[0]))
        cy = 0.5 * (cross[0] + cross[1])
        span = max(grid.ell - 2.0 * R, 0.0)
        xs = np.linspace(-span, span, n_balls) if n_balls > 1 else [0.0]
        # every ball has radius R, so one bound phi_R(R/2) serves them all
        bound = solve_large_1d(nl, p, R).value_at(R / 2.0)
        for cx in xs:
            reports.append(verify_barrier(final, (float(cx), cy), R, bound))
        for shrink in np.linspace(0.2, 0.5, n_windows):
            wi = Window(window.x_lo + shrink * (window.x_hi - window.x_lo) / 2,
                        window.x_hi - shrink * (window.x_hi - window.x_lo) / 2,
                        window.y_lo + shrink * (window.y_hi - window.y_lo) / 2,
                        window.y_hi - shrink * (window.y_hi - window.y_lo) / 2)
            reports.append(verify_caccioppoli(final, wi, window))
        if len(ells) >= 2:
            res_b, _ = solve_blowup(grid_for(ells[1]), nl, scfg, m_list)
            reports.append(verify_monotone_in_ell(final, res_b[-1], window))
    payload = {"checks": [{"name": r.name, "passed": r.passed,
                           "worst": r.worst,
                           "details": {k: (v if not isinstance(v, tuple)
                                           else list(v))
                                       for k, v in r.details.items()}}
                          for r in reports],
               "all_passed": all(r.passed for r in reports)}
    _write_json(payload, out / "check.json")
    for r in reports:
        print(str(r))
    return EXIT_OK if payload["all_passed"] else EXIT_PROPERTY


_COMMANDS = {
    "psi": cmd_psi,
    "ode1d": cmd_ode1d,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "rate": cmd_rate,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="p-Laplacian absorption problems on expanding cylinders")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides the config's "
                             "'out'; default '.')")
        # ignored: sweep rows run serially; still parsed for command lines
        # that pass it, such as perfbench/test_perfbench.py's
        sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return parser


#: the parser of :func:`main`, built on its first call (not at import)
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the validation code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        out = Path(args.out if args.out is not None else cfg.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ValueError as exc:  # ConfigError included
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:  # NonConvergenceError, QuadratureError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RateUnresolvableError as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
