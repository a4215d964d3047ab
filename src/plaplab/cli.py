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

Configuration is one strict JSON file (schema_version 1, unknown keys
rejected so a typo in p or q cannot silently invalidate an experiment).
Exit codes: 0 success, 2 validation error, 3 numerical failure, 4
property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (BlowupData, FiniteData, RateUnresolvableError,
                          SweepSpec, fit_rate, sweep_ell, verify_barrier,
                          verify_caccioppoli, verify_comparison,
                          verify_monotone_in_ell)
from .grid import Window, build_grid, write_grid_function
from .minimize import NonConvergenceError
from .nonlinearity import Nonlinearity, check_a1, check_a2, log_psi_p
from .ode1d import DivergentBlowupError, solve_large_1d
from .quadrature import QuadratureError
from .solver import SolverConfig, solve_blowup, solve_dirichlet

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTY = 4


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


# allowed configuration tree: key -> nested dict or None (leaf)
_SCHEMA = {
    "schema_version": None,
    "p": None,
    "nonlinearity": {"kind": None, "c": None, "q": None, "lam": None},
    "geometry": {"ell": None, "ell_list": None, "cross": None, "nx": None,
                 "ny": None},
    "boundary": {"dirichlet": None, "blowup": None},
    "solver": {"tol": None, "max_newton": None},
    "window": None,
    "psi": {"r_min": None, "r_max": None, "points": None},
    "a2": {"betas": None, "t_max": None},
    "ode1d": {"r": None, "a": None},
    "check": {"pairs": None, "balls": None, "window_pairs": None},
    "out": None,
}


def _check_keys(cfg, schema, path=""):
    for key, value in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key '{where}'")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be an object")
            _check_keys(value, sub, where)


def load_config(path) -> dict:
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
    _check_keys(cfg, _SCHEMA)
    if cfg.get("schema_version") != 1:
        raise ConfigError(
            f"schema_version must be 1, got {cfg.get('schema_version')!r}")
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing required configuration key '{key}'")
    return cfg[key]


def _number(value, key, kind=float):
    """The value of configuration key ``key`` as a finite ``kind`` (float
    or int); null, booleans, strings, numbers beyond the float range (NaN
    included) and, for int, fractional numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max or kind(value) != value:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    return kind(value)


def _count(value, key) -> int:
    """The value of configuration key ``key`` as an integer of at least
    1."""
    n = _number(value, key, int)
    if n < 1:
        raise ConfigError(f"'{key}' must be at least 1, got {n}")
    return n


def _numbers(value, key, length=None) -> tuple:
    """A list of numbers under configuration key ``key``, of ``length``
    entries when given."""
    if not isinstance(value, (list, tuple)) or \
            len(value) != (length or len(value)):
        raise ConfigError(f"'{key}' must be a list of {length or 'any'} "
                          f"numbers, got {value!r}")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(value))


def build_nonlinearity(spec) -> Nonlinearity:
    if not isinstance(spec, dict):
        raise ConfigError("'nonlinearity' must be an object")
    kind = spec.get("kind")
    if kind == "power":
        return Nonlinearity.power(
            _number(spec.get("c", 1.0), "nonlinearity.c"),
            _number(spec.get("q", 1.0), "nonlinearity.q"))
    if kind == "exp_minus_one":
        return Nonlinearity.exp_minus_one(
            _number(spec.get("lam", 1.0), "nonlinearity.lam"))
    if kind == "zero":
        return Nonlinearity.zero()
    raise ConfigError(
        f"nonlinearity.kind must be 'power', 'exp_minus_one' or 'zero', "
        f"got {kind!r}")


def _get_p(cfg) -> float:
    p = _number(_require(cfg, "p"), "p")
    if p <= 1.0:
        raise ConfigError(f"p must exceed 1, got {p}")
    return p


def _get_window(cfg, required=True):
    if "window" not in cfg and not required:
        return None
    return Window(*_numbers(_require(cfg, "window"), "window", 4))


def _solver_kwargs(cfg):
    s = cfg.get("solver", {})
    kinds = {"tol": float, "max_newton": int}
    return {key: _number(s[key], f"solver.{key}", kind)
            for key, kind in kinds.items() if key in s}


def _boundary_regime(cfg):
    b = _require(cfg, "boundary")
    if "dirichlet" in b and "blowup" in b:
        raise ConfigError("boundary must set either 'dirichlet' or 'blowup'")
    if "dirichlet" in b:
        return FiniteData(_number(b["dirichlet"], "boundary.dirichlet"))
    if "blowup" in b:
        return BlowupData(_numbers(b["blowup"], "boundary.blowup"))
    raise ConfigError("boundary must set 'dirichlet' or 'blowup'")


def _write_json(data, path):
    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"cannot serialize {type(obj)}")

    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float)
                             else v for v in row])


# -- subcommands ------------------------------------------------------------

def cmd_psi(cfg, out: Path, args) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    psi_cfg = cfg.get("psi", {})
    r_min = _number(psi_cfg.get("r_min", 1e-2), "psi.r_min")
    r_max = _number(psi_cfg.get("r_max", 1e2), "psi.r_max")
    points = _number(psi_cfg.get("points", 25), "psi.points", int)
    if not (0 < r_min < r_max) or points < 2:
        raise ConfigError("psi table needs 0 < r_min < r_max and points >= 2")
    radii = np.geomspace(r_min, r_max, points)
    a1 = check_a1(nl, p)
    verdict = {"p": p, "nonlinearity": nl.describe(), "a1": a1, "a2": None}
    if a1:
        a2_cfg = cfg.get("a2", {})
        betas = _numbers(a2_cfg.get("betas", (0.25, 0.5, 0.75)), "a2.betas")
        t_max = _number(a2_cfg.get("t_max", 1e4), "a2.t_max")
        # the table radii ride along in the probe's sweep: one shared tail
        rep = check_a2(nl, p, beta_grid=betas, t_max=t_max, radii=radii)
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


def cmd_ode1d(cfg, out: Path, args) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    spec = cfg.get("ode1d", {})
    if ("r" in spec) == ("a" in spec):
        raise ConfigError("ode1d needs exactly one of 'r' (radius) or "
                          "'a' (center value)")
    if "a" in spec:
        from .ode1d import blowup_radius
        r = blowup_radius(nl, p, _number(spec["a"], "ode1d.a"))
    else:
        r = _number(spec["r"], "ode1d.r")
    sol = solve_large_1d(nl, p, r)
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
    cross = _numbers(geo.get("cross"), "geometry.cross", 2)
    if not cross[0] < cross[1]:
        raise ConfigError("geometry.cross must be [y0, y1] with y0 < y1")
    ny = _number(geo.get("ny", default_ny), "geometry.ny", int)
    if ny < 3:
        raise ConfigError(f"geometry.ny must be at least 3, got {ny}")
    hy = (cross[1] - cross[0]) / (ny - 1)

    def grid_for(ell, nx=None):
        nx = int(round(2 * ell / hy)) + 1 if nx is None else nx
        return build_grid(ell, cross, nx, ny)

    return geo, cross, ny, grid_for


def _geometry_single(cfg):
    geo, _, _, grid_for = _geometry(cfg, 33)
    if "ell" not in geo:
        raise ConfigError("geometry.ell is required for this subcommand")
    nx = _number(geo["nx"], "geometry.nx", int) if "nx" in geo else None
    return grid_for(_number(geo["ell"], "geometry.ell"), nx)


def cmd_solve(cfg, out: Path, args) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    grid = _geometry_single(cfg)
    regime = _boundary_regime(cfg)
    scfg = SolverConfig(p=p, **_solver_kwargs(cfg))
    window = _get_window(cfg, required=False)
    diagnostics = {"p": p, "nonlinearity": nl.describe(),
                   "grid": {"ell": grid.ell, "cross": list(grid.cross),
                            "nx": grid.nx, "ny": grid.ny}}
    if isinstance(regime, FiniteData):
        res = solve_dirichlet(grid, nl, scfg, regime.g)
        diagnostics["boundary"] = res.boundary_mode
    else:
        results, report = solve_blowup(grid, nl, scfg, regime.m_list,
                                       window=window)
        res = results[-1]
        diagnostics["boundary"] = res.boundary_mode
        diagnostics["blowup"] = {
            "m_values": list(report.m_values),
            "stage_max_change": list(report.stage_max_change),
            "level_newton_steps": list(report.level_newton_steps),
            "monotone_margin": report.monotone_margin,
        }
    diagnostics.update({
        # F(M) of e^s - 1 overflows past M ~ 709.8 on the fixed nodes alone;
        # JSON has no infinity
        "energy": res.energy if math.isfinite(res.energy) else None,
        "residual": res.residual,
        "iterations": [s.iterations for s in res.stages],
        "eps_schedule": list(res.diagnostics["eps_schedule"]),
        "stalled_at_floor": res.diagnostics["stalled_at_floor"],
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
                     ells=_numbers(ells, "geometry.ell_list"),
                     window=_get_window(cfg), ny=ny, **_solver_kwargs(cfg))


def _write_sweep_outputs(out, rows, floor, extras):
    _write_csv(out / "rows.csv", ["ell", "error"],
               [(r.ell, r.error) for r in rows])
    data = {"floor": floor if math.isfinite(floor) else None,
            "rows": [{"ell": r.ell,
                      "error": r.error if math.isfinite(r.error) else None,
                      "note": r.note} for r in rows],
            "blowup_reports": {
                str(ell): {"m_values": list(b.m_values),
                           "stage_max_change": list(b.stage_max_change),
                           "level_newton_steps": list(b.level_newton_steps),
                           "monotone_margin": b.monotone_margin}
                for ell, b in extras.items()}}
    _write_json(data, out / "sweep.json")


def _thread_count(args) -> int:
    return args.threads if args.threads > 0 else (os.cpu_count() or 1)


def cmd_sweep(cfg, out: Path, args) -> int:
    spec = _sweep_spec(cfg)
    rows, floor, extras = sweep_ell(spec, threads=_thread_count(args))
    _write_sweep_outputs(out, rows, floor, extras)
    print("sweep rows:", ", ".join(f"e({r.ell:g})={r.error:.3e}"
                                   for r in rows))
    return EXIT_OK


def cmd_rate(cfg, out: Path, args) -> int:
    spec = _sweep_spec(cfg)
    rows, floor, extras = sweep_ell(spec, threads=_thread_count(args))
    _write_sweep_outputs(out, rows, floor, extras)
    report = fit_rate(rows, spec.p, floor)  # may raise RateUnresolvableError
    _write_csv(out / "rate_rows.csv", ["ell", "error", "used_in_fit"],
               [(r.ell, r.error, int(bool(r.used_in_fit)))
                for r in report.rows])
    with open(out / "rate_plot.dat", "w") as fh:
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


def cmd_check(cfg, out: Path, args) -> int:
    nl = build_nonlinearity(_require(cfg, "nonlinearity"))
    p = _get_p(cfg)
    regime = _boundary_regime(cfg)
    window = _get_window(cfg)
    geo, cross, _, grid_for = _geometry(cfg, 17)
    ells = _numbers(geo.get("ell_list", []), "geometry.ell_list") or \
        (_number(geo.get("ell", 2.0), "geometry.ell"),)
    scfg = SolverConfig(p=p, **_solver_kwargs(cfg))
    check_cfg = cfg.get("check", {})
    n_pairs = _count(check_cfg.get("pairs", 5), "check.pairs")
    n_balls = _count(check_cfg.get("balls", 5), "check.balls")
    n_windows = _count(check_cfg.get("window_pairs", 3), "check.window_pairs")
    reports = []
    grid = grid_for(ells[0])
    # ordered constant boundary data -> ordered solutions
    rng = np.random.default_rng(0)
    base = regime.m_list[0] if isinstance(regime, BlowupData) else \
        abs(regime.g) + 1.0
    for _ in range(n_pairs):
        g1, g2 = np.sort(rng.uniform(0.0, base, size=2))
        res1 = solve_dirichlet(grid, nl, scfg, float(g1))
        res2 = solve_dirichlet(grid, nl, scfg, float(g2))
        reports.append(verify_comparison(res1, res2))

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
        profile = solve_large_1d(nl, p, R)  # every ball has radius R
        for cx in xs:
            reports.append(verify_barrier(final, (float(cx), cy), R,
                                          profile=profile))
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
        sp.add_argument("--threads", type=int, default=0,
                        help="sweep-row parallelism (0 = the CPU count)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the validation code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        out = Path(args.out if args.out is not None else cfg.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, QuadratureError, DivergentBlowupError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RateUnresolvableError as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
