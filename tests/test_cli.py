"""Command-line front end: configs, artifacts, exit codes."""

import csv
import dataclasses
import json
import math
import threading

import numpy as np
import pytest

import plaplab.asymptotics
import plaplab.cli
import plaplab.nonlinearity
import plaplab.ode1d
import plaplab.quadrature
from plaplab.cli import main
from plaplab import (GridFunction, Nonlinearity, SolverConfig, build_grid,
                     embed_cross_section, solve_cross_large, solve_dirichlet)
from plaplab.minimize import NonConvergenceError
from plaplab.solver import _CylinderProblem

BASE = {
    "schema_version": 1,
    "nonlinearity": {"kind": "power", "c": 2, "q": 3},
    "p": 2.0,
}


def write_cfg(tmp_path, extra, name="cfg.json"):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, extra, name="cfg.json"):
    cfg = write_cfg(tmp_path, extra, name)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    return code, out


def _schema_leaves(schema, path=""):
    """(path, kind) of every leaf of a configuration schema."""
    for key, kind in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            yield from _schema_leaves(kind, where)
        else:
            yield where, kind


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "psi", {"exponent": 2.0})
        assert code == 2
        assert "exponent" in capsys.readouterr().err

    def test_unknown_nested_key_names_path(self, tmp_path, capsys):
        code, _ = run(tmp_path, "psi", {"nonlinearity":
                                        {"kind": "power", "cc": 2}})
        assert code == 2
        assert "nonlinearity.cc" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        code, _ = run(tmp_path, "psi", {"schema_version": 2})
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["psi", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["psi", "--config", str(path)]) == 2

    def test_unknown_subcommand_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {})
        assert main(["frobnicate", "--config", cfg]) == 2
        capsys.readouterr()

    def test_parser_is_built_once_and_survives_bad_usage(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        built = []
        build = plaplab.cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(plaplab.cli, "_parser", None)
        monkeypatch.setattr(plaplab.cli, "build_parser", counting)
        cfg = write_cfg(tmp_path, {"ode1d": {"r": 1.0}})
        assert main(["ode1d", "--config", cfg, "--bogus"]) == 2
        assert main(["ode1d", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "ode1d.json").exists()
        assert built == [1]
        capsys.readouterr()


    GOOD = {"geometry": {"ell": 2.0, "ell_list": [2.0, 4.0],
                         "cross": [0.0, 2.0], "ny": 9},
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5]}

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("section, entry, key", [
        (None, {"p": None}, "'p'"),
        ("geometry", {"ny": None}, "'geometry.ny'"),
        ("boundary", {"blowup": 10.0}, "'boundary.blowup'"),
        ("geometry", {"cross": [None, 1.0]}, "'geometry.cross[0]'"),
        ("geometry", {"ny": True}, "'geometry.ny'"),
        ("solver", {"tol": "1e-9"}, "'solver.tol'"),
        ("solver", {"tol": float("nan")}, "'solver.tol'"),
        ("geometry", {"ny": 10 ** 400}, "'geometry.ny'"),
        # True == 1, but a boolean is not a version number
        (None, {"schema_version": True}, "'schema_version'"),
    ], ids=["p_null", "ny_null", "blowup_scalar", "cross_null", "ny_bool",
            "tol_string", "tol_nan", "ny_beyond_float", "schema_version_bool"])
    def test_wrong_json_type_is_validation_error(self, tmp_path, capsys,
                                                 command, section, entry,
                                                 key):
        cfg = {k: dict(v) if isinstance(v, dict) else v
               for k, v in self.GOOD.items()}
        if section is None:
            cfg.update(entry)
        elif section == "boundary":
            cfg[section] = entry
        else:
            cfg.setdefault(section, {}).update(entry)
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_out_of_the_wrong_type_is_validation_error(self, tmp_path,
                                                        capsys, monkeypatch):
        # without --out the config's 'out' names the artifact directory
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, {"out": 5})
        assert main(["psi", "--config", cfg]) == 2
        assert "'out'" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    def test_key_the_command_does_not_read_is_type_checked(self, tmp_path,
                                                           capsys):
        code, out = run(tmp_path, "ode1d", {"ode1d": {"a": 1.0},
                                            "psi": {"r_min": "x"}})
        assert code == 2
        assert "'psi.r_min'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("path, kind", [
        pytest.param(path, kind, id=path)
        for path, kind in _schema_leaves(plaplab.cli._SCHEMA)])
    def test_every_schema_leaf_is_type_checked(self, tmp_path, capsys, path,
                                               kind):
        # a psi config, valid but for one value of the wrong kind, whether
        # or not psi reads it
        wrong = 5 if kind is str else 0 if kind is plaplab.cli._COUNT \
            else "x"
        cfg = json.loads(json.dumps(BASE))
        *sections, key = path.split(".")
        section = cfg
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = wrong
        code, out = run(tmp_path, "psi", cfg)
        assert code == 2
        assert f"'{path}'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, extra, key", [
        ("check", {"check": {"balls": 0}}, "'check.balls'"),
        ("check", {"check": {"pairs": -3}}, "'check.pairs'"),
        ("check", {"check": {"window_pairs": 0}}, "'check.window_pairs'"),
        ("psi", {"a2": {"t_max": 0.5}}, "t_max"),
        ("sweep", {"solver": {"tol": 0}}, "tol must be positive"),
        ("rate", {"solver": {"max_newton": 0}}, "max_newton"),
        # hy = 0.25: a quarter cell from the cross-section's lower edge
        ("sweep", {"window": [-1.0, 1.0, -1.9375, 1.0]}, "one cell"),
        # beyond the cylinder (-1, 1), then reaching past its right end
        ("solve", {"geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
                   "window": [5.0, 6.0, 0.2, 0.8]}, "one cell"),
        ("solve", {"geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
                   "window": [0.5, 3.0, 0.2, 0.8]}, "one cell"),
        # the same two windows with finite data, which never reads them
        ("solve", {"geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
                   "boundary": {"dirichlet": 1.0},
                   "window": [5.0, 6.0, 0.2, 0.8]}, "one cell"),
        ("solve", {"geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
                   "boundary": {"dirichlet": 1.0},
                   "window": [0.5, 3.0, 0.2, 0.8]}, "one cell"),
    ], ids=["balls_0", "pairs_negative", "window_pairs_0", "a2_t_max",
            "sweep_tol_0", "rate_max_newton_0", "sweep_window_within_a_cell",
            "solve_window_outside", "solve_window_overlapping",
            "solve_finite_window_outside", "solve_finite_window_overlapping"])
    def test_counts_and_ranges_below_their_minimum(self, tmp_path, capsys,
                                                   command, extra, key):
        code, out = run(tmp_path, command, {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 17},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
            **extra,
        })
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestPsi:
    def test_table_and_verdict(self, tmp_path):
        code, out = run(tmp_path, "psi",
                        {"psi": {"r_min": 0.5, "r_max": 4.0, "points": 4}})
        assert code == 0
        with open(out / "psi.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "psi_p"]
        # Psi_2(r) = 1/r for f = 2 s^3
        for r_str, psi_str in rows[1:]:
            assert float(psi_str) == pytest.approx(1.0 / float(r_str),
                                                   rel=1e-7)
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["a1"] is True
        assert verdict["a2"]["passes"] is True

    def test_divergent_kind_reports_a1_false(self, tmp_path):
        code, out = run(tmp_path, "psi",
                        {"nonlinearity": {"kind": "power", "c": 1, "q": 1}})
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["a1"] is False and verdict["a2"] is None

    def test_readme_exp_minus_one_config(self, tmp_path):
        # Psi_2(1e4) ~ e^(-5000) and Psi_2(t/4)/Psi_2(t) ~ e^(3750): both
        # leave double precision, their logs do not
        code, out = run(tmp_path, "psi", {"nonlinearity": {
            "kind": "exp_minus_one", "lam": 1}})
        assert code == 0
        with open(out / "psi.csv") as fh:
            values = [float(row["psi_p"]) for row in csv.DictReader(fh)]
        assert len(values) == 25
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

        def reject(token):
            raise ValueError(f"{token} is not valid JSON")

        verdict = json.loads((out / "verdict.json").read_text(),
                             parse_constant=reject)
        assert verdict["a1"] is True and verdict["a2"]["passes"] is True
        assert verdict["a2"]["log_liminf_per_beta"] == pytest.approx(
            [375.0, 250.0, 125.0], rel=1e-12)

    @staticmethod
    def nan_panels(h, lo, hi, *args, **kwargs):
        return np.full(np.shape(lo), math.nan)

    def test_numerical_failure_leaves_no_artifact(self, tmp_path,
                                                  monkeypatch):
        # a quadrature that returns NaN makes the A2 probe's tail
        # unresolvable
        monkeypatch.setattr(plaplab.quadrature, "panel_quad",
                            self.nan_panels)
        code, out = run(tmp_path, "psi", {})
        assert code == 3
        assert not (out / "psi.csv").exists()
        assert not (out / "verdict.json").exists()

    def test_nan_panels_between_points_leave_no_artifact(self, tmp_path,
                                                         monkeypatch):
        # the tail converges, the panels between the sweep's points do not
        monkeypatch.setattr(plaplab.nonlinearity, "panel_quad",
                            self.nan_panels)
        code, out = run(tmp_path, "psi", {})
        assert code == 3
        assert not (out / "psi.csv").exists()
        assert not (out / "verdict.json").exists()

    def test_default_table_and_probe_share_one_tail(self, tmp_path,
                                                    monkeypatch):
        # the slowest tail of the benchmark: Psi_3 for f = 2 s^3 decays
        # like s^(-1/3) and stops at its 120th doubling panel, in the
        # fifth of its blocks of 6, 12, 24, 48 and 96 panels; the 87
        # panels between the probe's and the table's points take one more
        # call
        calls = []
        panel_quad = plaplab.quadrature.panel_quad

        def counting(h, lo, hi, *args, **kwargs):
            calls.append(np.size(lo))
            return panel_quad(h, lo, hi, *args, **kwargs)

        monkeypatch.setattr(plaplab.quadrature, "panel_quad", counting)
        monkeypatch.setattr(plaplab.nonlinearity, "panel_quad", counting)
        code, _ = run(tmp_path, "psi", {"p": 3.0})
        assert code == 0
        assert len(calls) <= 6
        assert sum(calls) <= 300

    def test_empty_beta_grid_is_bad_input(self, tmp_path):
        # an (A2) verdict over no beta would pass without a test
        code, out = run(tmp_path, "psi", {"a2": {"betas": []}})
        assert code == 2
        assert not (out / "psi.csv").exists()
        assert not (out / "verdict.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"psi": {"points": 5}})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["psi", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["psi", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "psi.csv").read_bytes() == \
            (out2 / "psi.csv").read_bytes()
        assert (out1 / "verdict.json").read_bytes() == \
            (out2 / "verdict.json").read_bytes()


class TestOde1d:
    def test_profile_artifacts(self, tmp_path):
        code, out = run(tmp_path, "ode1d", {"ode1d": {"r": 1.0}})
        assert code == 0
        summary = json.loads((out / "ode1d.json").read_text())
        assert summary["r"] == pytest.approx(1.0)
        assert summary["a"] == pytest.approx(1.3110287771, rel=1e-6)
        assert summary["residual_max"] <= 1e-8
        with open(out / "profile.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "phi", "dphi", "first_integral_residual"]

    def test_given_center_value_is_tabulated_without_a_root_solve(
            self, tmp_path, monkeypatch):
        # r(a) is computed once and the profile keeps the given a, not a
        # round trip of it through a root solve
        calls = []
        radius = plaplab.ode1d.blowup_radius

        def counted(nl, p, a):
            calls.append(a)
            return radius(nl, p, a)

        monkeypatch.setattr("plaplab.ode1d.blowup_radius", counted)
        monkeypatch.setattr("plaplab.cli.blowup_radius", counted)
        a = 1.2345678901234567
        code, out = run(tmp_path, "ode1d", {"ode1d": {"a": a}})
        assert code == 0
        summary = json.loads((out / "ode1d.json").read_text())
        assert summary["a"] == a
        assert calls == [a]
        assert summary["r"] == radius(Nonlinearity.power(2, 3), 2.0, a)
        assert summary["residual_max"] <= 1e-8

    def test_requires_exactly_one_of_r_a(self, tmp_path):
        code, _ = run(tmp_path, "ode1d", {"ode1d": {"r": 1.0, "a": 1.0}})
        assert code == 2

    def test_center_value_past_the_overflow_is_numerical_failure(
            self, tmp_path, capsys):
        # F(phi) - F(a) overflows at every level of the ladder above
        # a = 1e300: no level to tabulate
        code, out = run(tmp_path, "ode1d", {"ode1d": {"a": 1e300}})
        assert code == 3
        assert "a=1e+300" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()
        assert not (out / "ode1d.json").exists()

    def test_divergent_nonlinearity_is_validation_error(self, tmp_path,
                                                        capsys):
        # f(s) = s at p = 2 fails (A1), decided analytically: bad input
        code, out = run(tmp_path, "ode1d",
                        {"nonlinearity": {"kind": "power", "c": 1, "q": 1},
                         "ode1d": {"a": 1.0}})
        assert code == 2
        assert "no large solution" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    def test_bracketing_failure_is_numerical_failure(self, tmp_path,
                                                     monkeypatch):
        # r(a) never falls to the target radius
        monkeypatch.setattr("plaplab.ode1d.blowup_radius",
                            lambda nl, p, a: 10.0)
        code, _ = run(tmp_path, "ode1d", {"ode1d": {"r": 1.0}})
        assert code == 3


class TestWithoutQuadpack:
    """The 1D layer runs with QUADPACK and scipy's root finder refused."""

    @pytest.fixture(autouse=True)
    def refuse(self, monkeypatch):
        import scipy.integrate
        import scipy.optimize

        def refused(*args, **kwargs):
            raise AssertionError("QUADPACK or brentq was called")

        monkeypatch.setattr(scipy.integrate, "quad", refused)
        monkeypatch.setattr(plaplab.quadrature, "quad", refused)
        monkeypatch.setattr(scipy.optimize, "brentq", refused)

    @pytest.mark.parametrize("command", ["psi", "ode1d"])
    @pytest.mark.parametrize("nonlinearity, p", [
        ({"kind": "power", "c": 2, "q": 3}, 1.5),
        ({"kind": "power", "c": 2, "q": 3}, 2.0),
        ({"kind": "power", "c": 2, "q": 3}, 3.0),
        ({"kind": "power", "c": 1, "q": 5}, 2.0),
        ({"kind": "exp_minus_one", "lam": 1}, 2.0),
    ], ids=["power23_p1.5", "power23_p2", "power23_p3", "power15_p2",
            "expm1_p2"])
    def test_classify_ops_exit_0(self, tmp_path, command, nonlinearity, p):
        extra = {"nonlinearity": nonlinearity, "p": p}
        if command == "ode1d":
            extra["ode1d"] = {"r": 1.0}
        code, _ = run(tmp_path, command, extra)
        assert code == 0

    def test_barrier_bound(self):
        grid = build_grid(2.0, (-1.0, 1.0), 33, 17)
        res = solve_dirichlet(grid, Nonlinearity.power(2, 3),
                              SolverConfig(p=2.0), 0.0)
        rep = plaplab.asymptotics.verify_barrier(res, (0.0, 0.0), 0.8)
        assert rep.passed and rep.details["bound"] > 0.0


class TestSolve:
    def test_dirichlet_artifacts(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
            "boundary": {"dirichlet": 1.0},
        })
        assert code == 0
        diag = json.loads((out / "solve.json").read_text())
        assert diag["residual"] <= 1e-9 or diag["stalled_at_floor"]
        # every stage before the last stops at max(tol, eps)
        assert diag["stage_tol"] == [max(1e-9, e) for e in
                                     diag["eps_schedule"][:-1]] + [1e-9]
        meta = json.loads((out / "solution.meta.json").read_text())
        assert meta["ny"] == 9
        with open(out / "solution.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + meta["nx"] * meta["ny"]

    def test_solve_json_records_each_stages_backtracks(self, tmp_path):
        # this cold p = 3 solve rejects one line-search trial in its first
        # eps stage
        code, out = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
            "boundary": {"dirichlet": 1.0},
            "p": 3.0,
        })
        assert code == 0
        diag = json.loads((out / "solve.json").read_text())
        meta = json.loads((out / "solution.meta.json").read_text())
        grid = build_grid(1.0, (0.0, 1.0), meta["nx"], 9)
        res = solve_dirichlet(grid, Nonlinearity.power(2, 3),
                              SolverConfig(p=3.0), 1.0)
        assert diag["backtracks"] == [s.backtracks for s in res.stages]
        assert len(diag["backtracks"]) == len(diag["iterations"])
        assert sum(diag["backtracks"]) > 0

    def test_blowup_sweep_artifacts(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [-1.0, 1.0], "ny": 17},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-0.5, 0.5, -0.5, 0.5],
        })
        assert code == 0
        diag = json.loads((out / "solve.json").read_text())
        assert diag["blowup"]["m_values"] == [10.0, 100.0]
        assert diag["blowup"]["monotone_margin"] >= -2e-9
        steps = diag["blowup"]["level_newton_steps"]
        assert len(steps) == 2 and steps[-1] == sum(diag["iterations"])
        assert len(diag["iterations"]) == 1  # a warm level: one eps stage

    def test_nonconvergence_is_exit_3(self, tmp_path):
        code, _ = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [-1.0, 1.0], "ny": 17},
            "boundary": {"dirichlet": 1e4},
            "solver": {"max_newton": 1},
            "p": 1.5,
        })
        assert code == 3


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_data_is_exit_3(self, tmp_path, capsys):
        # f(1000) = e^1000 - 1 overflows at every node of the cold start, so
        # the residual and its roundoff floor are infinite
        code, out = run(tmp_path, "solve", {
            "nonlinearity": {"kind": "exp_minus_one", "lam": 1},
            "geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
            "boundary": {"dirichlet": 1000}})
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "solve.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_level_overflowing_only_on_the_boundary_converges(
            self, tmp_path, command):
        # F(800) overflows on the fixed nodes only: the free nodes stay far
        # below 709.8, the level converges, and the energy it cannot report
        # is null in solve.json
        code, out = run(tmp_path, command, {
            "nonlinearity": {"kind": "exp_minus_one", "lam": 1},
            "geometry": {"ell": 2.0, "cross": [-2.0, 2.0], "ny": 9},
            "boundary": {"blowup": [10, 800]},
            "window": [-1.0, 1.0, -1.0, 1.0]})
        assert code == 0
        if command == "solve":
            diag = json.loads((out / "solve.json").read_text(),
                              parse_constant=pytest.fail)
            assert diag["energy"] is None
            assert diag["residual"] < 1e-9
        else:
            assert json.loads((out / "check.json").read_text())


class TestSweepAndRate:
    GEOMETRY = {"ell_list": [2.0, 4.0, 8.0], "cross": [0.0, 2.0], "ny": 9}

    @pytest.mark.parametrize("command", ["sweep", "rate"])
    def test_blowup_levels_beyond_the_overflow_of_F(self, tmp_path, command):
        # F(1000) of e^s - 1 overflows on the fixed nodes; every row still
        # solves
        code, out = run(tmp_path, command, {
            "nonlinearity": {"kind": "exp_minus_one", "lam": 1},
            "geometry": {"ell_list": [2.0, 3.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": {"blowup": [10, 100, 1000]},
            "window": [-1.0, 1.0, -1.0, 1.0]})
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert len(rows) == 3
        assert all(math.isfinite(r["error"]) and r["note"] == ""
                   for r in rows)
        if command == "rate":
            assert json.loads((out / "rate.json").read_text())["pass"]

    def test_sweep_rows(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 0
        with open(out / "rows.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ell", "error"]
        errors = [float(r[1]) for r in rows[1:]]
        assert errors == sorted(errors, reverse=True)

    def test_rate_pass(self, tmp_path):
        code, out = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 0
        rep = json.loads((out / "rate.json").read_text())
        assert rep["pass"] is True
        assert rep["slope"] <= rep["target_slope"] + 0.1
        plot = (out / "rate_plot.dat").read_text().strip().splitlines()
        assert len(plot) >= 3 and len(plot[0].split()) == 2

    def test_sweep_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        # rows run one after another: no thread starts, and the ignored
        # --threads flag changes no byte
        def no_thread(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg = write_cfg(tmp_path, {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["rate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["rate", "--config", cfg, "--out", str(out2),
                     "--threads", "2"]) == 0
        for name in ("rows.csv", "rate_rows.csv", "rate_plot.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = json.loads((out1 / "sweep.json").read_text())["rows"]
        assert len(rows) == 3
        assert all(r["newton_steps"] > 0 for r in rows)

    def test_blowup_sweep_reports_level_newton_steps(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
        })
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        reports = sweep["blowup_reports"]
        assert set(reports) == {"2.0", "4.0"}
        for rep in reports.values():
            assert len(rep["level_newton_steps"]) == 2
        for row in sweep["rows"]:
            assert row["newton_steps"] == \
                sum(reports[str(row["ell"])]["level_newton_steps"])

    def test_sweep_json_carries_the_cross_section_report(self, tmp_path):
        # the reference's own blow-up sweep, as solve_cross_large reports it
        # on the sweep's transverse grid, beside the rows' reports
        code, out = run(tmp_path, "sweep", {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": {"blowup": [10.0, 100.0, 1000.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
        })
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        _, report = solve_cross_large(Nonlinearity.power(2, 3),
                                      SolverConfig(p=2.0), (-2.0, 2.0),
                                      (10.0, 100.0, 1000.0), 9)
        assert sweep["cross_section_report"] == {
            "m_values": [10.0, 100.0, 1000.0],
            "stage_max_change": list(report.stage_max_change),
            "level_newton_steps": list(report.level_newton_steps),
            "monotone_margin": report.monotone_margin}
        assert all(n > 0 for n in report.level_newton_steps)

    @pytest.mark.parametrize("boundary, level", [
        ({"blowup": [10.0, 100.0]}, 100.0), ({"dirichlet": 1.0}, None)],
        ids=["blowup", "finite"])
    def test_sweep_json_records_the_floor_solve(self, tmp_path, boundary,
                                                level):
        code, out = run(tmp_path, "sweep", {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": boundary,
            "window": [-1.0, 1.0, -1.0, 1.0],
        })
        assert code == 0
        floor_solve = json.loads((out / "sweep.json").read_text())[
            "floor_solve"]
        assert set(floor_solve) == {"ny", "m", "newton_steps", "backtracks"}
        assert (floor_solve["ny"], floor_solve["m"]) == (17, level)
        assert floor_solve["newton_steps"] > 0
        assert floor_solve["backtracks"] >= 0

    def test_finite_sweep_has_no_cross_section_report(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert sweep["cross_section_report"] is None
        assert sweep["blowup_reports"] == {}

    @pytest.mark.parametrize("command", ["solve", "check", "sweep", "rate"])
    @pytest.mark.parametrize("key, value", [("n_eps_stages", 2),
                                            ("eps_schedule", [1e-30, 1e-31])])
    def test_eps_keys_rejected(self, tmp_path, capsys, command, key, value):
        # the eps ladder is fixed; the keys are unknown to every command
        code, out = run(tmp_path, command, {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": {"ell": 2.0, **self.GEOMETRY},
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
            "solver": {key: value},
        })
        assert code == 2
        assert f"unknown configuration key 'solver.{key}'" in \
            capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["solve", "check", "sweep", "rate"])
    @pytest.mark.parametrize("geometry", [{"ny": 1}, {"cross": [1.0, 1.0]}],
                             ids=["ny1", "flat_cross"])
    def test_bad_geometry_is_validation_error(self, tmp_path, capsys,
                                              command, geometry):
        code, out = run(tmp_path, command, {
            "geometry": {"ell": 2.0, **self.GEOMETRY, **geometry},
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 2
        assert "geometry." in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["sweep", "rate"])
    def test_blowup_without_keller_osserman_is_validation_error(
            self, tmp_path, capsys, command):
        # f(s) = s at p = 2 fails (A1): no large solution exists
        code, out = run(tmp_path, command, {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 2
        assert "no large solution" in capsys.readouterr().err
        assert not (out / "rows.csv").exists()
        assert not (out / "sweep.json").exists()

    def test_failed_floor_resolve_is_exit_4(self, tmp_path, capsys,
                                            monkeypatch):
        original = plaplab.asymptotics.measure_row

        def failing_floor(spec, ell, ny=None, *, reference):
            if ny not in (None, spec.ny):
                raise NonConvergenceError("stub floor failure")
            return original(spec, ell, ny, reference=reference)

        monkeypatch.setattr(plaplab.asymptotics, "measure_row",
                            failing_floor)
        code, out = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 4
        assert "floor re-solve at ny=17 failed: stub floor failure" in \
            capsys.readouterr().err
        assert not (out / "rate.json").exists()
        assert json.loads((out / "sweep.json").read_text())["floor"] is None

    def test_floor_below_its_extended_reference_is_exit_4(
            self, tmp_path, capsys, monkeypatch):
        # the floor solves the last M alone; a solution below the extended
        # reference breaks the comparison principle, and the floor fails
        original = plaplab.asymptotics.measure_row

        def lowered_floor(spec, ell, ny=None, *, reference):
            err, noise, results, blow = original(spec, ell, ny,
                                                 reference=reference)
            if ny not in (None, spec.ny):
                # every node 1e-6 below the extended reference
                grid = results[-1].solution.grid
                values = embed_cross_section(reference[-1], grid).values
                results[-1] = dataclasses.replace(
                    results[-1], solution=GridFunction(grid, values - 1e-6))
            return err, noise, results, blow

        monkeypatch.setattr(plaplab.asymptotics, "measure_row",
                            lowered_floor)
        code, out = run(tmp_path, "rate", {
            "geometry": {"ell_list": [2.0, 4.0, 8.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
        })
        assert code == 4
        assert "floor re-solve at ny=17 failed: solution at M=100 lies " \
            "1.000e-06 below its extended reference" in capsys.readouterr().err
        assert not (out / "rate.json").exists()
        sweep = json.loads((out / "sweep.json").read_text())
        assert (sweep["floor"], sweep["floor_solve"]) == (None, None)

    def test_flat_sweep_rate_unresolvable_is_exit_4(self, tmp_path):
        code, _ = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "zero"},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 2.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 4

    def test_unresolvable_rate_leaves_the_sweep_and_no_fit(self, tmp_path):
        # the sweep's artifacts stay, whole, since they record why; the fit
        # artifacts an earlier run left in the directory go
        out = tmp_path / "out"
        out.mkdir()
        for name in ("rate.json", "rate_rows.csv", "rate_plot.dat"):
            (out / name).write_text("from an earlier run\n")
        code, _ = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "zero"},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 2.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 4
        assert sorted(p.name for p in out.iterdir()) == ["rows.csv",
                                                         "sweep.json"]
        assert len(json.loads((out / "sweep.json").read_text())["rows"]) == 3
        with open(out / "rows.csv") as fh:
            assert len(list(csv.reader(fh))) == 4

    def test_failed_slope_is_exit_4_with_every_artifact(self, tmp_path,
                                                        monkeypatch):
        fit_rate = plaplab.cli.fit_rate

        def failing(*args, **kwargs):
            return dataclasses.replace(fit_rate(*args, **kwargs),
                                       passed=False)

        monkeypatch.setattr(plaplab.cli, "fit_rate", failing)
        code, out = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 4
        assert sorted(p.name for p in out.iterdir()) == [
            "rate.json", "rate_plot.dat", "rate_rows.csv", "rows.csv",
            "sweep.json"]
        assert json.loads((out / "rate.json").read_text())["pass"] is False


class TestArtifactWrites:
    @pytest.mark.parametrize("write", [
        lambda path: plaplab.cli._write_json(
            {"a": 1.0, "b": [2.0, 3.0], "z": object()}, path),
        lambda path: plaplab.cli._write_csv(
            path, ["ell", "error"],
            ((1.0, 2.0) if i < 2 else 1 / 0 for i in range(3))),
    ], ids=["json", "csv"])
    def test_a_write_that_raises_leaves_no_partial_file(self, tmp_path,
                                                        write):
        path = tmp_path / "artifact"
        path.write_text("old\n")
        with pytest.raises((TypeError, ZeroDivisionError)):
            write(path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        path.unlink()
        with pytest.raises((TypeError, ZeroDivisionError)):
            write(path)
        assert list(tmp_path.iterdir()) == []

    def test_a_write_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a much longer earlier content\n" * 10)
        plaplab.cli._write_csv(path, ["ell", "error"], [(2.0, 0.5)])
        assert path.read_bytes() == b"ell,error\r\n2.0,0.5\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


class TestCheck:
    def test_structural_battery(self, tmp_path):
        code, out = run(tmp_path, "check", {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 17},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
            "check": {"pairs": 2, "balls": 2, "window_pairs": 2},
        })
        assert code == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert names == {"comparison", "barrier", "caccioppoli",
                         "monotone_in_ell"}
        # each comparison records its two levels and the Newton steps of
        # their solves
        comparisons = [c["details"] for c in payload["checks"]
                       if c["name"] == "comparison"]
        assert len(comparisons) == 2
        for details in comparisons:
            lower, upper = details["levels"]
            assert 0.0 <= lower < upper < 10.0
            assert [isinstance(n, int) and n > 0
                    for n in details["newton_steps"]] == [True, True]

    @pytest.mark.parametrize("nonlinearity, geometry, window, key", [
        (BASE["nonlinearity"], {"ell": 2.0}, [-5.0, 5.0, -1.0, 1.0],
         "window Window(x_lo=-5.0, x_hi=5.0"),
        (BASE["nonlinearity"], {"ell_list": [4.0, 2.0]},
         [-1.0, 1.0, -1.0, 1.0], "'geometry.ell_list'"),
        # f(s) = s at p = 2 fails (A1): no large solution exists
        ({"kind": "power", "c": 1, "q": 1}, {"ell": 2.0},
         [-1.0, 1.0, -1.0, 1.0], "no large solution"),
    ], ids=["window_outside", "ells_decreasing", "keller_osserman_fails"])
    def test_input_checked_before_any_solve(self, tmp_path, capsys,
                                            monkeypatch, nonlinearity,
                                            geometry, window, key):
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(plaplab.cli, "solve_levels", no_solve)
        code, out = run(tmp_path, "check", {
            "nonlinearity": nonlinearity,
            "geometry": {**geometry, "cross": [-2.0, 2.0], "ny": 9},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": window,
        })
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "check.json").exists()

    def test_injected_ordering_violation_fails_the_comparison(
            self, tmp_path, monkeypatch):
        # the upper level of the pair is solved right after the lower one;
        # pushing one interior node of it below the lower level's solution
        # must fail the comparison check (exit 4), not abort the solve
        # (exit 3)
        minimize = _CylinderProblem.minimize
        solved, lowered = [], []

        def violating(self, initial=None):
            u, stages, info = minimize(self, initial)
            if initial is not None and np.max(self.boundary_values) < 10.0:
                node = int(np.flatnonzero(self.free)[self.free.sum() // 2])
                u[node] = solved[-1][node] - 1e-6
                lowered.append(node)
            solved.append(u)
            return u, stages, info

        monkeypatch.setattr(_CylinderProblem, "minimize", violating)
        code, out = run(tmp_path, "check", {
            "geometry": {"ell": 2.0, "cross": [-2.0, 2.0], "ny": 9},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
            "check": {"pairs": 1, "balls": 1, "window_pairs": 1},
        })
        assert code == 4
        assert len(lowered) == 1
        checks = json.loads((out / "check.json").read_text())["checks"]
        failed = [c for c in checks if not c["passed"]]
        assert [c["name"] for c in failed] == ["comparison"]
        assert failed[0]["worst"] == pytest.approx(-1e-6, rel=1e-6)
        assert failed[0]["details"]["worst_node"] == lowered[0]

    def test_finite_data_without_keller_osserman(self, tmp_path):
        # no blow-up stage for a nonlinearity failing (A1): the battery is
        # the comparison pairs alone
        code, out = run(tmp_path, "check", {
            "nonlinearity": {"kind": "zero"},
            "geometry": {"ell": 2.0, "cross": [-2.0, 2.0], "ny": 9},
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, -1.0, 1.0],
            "check": {"pairs": 3},
        })
        assert code == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["all_passed"] is True
        assert [c["name"] for c in payload["checks"]] == ["comparison"] * 3

    def test_newton_steps_of_the_p15_battery(self, tmp_path, monkeypatch):
        # the benchmark's p = 1.5 `check` config (perfbench/workloads.py)
        # at the nominal c = 2, gated on a count, which does not vary
        # between runs.  With every eps stage driven to tol it took 987
        # Newton steps; with the stages before the last stopped at
        # max(tol, eps), 589; with the comparison levels solved as one
        # increasing warm sweep on one problem, 234; with each later level
        # of a sweep started from the Euler predictor of the level below,
        # 177
        calls = []
        step = _CylinderProblem.newton_step

        def counted(self, u, eps, grad):
            calls.append(eps)
            return step(self, u, eps, grad)

        monkeypatch.setattr(_CylinderProblem, "newton_step", counted)
        code, out = run(tmp_path, "check", {
            "p": 1.5,
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 17},
            "boundary": {"blowup": [10.0, 100.0, 1000.0, 10000.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
            "check": {"pairs": 20, "balls": 5, "window_pairs": 3},
        })
        assert code == 0
        assert json.loads((out / "check.json").read_text())["all_passed"]
        assert len(calls) <= 177
