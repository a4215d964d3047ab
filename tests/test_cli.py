"""Command-line front end: configs, artifacts, exit codes."""

import csv
import json
import math

import pytest

import plaplab.asymptotics
import plaplab.quadrature
from plaplab.cli import main
from plaplab.minimize import NonConvergenceError

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
    ], ids=["p_null", "ny_null", "blowup_scalar", "cross_null", "ny_bool",
            "tol_string", "tol_nan", "ny_beyond_float"])
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

    @pytest.mark.parametrize("command, extra, key", [
        ("check", {"check": {"balls": 0}}, "'check.balls'"),
        ("check", {"check": {"pairs": -3}}, "'check.pairs'"),
        ("check", {"check": {"window_pairs": 0}}, "'check.window_pairs'"),
        ("psi", {"a2": {"t_max": 0.5}}, "t_max"),
    ], ids=["balls_0", "pairs_negative", "window_pairs_0", "a2_t_max"])
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

    def test_numerical_failure_leaves_no_artifact(self, tmp_path,
                                                  monkeypatch):
        # a quadrature that returns NaN makes the A2 probe unresolvable
        monkeypatch.setattr(plaplab.quadrature, "quad",
                            lambda *args, **kwargs: (math.nan, math.nan))
        code, out = run(tmp_path, "psi", {})
        assert code == 3
        assert not (out / "psi.csv").exists()
        assert not (out / "verdict.json").exists()

    def test_default_table_and_probe_share_one_tail(self, tmp_path,
                                                    monkeypatch):
        # the slowest tail of the benchmark: Psi_3 for f = 2 s^3 decays
        # like s^(-1/3), about 120 doubling panels per tail integral
        calls = []
        quad = plaplab.quadrature.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(plaplab.quadrature, "quad", counting)
        code, _ = run(tmp_path, "psi", {"p": 3.0})
        assert code == 0
        assert len(calls) <= 400

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

    def test_requires_exactly_one_of_r_a(self, tmp_path):
        code, _ = run(tmp_path, "ode1d", {"ode1d": {"r": 1.0, "a": 1.0}})
        assert code == 2

    def test_divergent_nonlinearity_is_numerical_failure(self, tmp_path):
        code, _ = run(tmp_path, "ode1d",
                      {"nonlinearity": {"kind": "power", "c": 1, "q": 1},
                       "ode1d": {"a": 1.0}})
        assert code == 3

    def test_bracketing_failure_is_numerical_failure(self, tmp_path,
                                                     monkeypatch):
        # r(a) never falls to the target radius
        monkeypatch.setattr("plaplab.ode1d.blowup_radius",
                            lambda nl, p, a: 10.0)
        code, _ = run(tmp_path, "ode1d", {"ode1d": {"r": 1.0}})
        assert code == 3


class TestSolve:
    def test_dirichlet_artifacts(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [0.0, 1.0], "ny": 9},
            "boundary": {"dirichlet": 1.0},
        })
        assert code == 0
        diag = json.loads((out / "solve.json").read_text())
        assert diag["residual"] <= 1e-9 or diag["stalled_at_floor"]
        meta = json.loads((out / "solution.meta.json").read_text())
        assert meta["ny"] == 9
        with open(out / "solution.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + meta["nx"] * meta["ny"]

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

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "nonlinearity": {"kind": "power", "c": 1, "q": 1},
            "geometry": {"ell_list": [2.0, 4.0], "cross": [0.0, 2.0],
                         "ny": 9},
            "boundary": {"dirichlet": 1.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2),
                     "--threads", "2"]) == 0
        assert (out1 / "rows.csv").read_bytes() == \
            (out2 / "rows.csv").read_bytes()

    def test_blowup_sweep_reports_level_newton_steps(self, tmp_path):
        code, out = run(tmp_path, "sweep", {
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 9},
            "boundary": {"blowup": [10.0, 100.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
        })
        assert code == 0
        reports = json.loads((out / "sweep.json").read_text())[
            "blowup_reports"]
        assert set(reports) == {"2.0", "4.0"}
        for rep in reports.values():
            assert len(rep["level_newton_steps"]) == 2

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

    def test_flat_sweep_rate_unresolvable_is_exit_4(self, tmp_path):
        code, _ = run(tmp_path, "rate", {
            "nonlinearity": {"kind": "zero"},
            "geometry": self.GEOMETRY,
            "boundary": {"dirichlet": 2.0},
            "window": [-1.0, 1.0, 0.5, 1.5],
        })
        assert code == 4


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
