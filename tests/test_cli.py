"""Command-line front end: configs, artifacts, exit codes."""

import csv
import json

import pytest

from plaplab.cli import main

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

    def test_unresolvable_a2_probe_is_numerical_failure(self, tmp_path):
        # F(s) = e^s - 1 - s overflows long before the default t_max = 1e4,
        # so Psi_p(t_max) underflows to 0; no artifact may be left behind
        code, out = run(tmp_path, "psi", {"nonlinearity": {
            "kind": "exp_minus_one", "lam": 1.0}})
        assert code == 3
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

    def test_nonconvergence_is_exit_3(self, tmp_path):
        code, _ = run(tmp_path, "solve", {
            "geometry": {"ell": 1.0, "cross": [-1.0, 1.0], "ny": 17},
            "boundary": {"dirichlet": 1e4},
            "solver": {"max_newton": 1},
            "p": 1.5,
        })
        assert code == 3


class TestSweepAndRate:
    GEOMETRY = {"ell_list": [2.0, 4.0, 8.0], "cross": [0.0, 2.0], "ny": 9}

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
