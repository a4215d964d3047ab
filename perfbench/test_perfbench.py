"""Tests of the benchmark's own code: wrapper installation and removal,
exact-repeat counters, and the correctness judge.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import layertrace  # noqa: E402
from layertrace import EXACT_COUNTERS, LAYER_METRICS, Tracer  # noqa: E402
from run import check_outcomes  # noqa: E402


def _namespaces():
    import importlib
    import plaplab.cli  # noqa: F401  (loads every plaplab module)
    names = list(layertrace.LINEAR_ENTRY_POINTS) + ["scipy.integrate"]
    names += [n for n in sys.modules if n == "plaplab"
              or n.startswith("plaplab.")]
    return {n: importlib.import_module(n) for n in names}


def test_restore_puts_back_every_patched_attribute():
    modules = _namespaces()
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = Tracer()
    tracer.install_scipy()
    tracer.install_plaplab()
    import plaplab.quadrature as quadrature
    assert quadrature.panel_quad is not before["plaplab.quadrature"][
        "panel_quad"]
    assert quadrature.quad is not before["plaplab.quadrature"]["quad"]
    tracer.restore()
    for name, module in modules.items():
        now = vars(module)
        changed = [k for k, v in before[name].items() if now.get(k) is not v]
        assert not changed, f"{name} still patched: {changed}"


def test_restore_after_installing_before_import():
    """The worker's order: scipy wrapped first, then plaplab imported, so
    its ``from``-imports bind wrappers that restore must also undo."""
    script = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]
import scipy.integrate, scipy.linalg, scipy.sparse.linalg
from layertrace import LINEAR_ENTRY_POINTS, Tracer
originals = {{id(scipy.integrate.quad)}}
for mod in (scipy.linalg, scipy.sparse.linalg):
    originals |= {{id(getattr(mod, a)) for a in
                   LINEAR_ENTRY_POINTS[mod.__name__] if hasattr(mod, a)}}
tracer = Tracer()
tracer.install_scipy()
import plaplab.cli
tracer.install_plaplab()
assert plaplab.quadrature.quad is scipy.integrate.quad
wrappers = set(tracer._originals)
tracer.restore()
left = [(m, a) for m, mod in list(sys.modules.items())
        if mod is not None and m.startswith(("plaplab", "scipy"))
        for a, v in list(vars(mod).items()) if id(v) in wrappers]
assert not left, left
assert id(plaplab.quadrature.quad) in originals
assert id(plaplab.ode1d.solve_banded) in originals
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _traced_ops(tmp_path, tag):
    """Trace a psi op and a small threaded rate op through the CLI."""
    import plaplab.cli as cli
    configs = {
        "psi": {"nonlinearity": {"kind": "power", "c": 2.0, "q": 3.0},
                "p": 2.0},
        "rate": {"nonlinearity": {"kind": "power", "c": 2.0, "q": 3.0},
                 "p": 2.0,
                 "geometry": {"ell_list": [2.0, 4.0, 8.0],
                              "cross": [-2.0, 2.0], "ny": 9},
                 "boundary": {"blowup": [10.0, 100.0]},
                 "window": [-1.0, 1.0, -1.0, 1.0]},
    }
    tracer = Tracer()
    tracer.install_scipy()
    tracer.install_plaplab()
    try:
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({"schema_version": 1, **cfg}))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([command, "--config", str(path), "--out",
                          str(tmp_path / tag / command), "--threads", "2"])
    finally:
        tracer.restore()
    return tracer.layer_metrics()


def test_counters_repeat_exactly(tmp_path):
    first = _traced_ops(tmp_path, "a")
    second = _traced_ops(tmp_path, "b")
    assert set(first) == set(LAYER_METRICS)
    for key in EXACT_COUNTERS:
        assert first[key] > 0, key
    counts = [k for k, unit in LAYER_METRICS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def _run(exit_code, verdict, csv="x"):
    op = {"name": "op", "command": "psi", "exit": exit_code,
          "verdict": verdict, "csv_sha256": {"psi.csv": csv}}
    return {"passes": [{"ops": [op]}]}


REFERENCE = {"tolerances": {}, "workloads": {"w": {"op": {
    "exit": 0, "a1": True, "a2": True,
    "seed_defect": {"exit": 2, "reason": "known"}}}}}


@pytest.mark.parametrize("runs,failed,problems", [
    ([_run(0, {"a1": True, "a2": True})] * 2, 0, 0),
    ([_run(2, {})], 1, 0),                          # the known defect
    ([_run(0, {"a1": True, "a2": False})], 1, 1),   # wrong verdict
    ([_run(0, {"a1": True, "a2": True}, "x"),
      _run(0, {"a1": True, "a2": True}, "y")], 0, 1),  # CSV bodies differ
])
def test_judge(runs, failed, problems):
    attempted, n_failed, found, _ = check_outcomes("w", runs, REFERENCE)
    assert attempted == sum(len(r["passes"]) for r in runs)
    assert (n_failed, len(found)) == (failed, problems)
