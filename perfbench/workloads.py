"""Workload definitions: the CLI ops each workload runs, built from a seed.

An op is one ``plaplab <command> --config <file> --out <dir>`` call.  The
``rate_*`` configs are the acceptance configs verbatim; the seed only
shuffles their order.  For ``classify`` and ``check`` the seed also scales
the coefficient ``c`` of every ``power`` nonlinearity by one factor drawn
from ``C_SCALE_RANGE``, so different seeds solve different problems with
the same expected verdicts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("rate_blowup", "rate_finite", "classify", "check")

#: factor applied to the nominal power coefficient in classify and check
C_SCALE_RANGE = (0.75, 1.25)

_ACCEPTANCE_5 = {
    "nonlinearity": {"kind": "power", "c": 2.0, "q": 3.0},
    "p": 1.5,
    "geometry": {"ell_list": [2.0, 4.0, 8.0, 16.0], "cross": [-2.0, 2.0],
                 "ny": 33},
    "boundary": {"blowup": [10.0, 100.0, 1000.0, 10000.0]},
    "window": [-1.0, 1.0, -1.0, 1.0],
    "solver": {"tol": 1e-11},
}


def _finite(nonlinearity, p, cross, window):
    return {"nonlinearity": nonlinearity, "p": p,
            "geometry": {"ell_list": [2.0, 4.0, 8.0, 16.0], "cross": cross,
                         "ny": 17},
            "boundary": {"dirichlet": 1.0}, "window": window,
            "solver": {"tol": 1e-11}}


def _power(c, q):
    return {"kind": "power", "c": c, "q": q}


def _ops(workload: str, rng: random.Random) -> list:
    """(name, command, config) triples in nominal order."""
    if workload == "rate_blowup":
        return [("rate_power23_p1.5", "rate", _ACCEPTANCE_5)]
    if workload == "rate_finite":
        return [
            ("rate_linear_p2", "rate", _finite(_power(1.0, 1.0), 2.0,
                                               [0.0, 2.0],
                                               [-1.0, 1.0, 0.5, 1.5])),
            ("rate_power23_p1.5", "rate", _finite(_power(2.0, 3.0), 1.5,
                                                  [0.0, 2.0],
                                                  [-1.0, 1.0, 0.5, 1.5])),
            ("rate_power23_p3", "rate", _finite(_power(2.0, 3.0), 3.0,
                                                [0.0, 4.0],
                                                [-1.0, 1.0, 1.0, 3.0])),
        ]
    scale = rng.uniform(*C_SCALE_RANGE)
    if workload == "classify":
        cases = [("power23_p1.5", _power(2.0 * scale, 3.0), 1.5),
                 ("power23_p2", _power(2.0 * scale, 3.0), 2.0),
                 ("power23_p3", _power(2.0 * scale, 3.0), 3.0),
                 ("power15_p2", _power(1.0 * scale, 5.0), 2.0),
                 ("expm1_p2", {"kind": "exp_minus_one", "lam": 1.0}, 2.0)]
        ops = []
        for name, nl, p in cases:
            ops.append((f"psi_{name}", "psi", {"nonlinearity": nl, "p": p}))
            ops.append((f"ode1d_{name}", "ode1d",
                        {"nonlinearity": nl, "p": p, "ode1d": {"r": 1.0}}))
        return ops
    if workload == "check":
        return [(f"check_power23_p{p:g}", "check", {
            "nonlinearity": _power(2.0 * scale, 3.0), "p": p,
            "geometry": {"ell_list": [2.0, 4.0], "cross": [-2.0, 2.0],
                         "ny": 17},
            "boundary": {"blowup": [10.0, 100.0, 1000.0, 10000.0]},
            "window": [-1.0, 1.0, -1.0, 1.0],
            "check": {"pairs": 20, "balls": 5, "window_pairs": 3}})
            for p in (1.5, 2.0, 3.0)]
    raise ValueError(f"unknown workload {workload!r}")


def make_ops(workload: str, seed: int) -> list:
    """Ops of ``workload`` for ``seed``, shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _ops(workload, rng)
    rng.shuffle(ops)
    return ops


def write_configs(workload: str, seed: int, directory) -> list:
    """Write one config file per op; returns (name, command, path) triples."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, command, cfg in make_ops(workload, seed):
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, **cfg}, indent=1,
                                   sort_keys=True) + "\n")
        written.append((name, command, path))
    return written
