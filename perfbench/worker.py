"""One workload process: writes the configs, then runs the ops through
``plaplab.cli.main`` in-process, pass after pass, for about ``--seconds``.

Every op gets only ``--config`` and ``--out``, as a user would type it.
After each pass (outside the timed region) the worker reads each op's
verdict fields and hashes its CSV bodies.  The result, a JSON document,
goes to ``--result``.  With ``--setup-only`` the process stops after the
configs are written; ``run.py`` times such processes for ``setup_s``.

    python3 perfbench/worker.py --workload classify --seed 1 --seconds 5 \\
        --trace 0 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_configs  # noqa: E402


def _csv_bodies(out: Path) -> dict:
    """sha256 of each CSV file without its header line."""
    digests = {}
    for path in sorted(out.glob("*.csv")):
        body = path.read_bytes().split(b"\n", 1)[-1]
        digests[path.name] = hashlib.sha256(body).hexdigest()
    return digests


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def _verdict(command: str, out: Path) -> dict:
    """The verdict fields an op's artifacts carry (empty when missing)."""
    if command == "psi":
        v = _read_json(out / "verdict.json")
        if v is None:
            return {}
        return {"a1": v["a1"], "a2": None if v["a2"] is None
                else v["a2"]["passes"]}
    if command == "ode1d":
        v = _read_json(out / "ode1d.json")
        return {} if v is None else {"r": v["r"],
                                     "residual_max": v["residual_max"]}
    if command == "rate":
        v = _read_json(out / "rate.json")
        if v is None:
            return {}
        with open(out / "rate_rows.csv", newline="") as fh:
            used = [int(row["used_in_fit"]) for row in csv.DictReader(fh)]
        return {"pass": v["pass"], "slope": v["slope"], "used_in_fit": used}
    if command == "check":
        v = _read_json(out / "check.json")
        return {} if v is None else {"all_passed": v["all_passed"],
                                     "n_checks": len(v["checks"])}
    raise ValueError(f"unknown command {command!r}")


def run_pass(cli, ops, out_dir: Path) -> dict:
    """Run every op once; returns the timings and per-op outcomes."""
    outcomes = []
    walls = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for name, command, config in ops:
        out = out_dir / name
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main([command, "--config", str(config),
                             "--out", str(out)])
        walls.append(time.perf_counter() - t0)
        outcomes.append({"name": name, "command": command, "exit": code})
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    for outcome, op_wall in zip(outcomes, walls):
        out = out_dir / outcome["name"]
        outcome["wall_s"] = op_wall
        outcome["verdict"] = _verdict(outcome["command"], out)
        outcome["csv_sha256"] = _csv_bodies(out)
    shutil.rmtree(out_dir)
    return {"wall_s": wall, "cpu_s": cpu, "ops": outcomes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path,
                        help="traced runs: write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install_scipy()
    sys.path.insert(0, str(src))
    import plaplab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"plaplab imported from {cli.__file__}, not {src}")
    ops = write_configs(args.workload, args.seed, args.work / "configs")
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.install_plaplab()

    # start another pass only while it should still end within --seconds
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start \
            + passes[-1]["wall_s"] <= args.seconds:
        passes.append(run_pass(cli, ops, args.work / f"pass{len(passes)}"))
    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.restore()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
