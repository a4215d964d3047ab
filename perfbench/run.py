"""plaplab benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload rate_blowup --seed 1 --seconds 12 \\
        --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  ``--trace 0`` times the untraced workload in a fresh
process (``worker.py``) for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass in two fresh
processes and prints the per-layer metrics.  Every op is checked against
``reference.json`` and every repeat of an op against the first for
byte-identical CSV bodies.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import EXACT_COUNTERS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_PROBES = 5
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


def _worker(workload, seed, work: Path, *, seconds=0.0, trace=0,
            setup_only=False, timeout=WORKER_TIMEOUT_S):
    """Run ``worker.py`` in a fresh process; returns (result, wall seconds)."""
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--work", str(work), "--result",
           str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s: {cmd}")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    if setup_only:
        return None, wall
    return json.loads(result.read_text()), wall


# -- correctness --------------------------------------------------------------

def _matches(expected: dict, command: str, outcome: dict, tol: dict):
    """Why ``outcome`` differs from the expected verdict, or None."""
    if outcome["exit"] != expected["exit"]:
        return f"exit {outcome['exit']}, expected {expected['exit']}"
    got = outcome["verdict"]
    if not got and expected["exit"] == 0:
        return "verdict artifacts missing"
    if command == "psi":
        keys = ("a1", "a2")
    elif command == "ode1d":
        if abs(got["r"] - expected["r"]) > tol["ode1d_r"]:
            return f"r = {got['r']!r}, expected {expected['r']!r}"
        if not got["residual_max"] <= tol["ode1d_residual"]:
            return f"first-integral residual {got['residual_max']:.3e}"
        return None
    elif command == "rate":
        keys = ("pass", "used_in_fit")
        if abs(got["slope"] - expected["slope"]) > tol["slope"]:
            return f"slope {got['slope']!r}, expected {expected['slope']!r}"
    else:
        keys = ("all_passed", "n_checks")
    for key in keys:
        if got.get(key) != expected[key]:
            return f"{key} = {got.get(key)!r}, expected {expected[key]!r}"
    return None


def check_outcomes(workload, runs, reference):
    """Judge every op of every pass.

    Returns (attempted, failed, problems, notes): ``failed`` counts ops
    that miss their documented expectation; ``problems`` lists those that
    are not the reference's known seed defects, plus CSV bodies that
    differ between repeats of one op.  ``notes`` explain the known ones.
    """
    expected = reference["workloads"][workload]
    tol = reference["tolerances"]
    attempted = failed = 0
    problems, notes = [], set()
    first_csv = {}
    for run in runs:
        for pass_ in run["passes"]:
            for op in pass_["ops"]:
                attempted += 1
                ref = expected[op["name"]]
                why = _matches(ref, op["command"], op, tol)
                if why is not None:
                    failed += 1
                    known = ref.get("seed_defect")
                    if known is not None and op["exit"] != 0:
                        notes.add(f"{op['name']}: {why} ({known['reason']})")
                    else:
                        problems.append(f"{op['name']}: {why}")
                csv = first_csv.setdefault(op["name"], op["csv_sha256"])
                if csv != op["csv_sha256"]:
                    problems.append(f"{op['name']}: CSV bodies differ "
                                    "between two runs of the same config")
    return attempted, failed, problems, sorted(notes)


# -- metrics ------------------------------------------------------------------

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload, seed, seconds, work: Path):
    setup = []
    for k in range(SETUP_PROBES):
        _, wall = _worker(workload, seed, work / f"setup{k}", setup_only=True)
        setup.append(wall)
    result, _ = _worker(workload, seed, work / "run", seconds=seconds)
    walls = [p["wall_s"] for p in result["passes"]]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    q1, q3 = _quartiles(walls)
    detail = [f"wall_s: median {metrics['wall_s'][0]:.4f} s, quartiles "
              f"{q1:.4f} / {q3:.4f} s over {len(walls)} passes",
              f"setup_s: median {metrics['setup_s'][0]:.4f} s over "
              f"{len(setup)} fresh processes",
              "cpu_s per pass: " + ", ".join(f"{p['cpu_s']:.3f}"
                                             for p in result["passes"])]
    return [result], metrics, detail


def traced(workload, seed, work: Path):
    plain, _ = _worker(workload, seed, work / "untraced")
    result, _ = _worker(workload, seed, work / "traced", trace=1)
    metrics = {name: (result["layers"][name], unit)
               for name, unit in LAYER_METRICS.items()}
    plain_wall = plain["passes"][0]["wall_s"]
    traced_wall = result["passes"][0]["wall_s"]
    metrics["process.cpu_s"] = (plain["passes"][0]["cpu_s"], "s")
    metrics["process.wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    detail = [f"untraced pass {plain_wall:.4f} s, traced pass "
              f"{traced_wall:.4f} s, {result['spans']} spans",
              "exact-repeat counters: " + ", ".join(
                  f"{k}={result['layers'][k]}" for k in EXACT_COUNTERS)]
    return [plain, result], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plaplab" / "cli.py").is_file():
        print(f"no plaplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        if args.trace:
            runs, metrics, detail = traced(args.workload, args.seed, work)
        else:
            runs, metrics, detail = end_to_end(args.workload, args.seed,
                                               args.seconds, work)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems, notes = check_outcomes(
        args.workload, runs, reference)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in detail:
        print("  " + line)
    print(f"  failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for note in notes:
        print("  known seed defect: " + note)
    for problem in problems:
        print("  INCORRECT: " + problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
