"""pollsys benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process (closed loop: one call at a
time), with BLAS limited to the CPUs this process may use and the package
imported from ``src`` of this checkout.  With ``--trace 0`` it prints the
end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); the two times
are in reference seconds (see ``speed.py``), and the human-readable line
also gives them as measured.  With ``--trace 1`` it prints the per-layer
metrics, as measured, and the tracing overhead in reference seconds.  The
last line of standard output is one JSON object; the exit code is 0 only
when every operation ran and passed its output checks.  ``--workload all`` runs every
workload named in BENCHMARK.json and prints one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import calibrate, to_reference  # stdlib only, like this launcher
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in BLAS_VARS})
    return env


def run_worker(args, deadline):
    """Run the worker script and return the JSON object it printed last.

    Returns None when the worker failed, timed out or printed nothing.
    """
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker {' '.join(args)}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {' '.join(args)}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload: the contract's result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    res = run_worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace))], deadline)
    if res is None:  # the program could not run at all: one failed operation
        print(f"{workload}: FAILED: the worker ended without a result", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for problem in res["problems"]:
        print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)
    print(f"{workload}: env {json.dumps(res['env'], sort_keys=True)}")
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items() if name in res["layers"]}
        if res["ref_walls"] and res["traced_ref_walls"]:
            overhead = (statistics.median(res["traced_ref_walls"])
                        - statistics.median(res["ref_walls"]))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups, cals = [], [calibrate()]
        for _ in range(SETUP_REPEATS):
            setups.append(run_worker(["--workload", workload, "--setup"], deadline))
            cals.append(calibrate())
        metrics, measured = {}, {}
        if None in setups:  # a set-up that fails counts as one more failed operation
            res["attempted"] += 1
            res["failed"] += 1
        else:
            times = [s["setup_s"] for s in setups]
            measured["setup_s"] = statistics.median(times)
            ref_times = map(to_reference, times, cals, cals[1:])
            metrics["setup_s"] = {"value": statistics.median(ref_times), "unit": "s"}
        if res["walls"]:  # left out when every timed operation raised
            measured["wall_s"] = statistics.median(res["walls"])
            metrics["wall_s"] = {"value": statistics.median(res["ref_walls"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MiB"}
        print(f"{workload}: as measured "
              + "  ".join(f"{k}={v:.6g} s" for k, v in measured.items())
              + f"  set-up calibration={statistics.median(cals):.6g} s")
    shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{workload}: {shown}  failed_frac={res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})  timed_ops={len(res['walls'])}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pollsys", "__init__.py")):
        print(f"pollsys sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, seconds, bool(args.trace))
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
