"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh process with ``PYTHONPATH`` set to
the checkout's ``src`` and the BLAS thread count fixed.  With ``--setup`` it
only times importing pollsys and loading and validating the scenario.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from speed import calibrate, to_reference  # noqa: E402
from tracer import LAYER_METRICS, Tracer, absent_layers, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED,
    REQUIRED,
    WORKLOADS,
    check_outputs,
    collect_outputs,
    exact_ctmdp,
    run_call,
)

HERE = os.path.dirname(os.path.abspath(__file__))
# with tracing, the fewest timed operations that give one untraced and one traced
MIN_TIMED_OPS = 2


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _attempt(w, cfg, seed, traced, reference, exact_J, out_dir, hashes) -> dict:
    """One operation: the timed call, then its output checks (and layers)."""
    op = {"traced": traced, "problems": []}
    os.makedirs(out_dir)
    tracer = Tracer()
    try:
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = run_call(w, cfg, seed, out_dir)
            op["wall"] = time.perf_counter() - t0
        out = collect_outputs(w, cfg, result, out_dir)
        op["problems"] += check_outputs(w, out, reference, seed)
        if hashes.setdefault(seed, out.files) != out.files:
            op["problems"].append("artifacts differ between repetitions with the same seed")
        if traced:
            op["problems"] += absent_layers(tracer, REQUIRED[w.kind])
            vi = [s.result for s in tracer.by_name().get("cli.value_iterate", ())]
            op["layers"] = layer_metrics(
                tracer,
                vi_value_gap=(float(np.abs(vi[-1].J - exact_J).max())
                              if vi and exact_J is not None else None),
                bundle_bytes=(sum(os.path.getsize(os.path.join(out_dir, f))
                                  for f in os.listdir(out_dir))
                              if w.kind == "bundle" else None),
            )
    except Exception as exc:  # an operation that raises is counted as failed
        op["problems"].append(f"raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return op


def run_workload(w, seed: int, seconds: float, trace: bool, reference, work_dir: str) -> dict:
    """Warm up at the reference seed, then repeat the operation for ``seconds``.

    With ``trace`` the timed operations alternate untraced and traced, so
    one run gives both the layer metrics and the tracing overhead.  The
    calibration loop runs before the first timed operation and after each,
    so every operation's time can be given in reference seconds.
    """
    seed = seed % 2**32 if w.kind == "bundle" else REFERENCE_SEED  # solves ignore the seed
    try:
        cfg = w.config()
        # the exact solve only serves the traced value gap; it is not the program's work
        exact_J = exact_ctmdp(cfg)[0].J if trace and w.kind == "vi" else None
    except Exception as exc:  # the program cannot even start: one failed operation
        op = {"traced": False, "problems": [f"set-up raised {type(exc).__name__}: {exc}"]}
        return _summary([op], [])
    hashes = {}

    def attempt(op_seed, traced):
        out_dir = os.path.join(work_dir, f"op{len(ops)}")
        return _attempt(w, cfg, op_seed, traced, reference, exact_J, out_dir, hashes)

    ops = []
    ops.append(attempt(REFERENCE_SEED, False))  # untimed warm-up, checked at the reference seed
    timed, cals = [], [calibrate()]
    start = time.perf_counter()
    while True:
        op = attempt(seed, trace and len(timed) % 2 == 1)
        cals.append(calibrate())
        if "wall" in op:
            op["ref_wall"] = to_reference(op["wall"], cals[-2], cals[-1])
        ops.append(op)
        timed.append(op)
        walls = [o["wall"] for o in timed if "wall" in o]
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else 0.0
        if len(timed) >= MIN_TIMED_OPS and elapsed + typical > seconds:
            break
    return _summary(ops, timed)


def _summary(ops, timed) -> dict:
    """The worker's result: counts, problems, timed walls and median layer metrics."""
    traced = [o for o in timed if "layers" in o]
    layers = {name: statistics.median(o["layers"][name] for o in traced)
              for name in LAYER_METRICS} if traced else {}
    problems = []
    for o in ops:
        problems += [p for p in o["problems"] if p not in problems]
    return {
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["problems"]),
        "problems": problems,
        "walls": [o["wall"] for o in timed if "wall" in o and not o["traced"]],
        "ref_walls": [o["ref_wall"] for o in timed if "wall" in o and not o["traced"]],
        "traced_ref_walls": [o["ref_wall"] for o in timed if "wall" in o and o["traced"]],
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true",
                        help="only time importing pollsys and loading the scenario")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    work_dir = os.path.join(HERE, ".work", w.name)
    if args.setup:
        w.config()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required unless --setup is given")
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"][w.name]
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
