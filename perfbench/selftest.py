"""Tests of the benchmark itself (kept out of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pollsys.cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, absent_layers  # noqa: E402
from worker import run_workload  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED,
    WORKLOADS,
    Outputs,
    Workload,
    check_outputs,
    make_reference,
)

# below X=20 the slow_mode SMDP policy, clamped beyond its box, overflows the simulator cap
TINY = {
    "bundle": Workload("tiny_bundle", "bundle", "slow_mode", X=20, N=8, rollouts=20),
    "vi": Workload("tiny_vi", "vi", "slow_mode", X=6, N=6),
}

# layer metrics that must be non-zero on each kind of workload
WORKS = {
    "bundle": ("lattice.time_s", "smdp.build_s", "smdp.nnz", "solver.pi_s", "solver.pi_eval_s",
               "solver.pi_improve_s", "simulate.sample_s",
               "simulate.trace_s", "baselines.screen_s", "stats.time_s", "stats.tests",
               "cli.self_s", "cli.export_s", "cli.bundle_bytes"),
    "vi": ("ctmdp.build_s", "ctmdp.graph_s", "ctmdp.q_nodes", "ctmdp.nnz", "solver.vi_s",
           "solver.vi_sweeps", "solver.vi_node_updates", "solver.vi_value_gap",
           "cli.export_s"),
}


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    base = tmp_path_factory.mktemp("ref")
    return {kind: make_reference(w, str(base / kind)) for kind, w in TINY.items()}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_smoke_run_passes_checks_and_reports_layers(kind, references, tmp_path):
    res = run_workload(TINY[kind], seed=3, seconds=0.0, trace=True,
                       reference=references[kind], work_dir=str(tmp_path / "work"))
    assert res["failed"] == 0, res["problems"]
    assert res["attempted"] == 3  # warm-up, one untraced and one traced operation
    assert len(res["walls"]) == len(res["ref_walls"]) == len(res["traced_ref_walls"]) == 1
    assert set(res["layers"]) == set(LAYER_METRICS)
    for name in WORKS[kind]:
        assert res["layers"][name] > 0, name


def test_every_workload_has_a_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        stored = json.load(fh)
    assert stored["seed"] == REFERENCE_SEED
    assert set(stored["workloads"]) == set(WORKLOADS)


def _outputs(w, reference):
    tables = {name: np.array([int(c) for c in enc]) for name, enc in reference["tables"].items()}
    etas = {name: np.full(w.rollouts, mean) for name, mean in reference.get("eta_means", {}).items()}
    return Outputs(tables=tables, etas=etas)


def test_check_accepts_the_reference_outputs(references):
    for kind, w in TINY.items():
        assert check_outputs(w, _outputs(w, references[kind]), references[kind],
                             REFERENCE_SEED) == []


@pytest.mark.parametrize("kind, table", [("bundle", "smdp"), ("vi", "ctmdp")])
def test_check_catches_a_wrong_policy_table(kind, table, references):
    # the vi reference is the exact policy-iteration table, so this is also
    # the check that value iteration reproduces exact policy iteration
    w = TINY[kind]
    out = _outputs(w, references[kind])
    out.tables[table][5] = (out.tables[table][5] + 1) % 3
    problems = check_outputs(w, out, references[kind], REFERENCE_SEED)
    assert problems == [f"policy table {table} differs from the reference at 1 states"]


def test_check_catches_a_wrong_eta_array(references):
    w = TINY["bundle"]
    out = _outputs(w, references["bundle"])
    out.etas["heuristic"][7] *= 1.0 + 1e-6
    problems = check_outputs(w, out, references["bundle"], REFERENCE_SEED)
    assert len(problems) == 1 and problems[0].startswith("eta_heuristic mean")
    # off the reference seed only the shape and finiteness are checked
    out.etas["smdp"][0] = np.nan
    problems = check_outputs(w, out, references["bundle"], REFERENCE_SEED + 1)
    assert problems == [f"eta_smdp has {w.rollouts} values or non-finite entries"]


def test_a_program_that_cannot_start_reads_as_failed(tmp_path):
    broken = Workload("broken", "vi", "no_such_scenario", X=6, N=6)
    res = run_workload(broken, seed=3, seconds=0.0, trace=False,
                       reference={"tables": {}}, work_dir=str(tmp_path / "work"))
    assert (res["attempted"], res["failed"], res["walls"]) == (1, 1, [])
    assert res["problems"][0].startswith("set-up raised FileNotFoundError")


def test_launcher_reports_a_run_where_every_operation_failed(monkeypatch):
    def worker(args, deadline):
        if "--setup" in args:
            return {"setup_s": 0.5}
        return {"attempted": 3, "failed": 3, "problems": ["raised ValueError: x"], "walls": [],
                "ref_walls": [], "traced_ref_walls": [], "layers": {}, "peak_rss_mb": 80.0, "env": {}}

    monkeypatch.setattr(run, "run_worker", worker)
    out = run.run_one("vi_slow_x8", seed=1, seconds=1.0, trace=False)
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 3, 3)
    assert set(out["metrics"]) == {"setup_s", "peak_rss_mb"}


def test_layer_metrics_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_METRICS, "trace.overhead_s": "s"}


def test_guard_reports_a_missing_public_name(monkeypatch):
    monkeypatch.delattr(pollsys.cli, "value_iterate")
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["cli.value_iterate"]
    assert absent_layers(tracer, ("cli.value_iterate",)) == [
        "layer solver absent: cli.value_iterate is no longer defined"]
    assert not hasattr(pollsys.cli, "value_iterate")  # restored as it was


def test_guard_reports_a_required_layer_with_no_calls():
    with Tracer() as tracer:
        pollsys.cli.stage_screen(TINY["bundle"].config())
    problems = absent_layers(tracer, ("cli.stage_screen", "cli.sample_performance"))
    assert problems == ["layer simulate absent: cli.sample_performance recorded no calls"]


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "vi_slow_x8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
