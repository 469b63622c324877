"""Benchmark workloads: one operation each, and the checks on its outputs.

An operation is one top-level call of the pipeline, as a user of the CLI
makes it.  Its outputs (policy tables, eta samples, artifact hashes) are
checked against a reference stored from a known-good commit, so a change
that alters results fails the benchmark instead of reading as a speed-up.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from pollsys import cli, solver
from pollsys.ctmdp import build_nonpreemptive
from pollsys.model import ACTION_NAMES, triple_indexer, validate_scenario

REFERENCE_SEED = 0
ETA_MEAN_RTOL = 1e-9

BUNDLE_PLAN = dict(policies=("smdp", "exhaustive", "heuristic"), horizon=200.0, zeta=0.05,
                   occupancy_horizon=2000.0)

# wrapped names each kind of operation must call; see tracer.LAYER_OF
REQUIRED = {
    "bundle": (
        "cli.run_experiment", "cli.stage_screen", "smdp.build_arrival_summaries",
        "smdp.build_action_model", "cli.policy_iteration", "solver.policy_evaluate",
        "solver.policy_improve", "cli.export_policy_csv", "cli.sample_performance",
        "cli.simulate_trace", "cli.test_matrices", "cli.summary_row",
    ),
    "vi": ("cli.build_nonpreemptive", "cli.build_value_graph", "cli.value_iterate",
           "cli.export_policy_csv"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bundle" runs `pollsys run`; "vi" runs `pollsys solve --model ctmdp`
    scenario: str
    X: int
    N: int
    rollouts: int = 0  # per policy, bundle only

    @property
    def overrides(self) -> dict:
        return {"X1": self.X, "X2": self.X, "N1": self.N, "N2": self.N}

    def config(self):
        """Load and validate the scenario, as every CLI call does first."""
        cfg = cli.load_scenario(self.scenario, self.overrides)
        validate_scenario(cfg)
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload("bundle_slow_x24", "bundle", "slow_mode", X=24, N=20, rollouts=200),
    Workload("vi_slow_x8", "vi", "slow_mode", X=8, N=8),
)}


@dataclass
class Outputs:
    tables: Dict[str, np.ndarray]
    etas: Dict[str, np.ndarray] = field(default_factory=dict)
    files: Dict[str, str] = field(default_factory=dict)  # artifact -> sha256


def run_call(w: Workload, cfg, seed: int, out_dir: str):
    """The timed top-level call of one operation."""
    if w.kind == "bundle":
        plan = cli.ExperimentPlan(scenario=w.scenario, seed=seed, out_dir=out_dir,
                                  rollouts=w.rollouts, overrides=w.overrides, **BUNDLE_PLAN)
        return cli.run_experiment(plan)
    tables, _ = cli.solve_policies(cfg, ["ctmdp"])
    cli.export_policy_csv(tables["ctmdp"], cfg, out_dir, "ctmdp")
    return tables


def _read_table(path_stem: str, cfg) -> np.ndarray:
    action_of = {name: a for a, name in ACTION_NAMES.items()}
    indexer = triple_indexer(cfg)
    table = np.full(indexer.size, -1, dtype=int)
    for loc in (1, 2):
        with open(f"{path_stem}_q{loc}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                x = indexer.flatten(int(row["n1"]), int(row["n2"]), int(row["l1"]))
                table[x] = action_of[row["action"]]
    return table


def collect_outputs(w: Workload, cfg, result, out_dir: str) -> Outputs:
    """Gather what the checks compare, after the timed call."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    if w.kind != "bundle":
        return Outputs(tables=dict(result), files=files)
    tables = {p: _read_table(os.path.join(out_dir, f"policy_{p}"), cfg)
              for p in BUNDLE_PLAN["policies"] if p in cli.MDP_POLICIES}
    etas = {p: np.loadtxt(os.path.join(out_dir, f"eta_{p}.csv"), skiprows=1, ndmin=1)
            for p in BUNDLE_PLAN["policies"]}
    return Outputs(tables=tables, etas=etas, files=files)


def encode_table(table) -> str:
    return "".join("-" if a < 0 else str(int(a)) for a in table)


def check_outputs(w: Workload, out: Outputs, reference: dict, seed: int) -> List[str]:
    """Problems with one operation's outputs; empty when they are correct.

    ``reference`` holds the encoded policy tables and, for the bundle, the
    eta means at ``REFERENCE_SEED``.  The value-iteration table's reference
    is the exact policy-iteration table, so VI must reproduce exact PI.
    """
    problems = []
    for name, want in reference["tables"].items():
        got = encode_table(out.tables[name]) if name in out.tables else ""
        if got != want:
            diff = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
            problems.append(f"policy table {name} differs from the reference at {diff} states")
    if w.kind == "bundle":
        for name, eta in out.etas.items():
            if len(eta) != w.rollouts or not np.isfinite(eta).all():
                problems.append(f"eta_{name} has {len(eta)} values or non-finite entries")
        if seed == REFERENCE_SEED:
            for name, want in reference["eta_means"].items():
                got = float(out.etas[name].mean()) if name in out.etas else float("nan")
                if not abs(got - want) <= ETA_MEAN_RTOL * abs(want):
                    problems.append(f"eta_{name} mean {got!r} differs from reference {want!r}")
    return problems


def exact_ctmdp(cfg):
    """Exact policy-iteration solve of the uniformised model: (policy, table)."""
    model = build_nonpreemptive(cfg.with_exponential_durations())
    policy = solver.policy_iteration(model)
    return policy, model.decision_table(policy.actions)


def make_reference(w: Workload, out_dir: str) -> dict:
    """Reference outputs of one workload at ``REFERENCE_SEED``.

    For value iteration the reference is the exact policy-iteration table.
    """
    cfg = w.config()
    if w.kind == "vi":
        return {"tables": {"ctmdp": encode_table(exact_ctmdp(cfg)[1])}}
    os.makedirs(out_dir, exist_ok=True)
    out = collect_outputs(w, cfg, run_call(w, cfg, REFERENCE_SEED, out_dir), out_dir)
    return {"tables": {name: encode_table(t) for name, t in sorted(out.tables.items())},
            "eta_means": {name: float(eta.mean()) for name, eta in sorted(out.etas.items())}}
