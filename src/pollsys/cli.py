"""Experiment runner: screen, solve, simulate, test and the composite run.

``simulate``, ``test`` and ``run`` share one staged pipeline: load, plan
(the plan's own values before any file write, stability and the rule
policies' preconditions before any solve), solve, simulate; ``test`` and
``run`` go on to the test matrices, and ``run`` also screens and traces
the occupancy.  ``screen``
and ``solve`` load through the same stage.  A stage's failure is a
``StageError`` that reads ``[stage] message``.  Every stage writes
deterministic CSV/JSON artifacts; rerunning a plan reproduces the files
byte for byte, and the three commands write the same bytes for the files
they share.  Scenario files are plain JSON; the two bundled scenarios can
be addressed by name (``asym_var``, ``slow_mode``).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Dict, Optional, Sequence

import numpy as np

from .baselines import analyze_limit_cycle, exhaustive_start, limit_cycle_report
from .ctmdp import build_nonpreemptive
from .model import ACTION_NAMES, ScenarioConfig, ScenarioError, validate_scenario
from .simulate import (
    ExhaustivePolicy,
    HeuristicPolicy,
    TabularPolicy,
    decouple,
    largest_seed,
    limit_cycle_cells,
    occupancy,
    sample_performance,
    simulate_trace,
)
from .smdp import build_smdp
from .solver import build_value_graph, policy_iteration, value_iterate
from .stats import (
    dagostino_k2,
    mann_whitney_u,
    pearson_r,
    sample_kurtosis_excess,
    sample_skewness,
    t_test_one_sample,
    welch_t_test,
)

MDP_POLICIES = ("smdp", "ctmdp")
POLICIES = (*MDP_POLICIES, "exhaustive", "heuristic")

# Stop rule, times the largest cost, of the value iteration that gives an
# SMDP-only policy iteration its start: only its actions are used, and 1e-2
# is near the cheapest VI + PI at every size measured (ROADMAP item 3).
WARM_START_EPS = 1e-2


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class ExperimentPlan:
    scenario: str
    policies: Sequence[str] = ("smdp", "ctmdp", "exhaustive")
    rollouts: int = 10000
    horizon: float = 200.0
    seed: int = 0
    zeta: float = 0.05
    out_dir: str = "out"
    occupancy_horizon: float = 20000.0
    overrides: dict = field(default_factory=dict)


def load_scenario(name_or_path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Load a scenario from a file path or from the bundled set by name."""
    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            doc = json.load(fh)
    else:
        base = name_or_path[:-5] if name_or_path.endswith(".json") else name_or_path
        try:
            text = (
                resources.files("pollsys").joinpath("scenarios", f"{base}.json").read_text()
            )
        except FileNotFoundError:
            raise FileNotFoundError(
                f"scenario {name_or_path!r} is neither a file nor a bundled scenario"
            ) from None
        doc = json.loads(text)
    if overrides and isinstance(doc, dict):  # from_json rejects any other document
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig.from_json(doc)


def _write_csv(out_dir, name, header, rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_policy_csv(table: np.ndarray, cfg: ScenarioConfig, out_dir, name: str) -> list:
    """Write the (n1, n2, l1, action) table, one CSV per server location;
    returns the two paths."""
    box = np.asarray(table).astype(int).reshape(cfg.X1 + 1, cfg.X2 + 1, 2)
    paths = []
    for loc in (0, 1):
        rows = [(n1, n2, loc, ACTION_NAMES.get(a, str(a)))
                for n1, codes in enumerate(box[:, :, loc].tolist()) for n2, a in enumerate(codes)]
        paths.append(_write_csv(out_dir, f"policy_{name}_q{loc + 1}.csv",
                                ["n1", "n2", "l1", "action"], rows))
    return paths


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x) -> str:
    return repr(float(x))


def stage_screen(cfg: ScenarioConfig, margin: float = 4.0) -> dict:
    report = validate_scenario(cfg)
    cycle = analyze_limit_cycle(cfg)
    doc = {
        "rho1": report.rho1,
        "rho2": report.rho2,
        "rho": report.rho,
        "priority_queue": report.priority_queue,
    }
    doc.update(limit_cycle_report(cycle, margin))
    return doc


def solve_policies(cfg: ScenarioConfig, which: Sequence[str], algo: str = "default"):
    """Solve the requested decision models.

    Returns ``(tables, diagnostics)``: name -> action table, and name ->
    iterations, convergence, the decision actions each policy improvement
    changed and the dense factorisations made (both empty or 0 under value
    iteration).  A policy-iteration entry adds ``float64_factorizations``,
    the factorisations that fell back from float32 to float64, and a
    value-iteration entry the last sweep's ``residual`` and the
    ``error_bound`` it implies, None when that bound is infinite.

    Tables live on the (n1, n2, l1) box so every policy can drive the
    simulator directly.  The uniformised model solves the scenario with all
    durations replaced by exponentials of equal mean.  ``algo`` is
    "policy-iteration" or "value-iteration"; by default the SMDP takes
    policy iteration and the uniformised model value iteration.  Policy
    iteration starts from the exhaustive rule (``exhaustive_start``), which
    reaches the same tables as the all-idle start in fewer iterations and
    dense factorisations, and names its ``start``.  SMDP policy iteration
    starts from the uniformised model's table (solved, or from a loose
    value iteration when the SMDP is solved alone), feasible at every
    state; it reaches the same table from any start (Puterman 1994, section
    6.4).  A zero mean duration has no uniformised model: ``ctmdp`` raises
    ``ScenarioError`` and the SMDP alone takes the exhaustive start.  A
    solve that stops at its iteration cap unconverged raises, naming the
    model and the solver; the loose warm start is not checked, since only
    its actions seed policy iteration.
    """
    # keys in MDP_POLICIES order, whichever model is solved first
    tables = dict.fromkeys(name for name in MDP_POLICIES if name in which)
    diagnostics = dict(tables)

    def report(name, pol, start):
        """``start`` is policy iteration's start, None under value iteration."""
        if not pol.converged:
            solver, unit = ("value", "sweeps") if start is None else ("policy", "iterations")
            raise RuntimeError(f"{name}: {solver} iteration stopped after {pol.iterations} "
                               f"{unit} without converging")
        doc = {"iterations": pol.iterations, "converged": pol.converged,
               "changes": pol.changes, "factorizations": pol.factorizations}
        if start is None:
            # json.dump would write an infinite bound as the non-JSON Infinity
            doc["residual"] = pol.residual
            doc["error_bound"] = float(pol.error_bound) if np.isfinite(pol.error_bound) else None
        else:
            doc["float64_factorizations"] = pol.float64_factorizations
            doc["start"] = start
        return doc

    if "ctmdp" in which:
        np_model = build_nonpreemptive(cfg.with_exponential_durations())
        by_vi = algo != "policy-iteration"
        if by_vi:
            pol = value_iterate(build_value_graph(np_model))
        else:
            pol = policy_iteration(np_model, exhaustive_start(np_model))
        tables["ctmdp"] = np_model.decision_table(pol.actions)
        diagnostics["ctmdp"] = report("ctmdp", pol, None if by_vi else "exhaustive")
    if "smdp" in which:
        model = build_smdp(cfg)
        if algo == "value-iteration":
            pol, start = value_iterate(build_value_graph(model)), None
        else:
            warm = tables["ctmdp"] if "ctmdp" in which else _loose_ctmdp_table(cfg)
            pol = policy_iteration(model, exhaustive_start(model) if warm is None else warm)
            start = "exhaustive" if warm is None else "ctmdp"
        tables["smdp"] = model.decision_table(pol.actions)
        diagnostics["smdp"] = report("smdp", pol, start)
    return tables, diagnostics


def _loose_ctmdp_table(cfg: ScenarioConfig) -> Optional[np.ndarray]:
    """The uniformised model's table after a value iteration stopped at
    ``WARM_START_EPS`` * max cost, or None when that model does not exist."""
    try:
        exponential = cfg.with_exponential_durations()
    except ScenarioError:  # a zero mean duration
        return None
    np_model = build_nonpreemptive(exponential)
    graph = build_value_graph(np_model)
    pol = value_iterate(graph, eps=WARM_START_EPS * float(np.abs(graph.q_cost).max()))
    return np_model.decision_table(pol.actions)


def make_sim_policy(name: str, cfg: ScenarioConfig, tables: Dict[str, np.ndarray]):
    if name in MDP_POLICIES:
        return TabularPolicy(tables[name], cfg.X1, cfg.X2)
    if name == "exhaustive":
        return ExhaustivePolicy()
    if name == "heuristic":
        return HeuristicPolicy(cfg)
    raise ValueError(f"unknown policy {name!r}")


def summary_row(name: str, eta: np.ndarray, zeta: float):
    row = [
        name,
        _fmt(eta.mean()),
        _fmt(eta.std(ddof=1)),
        _fmt(eta.min()),
        _fmt(eta.max()),
        _fmt(sample_skewness(eta)),
        _fmt(sample_kurtosis_excess(eta)),
    ]
    if len(eta) >= 20:
        k2 = dagostino_k2(eta)
        row += [_fmt(k2.statistic), _fmt(k2.p_two_sided), str(k2.p_two_sided > zeta)]
    else:
        row += ["", "", ""]  # normality test needs at least 20 samples
    return row


def test_matrices(etas: Dict[str, np.ndarray], paired: Dict[str, np.ndarray], zeta: float):
    """All ordered policy pairs for the Welch, Mann-Whitney and Student
    tests and Pearson's r.

    Welch's and Mann-Whitney's tests read the `decouple`d samples ``etas``,
    Student's test of the differences and Pearson's r the ``paired`` ones
    in seed order, where entry k of each policy shares seed k's common
    random numbers; the Student row of two policies equal on every seed is
    NaN.  One-sided alternatives throughout: the row policy's performance
    is hypothesised to be smaller (better) than the column policy's.
    """
    def row(a, b, statistic, test):
        return [a, b, _fmt(statistic), _fmt(test.p_less), str(test.p_less <= zeta)]

    welch_rows, mann_rows, student_rows, pearson_rows = [], [], [], []
    for a, b in itertools.permutations(etas, 2):
        w = welch_t_test(etas[a], etas[b])
        welch_rows.append(row(a, b, w.statistic, w))
        u = mann_whitney_u(etas[a], etas[b])
        mann_rows.append(row(a, b, u.details["u_xy"], u))
        diff = paired[a] - paired[b]
        if diff.any():
            t = t_test_one_sample(diff, 0.0)
            student_rows.append(row(a, b, t.statistic, t))
        else:  # equal on every seed: t is 0/0, and nothing favours either
            student_rows.append([a, b, "nan", "nan", "False"])
        pearson_rows.append([a, b, _fmt(pearson_r(paired[a], paired[b]))])
    return welch_rows, mann_rows, student_rows, pearson_rows


# The stages of the pipeline, shared by `run_experiment` and the `simulate`
# and `test` commands.  The pipeline's public steps are looked up as module
# globals at call time, so a wrapper installed on this module sees them.

@contextmanager
def _stage(name: str):
    """Re-raise an error of the block as a StageError naming the stage."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _load(plan: ExperimentPlan) -> ScenarioConfig:
    """Stage load, then the plan stage's checks of the plan's own values,
    before any solve or file write: at least one policy, each known and
    listed once, ``seed`` >= 0, ``rollouts`` >= 2, ``seed`` at most
    `largest_seed`, both horizons finite and positive and 0 < ``zeta`` < 1.
    An error names the flag."""
    with _stage("load"):
        cfg = load_scenario(plan.scenario, plan.overrides)
    with _stage("plan"):
        if not plan.policies:
            raise ValueError("--policies names no policy")
        for k, name in enumerate(plan.policies):
            if name not in POLICIES:
                raise ValueError(f"unknown policy {name!r} in --policies, "
                                 f"expected one of {', '.join(POLICIES)}")
            if name in plan.policies[:k]:
                raise ValueError(f"policy {name!r} is listed more than once")
        if plan.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {plan.seed}")
        if plan.rollouts < 2:
            raise ValueError(f"--rollouts must be >= 2, got {plan.rollouts}")
        top = largest_seed(plan.rollouts, len(plan.policies))
        if plan.seed > top:
            raise ValueError(f"--seed must be <= {top} for --rollouts {plan.rollouts} and "
                             f"--policies naming {len(plan.policies)}, got {plan.seed}")
        for flag, T in (("--horizon", plan.horizon),
                        ("--occupancy-horizon", plan.occupancy_horizon)):
            if not 0 < T < math.inf:
                raise ValueError(f"{flag} must be finite and > 0, got {T!r}")
        if not 0 < plan.zeta < 1:
            raise ValueError(f"--zeta must lie strictly between 0 and 1, got {plan.zeta!r}")
    return cfg


def _solve(plan: ExperimentPlan, cfg: ScenarioConfig):
    """Stages plan and solve: check stability and build the rule policies
    (the heuristic checks its priority queue) before any solve, then solve
    the decision models.  Returns name -> simulator policy, name -> action
    table and the solver diagnostics."""
    with _stage("plan"):
        validate_scenario(cfg)
        rules = {n: make_sim_policy(n, cfg, {}) for n in plan.policies if n not in MDP_POLICIES}
    with _stage("solve"):
        tables, diag = solve_policies(cfg, [n for n in plan.policies if n in MDP_POLICIES])
    policies = {**rules, **{n: make_sim_policy(n, cfg, tables) for n in tables}}
    return policies, tables, diag


def _sample(plan: ExperimentPlan, cfg: ScenarioConfig, policies):
    """Stage simulate: sample every policy in one common-random-number batch;
    returns the samples `decouple`d on ``plan.seed`` and in seed order."""
    names = plan.policies
    with _stage("simulate"):
        paired = sample_performance(
            cfg, [policies[n] for n in names], None, plan.seed, plan.horizon, plan.rollouts)
        return dict(zip(names, decouple(paired, plan.seed))), dict(zip(names, paired))


def _write_etas(plan: ExperimentPlan, etas: Dict[str, np.ndarray]) -> Dict[str, str]:
    return {name: _write_csv(plan.out_dir, f"eta_{name}.csv", ["eta"], [[_fmt(v)] for v in eta])
            for name, eta in etas.items()}


def _test(plan: ExperimentPlan, etas, paired) -> list:
    """Stage test: write the four test matrices; returns the Welch rows."""
    with _stage("test"):
        welch, mann, student, pearson = test_matrices(etas, paired, plan.zeta)
        header = ["row_policy", "col_policy", "statistic", "p", "reject"]
        _write_csv(plan.out_dir, "welch.csv", header, welch)
        _write_csv(plan.out_dir, "mannwhitney.csv", header, mann)
        _write_csv(plan.out_dir, "student.csv", header, student)
        _write_csv(plan.out_dir, "pearson.csv", ["row_policy", "col_policy", "r"], pearson)
    return welch


def run_experiment(plan: ExperimentPlan) -> dict:
    """Screen, solve, simulate, test and report; returns the summary dict.
    A scenario without arrivals fails the plan stage before any file: its
    occupancy trace would idle for ever."""
    summary = {"plan": {
        "scenario": plan.scenario, "policies": list(plan.policies),
        "rollouts": plan.rollouts, "horizon": plan.horizon, "seed": plan.seed,
        "zeta": plan.zeta,
    }}
    cfg = _load(plan)
    with _stage("plan"):
        if not any(cfg.arrival_rates):
            raise ValueError("lambda1 = lambda2 = 0: the occupancy stage needs an arrival "
                             "to end an idle step")
    with _stage("screen"):
        summary["screening"] = stage_screen(cfg)
    os.makedirs(plan.out_dir, exist_ok=True)
    _write_json(os.path.join(plan.out_dir, "screening.json"), summary["screening"])

    policies, tables, summary["solve"] = _solve(plan, cfg)
    for name, table in tables.items():
        export_policy_csv(table, cfg, plan.out_dir, name)

    etas, paired = _sample(plan, cfg, policies)
    _write_etas(plan, etas)
    with _stage("test"):
        _write_csv(
            plan.out_dir, "summary_stats.csv",
            ["policy", "mean", "std", "min", "max", "skewness", "kurtosis", "k2", "p", "normal"],
            [summary_row(name, etas[name], plan.zeta) for name in plan.policies],
        )
    _test(plan, etas, paired)
    summary["means"] = {name: float(eta.mean()) for name, eta in etas.items()}

    summary["occupancy"] = {}
    with _stage("occupancy"):
        cells = limit_cycle_cells(analyze_limit_cycle(cfg))
        for name in plan.policies:
            trace = simulate_trace(cfg, policies[name], plan.occupancy_horizon, seed=plan.seed)
            summary["occupancy"][name], freq = occupancy(trace, cfg, cells)
            _write_csv(plan.out_dir, f"freq_{name}.csv", ["n1", "n2", "l1", "freq"],
                       [[*key, _fmt(f)] for key, f in freq.items()])

    _write_json(os.path.join(plan.out_dir, "summary.json"), summary)
    return summary


def _add_common(parser):
    parser.add_argument("--scenario", required=True,
                        help="scenario JSON path or bundled name (asym_var, slow_mode)")
    parser.add_argument("--truncation", choices=["absorbing", "unassigned"], default=None)
    parser.add_argument("--X1", type=int, default=None)
    parser.add_argument("--X2", type=int, default=None)
    parser.add_argument("--N1", type=int, default=None)
    parser.add_argument("--N2", type=int, default=None)


def _overrides(args) -> dict:
    out = {"X1": args.X1, "X2": args.X2, "N1": args.N1, "N2": args.N2}
    if args.truncation:
        out["truncation_mode"] = args.truncation
    return out


def _policy_names(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# (flag, ExperimentPlan field, type): simulate takes the first five, test
# also --zeta, run also --occupancy-horizon
_PLAN_FLAGS = (("--policies", "policies", _policy_names), ("--rollouts", "rollouts", int),
               ("--horizon", "horizon", float), ("--seed", "seed", int),
               ("--out", "out_dir", str), ("--zeta", "zeta", float),
               ("--occupancy-horizon", "occupancy_horizon", float))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pollsys", description="Two-queue polling system control experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="stability and limit-cycle screening")
    _add_common(p_screen)
    p_screen.add_argument("--margin", type=float, default=4.0)
    p_screen.add_argument("--out", default=None, help="optional JSON report path")

    p_solve = sub.add_parser("solve", help="solve one decision model, export policy CSV")
    _add_common(p_solve)
    p_solve.add_argument("--model", choices=["smdp", "ctmdp"], default="smdp")
    p_solve.add_argument("--algo", choices=["policy-iteration", "value-iteration"],
                         default=None)
    p_solve.add_argument("--out", default="out")

    for count, (command, text) in enumerate((
            ("simulate", "sample performance distributions"),
            ("test", "simulate and run the hypothesis-test matrices"),
            ("run", "full experiment bundle")), start=5):
        p = sub.add_parser(command, help=text)
        _add_common(p)
        for flag, dest, kind in _PLAN_FLAGS[:count]:
            p.add_argument(flag, dest=dest, type=kind, default=getattr(ExperimentPlan, dest))
    sub.choices["simulate"].set_defaults(policies=("exhaustive",))

    args = parser.parse_args(argv)
    plan = ExperimentPlan(overrides=_overrides(args), **{
        f.name: getattr(args, f.name) for f in fields(ExperimentPlan) if hasattr(args, f.name)})

    if args.command == "screen":
        cfg = _load(plan)
        with _stage("screen"):
            doc = stage_screen(cfg, args.margin)
        print(f"rho1={doc['rho1']:.4f} rho2={doc['rho2']:.4f} rho={doc['rho']:.4f}")
        print(f"cycle kind: {doc['kind']}  alpha1={doc['alpha1']:.6f}")
        print(f"recommended bounds: X1 >= {doc['recommended_X1']}, "
              f"X2 >= {doc['recommended_X2']}")
        if args.out:
            _write_json(args.out, doc)
        return 0

    if args.command == "solve":
        cfg = _load(plan)
        with _stage("solve"):
            tables, diag = solve_policies(cfg, [args.model], args.algo or "default")
        os.makedirs(args.out, exist_ok=True)
        paths = export_policy_csv(tables[args.model], cfg, args.out, args.model)
        print(f"solved {args.model} ({diag[args.model]}); wrote {', '.join(paths)}")
        return 0

    if args.command == "run":
        summary = run_experiment(plan)
        print(json.dumps(summary["means"], indent=2, sort_keys=True))
        print(f"bundle written to {plan.out_dir}")
        return 0

    cfg = _load(plan)
    policies, _, _ = _solve(plan, cfg)
    etas, paired = _sample(plan, cfg, policies)
    os.makedirs(plan.out_dir, exist_ok=True)
    if args.command == "simulate":
        for name, path in _write_etas(plan, etas).items():
            eta = etas[name]
            print(f"{name}: mean={eta.mean():.3f} std={eta.std(ddof=1):.3f} -> {path}")
    else:
        for row in _test(plan, etas, paired):
            print("welch", *row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
