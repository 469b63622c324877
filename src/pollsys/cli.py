"""Experiment runner: screen, solve, simulate, test, and the composite run.

Every stage writes deterministic CSV/JSON artifacts; rerunning a plan with
the same inputs reproduces the files byte for byte.  Scenario files are
plain JSON; the two bundled scenarios can be addressed by name
(``asym_var``, ``slow_mode``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Optional, Sequence

import numpy as np

from .baselines import analyze_limit_cycle, limit_cycle_report
from .ctmdp import build_nonpreemptive, build_value_graph
from .model import IDLE, SERVE, SWITCH, ScenarioConfig, validate_scenario
from .simulate import (
    ExhaustivePolicy,
    HeuristicPolicy,
    TabularPolicy,
    action_time_fractions,
    embedded_stationary,
    limit_cycle_occupancy,
    sample_performance,
    simulate_trace,
    work_fraction,
)
from .smdp import build_smdp
from .solver import export_policy_csv, policy_iteration, value_iterate
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
ALL_POLICIES = ("smdp", "ctmdp", "exhaustive", "heuristic")


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
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig.from_json(doc)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    """Solve the requested decision models; returns name -> action table.

    Tables live on the (n1, n2, l1) box so every policy can drive the
    simulator directly.  The uniformised model solves the scenario with all
    durations replaced by exponentials of equal mean.
    """
    tables = {}
    diagnostics = {}
    if "smdp" in which:
        model = build_smdp(cfg)
        pol = policy_iteration(model)
        tables["smdp"] = model.decision_table(pol.actions)
        diagnostics["smdp"] = {"iterations": pol.iterations, "converged": pol.converged}
    if "ctmdp" in which:
        np_model = build_nonpreemptive(cfg.with_exponential_durations())
        if algo == "policy-iteration":
            pol = policy_iteration(np_model)
        else:
            pol = value_iterate(build_value_graph(np_model))
        tables["ctmdp"] = np_model.decision_table(pol.actions)
        diagnostics["ctmdp"] = {"iterations": pol.iterations, "converged": pol.converged}
    return tables, diagnostics


def make_sim_policy(name: str, cfg: ScenarioConfig, tables: Dict[str, np.ndarray]):
    if name in MDP_POLICIES:
        return TabularPolicy(tables[name], cfg.X1, cfg.X2)
    if name == "exhaustive":
        return ExhaustivePolicy()
    if name == "heuristic":
        return HeuristicPolicy(cfg)
    raise ValueError(f"unknown policy {name!r}")


def applicable_policies(cfg: ScenarioConfig, requested: Sequence[str]) -> list:
    report = validate_scenario(cfg)
    out = []
    for name in requested:
        if name == "heuristic" and report.priority_queue != 1:
            raise StageError(
                "plan", "heuristic policy requires queue 1 to be the priority queue"
            )
        out.append(name)
    return out


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


def test_matrices(etas: Dict[str, np.ndarray], zeta: float):
    """All ordered policy pairs for the Welch, Mann-Whitney and Student tests.

    One-sided alternatives throughout: the row policy's performance is
    hypothesised to be smaller (better) than the column policy's.
    """
    names = list(etas)
    welch_rows, mann_rows, student_rows, pearson_rows = [], [], [], []
    for a in names:
        for b in names:
            if a == b:
                continue
            w = welch_t_test(etas[a], etas[b], alternative="less")
            welch_rows.append([a, b, _fmt(w.statistic), _fmt(w.p_less),
                               str(w.reject_at(zeta))])
            u = mann_whitney_u(etas[a], etas[b], alternative="less")
            mann_rows.append([a, b, _fmt(u.details["u_xy"]), _fmt(u.p_less),
                              str(u.reject_at(zeta))])
            t = t_test_one_sample(etas[a] - etas[b], 0.0, alternative="less")
            student_rows.append([a, b, _fmt(t.statistic), _fmt(t.p_less),
                                 str(t.reject_at(zeta))])
            pearson_rows.append([a, b, _fmt(pearson_r(etas[a], etas[b]))])
    return welch_rows, mann_rows, student_rows, pearson_rows


def run_experiment(plan: ExperimentPlan) -> dict:
    """Screen, solve, simulate, test and report; returns the summary dict."""
    os.makedirs(plan.out_dir, exist_ok=True)
    summary = {"plan": {
        "scenario": plan.scenario, "policies": list(plan.policies),
        "rollouts": plan.rollouts, "horizon": plan.horizon, "seed": plan.seed,
        "zeta": plan.zeta,
    }}

    try:
        cfg = load_scenario(plan.scenario, plan.overrides)
    except Exception as exc:
        raise StageError("load", str(exc)) from exc

    try:
        screening = stage_screen(cfg)
    except Exception as exc:
        raise StageError("screen", str(exc)) from exc
    with open(os.path.join(plan.out_dir, "screening.json"), "w") as fh:
        json.dump(screening, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary["screening"] = screening

    policies = applicable_policies(cfg, plan.policies)

    try:
        tables, diag = solve_policies(cfg, [p for p in policies if p in MDP_POLICIES])
    except Exception as exc:
        raise StageError("solve", str(exc)) from exc
    for name, table in tables.items():
        export_policy_csv(table, cfg, plan.out_dir, name)
    summary["solve"] = diag

    try:
        etas = {}
        for k, name in enumerate(policies):
            pol = make_sim_policy(name, cfg, tables)
            etas[name] = sample_performance(
                cfg, pol, None, plan.seed, plan.horizon, plan.rollouts,
                shuffle_seed=plan.seed + 7919 * (k + 1),
            )
            _write_csv(
                os.path.join(plan.out_dir, f"eta_{name}.csv"), ["eta"],
                [[_fmt(v)] for v in etas[name]],
            )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc

    try:
        _write_csv(
            os.path.join(plan.out_dir, "summary_stats.csv"),
            ["policy", "mean", "std", "min", "max", "skewness", "kurtosis",
             "k2", "p", "normal"],
            [summary_row(name, etas[name], plan.zeta) for name in policies],
        )
        welch_rows, mann_rows, student_rows, pearson_rows = test_matrices(etas, plan.zeta)
        header = ["row_policy", "col_policy", "statistic", "p", "reject"]
        _write_csv(os.path.join(plan.out_dir, "welch.csv"), header, welch_rows)
        _write_csv(os.path.join(plan.out_dir, "mannwhitney.csv"), header, mann_rows)
        _write_csv(os.path.join(plan.out_dir, "student.csv"), header, student_rows)
        _write_csv(os.path.join(plan.out_dir, "pearson.csv"),
                   ["row_policy", "col_policy", "r"], pearson_rows)
    except Exception as exc:
        raise StageError("test", str(exc)) from exc
    summary["means"] = {name: float(etas[name].mean()) for name in policies}

    try:
        occupancy = {}
        cycle = analyze_limit_cycle(cfg)
        for name in policies:
            pol = make_sim_policy(name, cfg, tables)
            trace = simulate_trace(cfg, pol, plan.occupancy_horizon, seed=plan.seed)
            phi, _, _, _ = action_time_fractions(trace)
            freq, _, _ = embedded_stationary(trace)
            occupancy[name] = {
                "phi_idle": phi[IDLE],
                "phi_serve": phi[SERVE],
                "phi_switch": phi[SWITCH],
                "work_fraction": work_fraction(trace, cfg),
                "phi_star": limit_cycle_occupancy(freq, cycle),
            }
            _write_csv(
                os.path.join(plan.out_dir, f"freq_{name}.csv"),
                ["n1", "n2", "l1", "freq"],
                [[a, b, c, _fmt(f)] for (a, b, c), f in sorted(freq.items())],
            )
    except Exception as exc:
        raise StageError("occupancy", str(exc)) from exc
    summary["occupancy"] = occupancy

    with open(os.path.join(plan.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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

    p_sim = sub.add_parser("simulate", help="sample performance distributions")
    _add_common(p_sim)
    p_sim.add_argument("--policies", default="exhaustive")
    p_sim.add_argument("--rollouts", type=int, default=10000)
    p_sim.add_argument("--horizon", type=float, default=200.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="out")

    p_test = sub.add_parser("test", help="simulate and run the hypothesis-test matrices")
    _add_common(p_test)
    p_test.add_argument("--policies", default="smdp,ctmdp,exhaustive")
    p_test.add_argument("--rollouts", type=int, default=10000)
    p_test.add_argument("--horizon", type=float, default=200.0)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--zeta", type=float, default=0.05)
    p_test.add_argument("--out", default="out")

    p_run = sub.add_parser("run", help="full experiment bundle")
    _add_common(p_run)
    p_run.add_argument("--policies", default="smdp,ctmdp,exhaustive")
    p_run.add_argument("--rollouts", type=int, default=10000)
    p_run.add_argument("--horizon", type=float, default=200.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--zeta", type=float, default=0.05)
    p_run.add_argument("--occupancy-horizon", type=float, default=20000.0)
    p_run.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    overrides = _overrides(args)

    if args.command == "screen":
        cfg = load_scenario(args.scenario, overrides)
        doc = stage_screen(cfg, args.margin)
        print(f"rho1={doc['rho1']:.4f} rho2={doc['rho2']:.4f} rho={doc['rho']:.4f}")
        print(f"cycle kind: {doc['kind']}  alpha1={doc['alpha1']:.6f}")
        print(f"recommended bounds: X1 >= {doc['recommended_X1']}, "
              f"X2 >= {doc['recommended_X2']}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0

    if args.command == "solve":
        cfg = load_scenario(args.scenario, overrides)
        algo = args.algo or ("policy-iteration" if args.model == "smdp" else "value-iteration")
        if args.model == "smdp" and algo == "value-iteration":
            parser.error("value-iteration is available for the ctmdp model only")
        os.makedirs(args.out, exist_ok=True)
        tables, diag = solve_policies(cfg, [args.model], algo)
        paths = export_policy_csv(tables[args.model], cfg, args.out, args.model)
        print(f"solved {args.model} ({diag[args.model]}); wrote {', '.join(paths)}")
        return 0

    policies = tuple(s.strip() for s in args.policies.split(",") if s.strip())
    plan = ExperimentPlan(
        scenario=args.scenario,
        policies=policies,
        rollouts=args.rollouts,
        horizon=args.horizon,
        seed=args.seed,
        zeta=getattr(args, "zeta", 0.05),
        out_dir=args.out,
        occupancy_horizon=getattr(args, "occupancy_horizon", 20000.0),
        overrides=overrides,
    )

    if args.command == "simulate":
        cfg = load_scenario(plan.scenario, plan.overrides)
        names = applicable_policies(cfg, plan.policies)
        tables, _ = solve_policies(cfg, [p for p in names if p in MDP_POLICIES])
        os.makedirs(plan.out_dir, exist_ok=True)
        for k, name in enumerate(names):
            pol = make_sim_policy(name, cfg, tables)
            eta = sample_performance(
                cfg, pol, None, plan.seed, plan.horizon, plan.rollouts,
                shuffle_seed=plan.seed + 7919 * (k + 1),
            )
            path = os.path.join(plan.out_dir, f"eta_{name}.csv")
            _write_csv(path, ["eta"], [[_fmt(v)] for v in eta])
            print(f"{name}: mean={eta.mean():.3f} std={eta.std(ddof=1):.3f} -> {path}")
        return 0

    if args.command == "test":
        cfg = load_scenario(plan.scenario, plan.overrides)
        names = applicable_policies(cfg, plan.policies)
        tables, _ = solve_policies(cfg, [p for p in names if p in MDP_POLICIES])
        etas = {}
        for k, name in enumerate(names):
            pol = make_sim_policy(name, cfg, tables)
            etas[name] = sample_performance(
                cfg, pol, None, plan.seed, plan.horizon, plan.rollouts,
                shuffle_seed=plan.seed + 7919 * (k + 1),
            )
        os.makedirs(plan.out_dir, exist_ok=True)
        welch_rows, mann_rows, student_rows, pearson_rows = test_matrices(etas, plan.zeta)
        header = ["row_policy", "col_policy", "statistic", "p", "reject"]
        _write_csv(os.path.join(plan.out_dir, "welch.csv"), header, welch_rows)
        _write_csv(os.path.join(plan.out_dir, "mannwhitney.csv"), header, mann_rows)
        _write_csv(os.path.join(plan.out_dir, "student.csv"), header, student_rows)
        _write_csv(os.path.join(plan.out_dir, "pearson.csv"),
                   ["row_policy", "col_policy", "r"], pearson_rows)
        for row in welch_rows:
            print("welch", *row)
        return 0

    if args.command == "run":
        summary = run_experiment(plan)
        print(json.dumps(summary["means"], indent=2, sort_keys=True))
        print(f"bundle written to {plan.out_dir}")
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
