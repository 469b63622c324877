import json
import os

import numpy as np
import pytest

from pollsys.cli import (
    ExperimentPlan,
    StageError,
    load_scenario,
    main,
    run_experiment,
    solve_policies,
)

from conftest import slow_mode_config


@pytest.fixture
def tiny_scenario(tmp_path):
    # light-load priority-queue scenario whose limit cycle fits in a 5x5 box,
    # so a truncated policy cannot destabilise the long occupancy trace
    from pollsys import Exponential, ScenarioConfig

    cfg = ScenarioConfig(
        lambda1=0.8, lambda2=0.5,
        serve1=Exponential(4.0), serve2=Exponential(4.0),
        switch12=Exponential(2.0), switch21=Exponential(2.0),
        c1=2.0, c2=1.0, beta=0.05, X1=5, X2=5, N1=5, N2=5,
    )
    path = tmp_path / "tiny.json"
    cfg.save(path)
    return str(path)


def test_load_bundled_scenarios():
    asym = load_scenario("asym_var")
    assert asym.lambda1 == 0.8 and asym.X1 == 40 and asym.N1 == 35
    assert asym.serve2.mean() == pytest.approx(0.4)
    assert asym.switch12.mean() == pytest.approx(4.0)
    slow = load_scenario("slow_mode.json")
    assert slow.c1 == 2.0
    assert slow.serve1.mean() == pytest.approx(0.1)
    with pytest.raises(FileNotFoundError):
        load_scenario("missing_scenario")


def test_load_with_overrides(tiny_scenario):
    cfg = load_scenario(tiny_scenario, {"X1": 3, "X2": None})
    assert cfg.X1 == 3 and cfg.X2 == 5


def test_screen_command(tmp_path, capsys):
    out = tmp_path / "screen.json"
    rc = main(["screen", "--scenario", "slow_mode", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rho=0.3500" in text
    assert "truncated-bow-tie" in text
    doc = json.loads(out.read_text())
    assert doc["rho"] == pytest.approx(0.35)


def test_screen_rejects_unstable(tmp_path, capsys):
    cfg = slow_mode_config(lambda1=12.0, X1=3, X2=3, N1=3, N2=3)
    path = tmp_path / "bad.json"
    cfg.save(path)
    with pytest.raises(Exception, match="unstable"):
        main(["screen", "--scenario", str(path)])


def test_solve_command_smdp(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "solved"
    rc = main(["solve", "--scenario", tiny_scenario, "--model", "smdp",
               "--out", str(out)])
    assert rc == 0
    assert (out / "policy_smdp_q1.csv").exists()
    assert (out / "policy_smdp_q2.csv").exists()


def test_solve_command_ctmdp_value_iteration(tiny_scenario, tmp_path):
    out = tmp_path / "solved"
    rc = main(["solve", "--scenario", tiny_scenario, "--model", "ctmdp",
               "--algo", "value-iteration", "--out", str(out)])
    assert rc == 0
    lines = (out / "policy_ctmdp_q1.csv").read_text().strip().splitlines()
    assert lines[0] == "n1,n2,l1,action"
    assert len(lines) == 1 + 36


def test_solve_rejects_smdp_value_iteration(tiny_scenario):
    with pytest.raises(SystemExit):
        main(["solve", "--scenario", tiny_scenario, "--model", "smdp",
              "--algo", "value-iteration"])


def test_simulate_command(tiny_scenario, tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", tiny_scenario, "--policies",
               "exhaustive,heuristic", "--rollouts", "6", "--horizon", "30",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    eta = (out / "eta_exhaustive.csv").read_text().strip().splitlines()
    assert eta[0] == "eta" and len(eta) == 7
    assert (out / "eta_heuristic.csv").exists()


def test_test_command(tiny_scenario, tmp_path):
    out = tmp_path / "tests"
    rc = main(["test", "--scenario", tiny_scenario, "--policies",
               "exhaustive,heuristic", "--rollouts", "24", "--horizon", "30",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    for name in ("welch.csv", "mannwhitney.csv", "student.csv", "pearson.csv"):
        assert (out / name).exists()
    lines = (out / "welch.csv").read_text().strip().splitlines()
    assert lines[0] == "row_policy,col_policy,statistic,p,reject"
    assert len(lines) == 1 + 2  # two ordered pairs


def test_run_experiment_bundle_and_determinism(tiny_scenario, tmp_path):
    def bundle(out_dir):
        plan = ExperimentPlan(
            scenario=tiny_scenario,
            policies=("smdp", "exhaustive", "heuristic"),
            rollouts=10,
            horizon=25.0,
            seed=3,
            zeta=0.05,
            out_dir=str(out_dir),
            occupancy_horizon=400.0,
        )
        return run_experiment(plan)

    summary = bundle(tmp_path / "a")
    assert set(summary["means"]) == {"smdp", "exhaustive", "heuristic"}
    files = sorted(os.listdir(tmp_path / "a"))
    assert "screening.json" in files
    assert "summary_stats.csv" in files
    assert "eta_smdp.csv" in files
    assert "freq_exhaustive.csv" in files
    assert "policy_smdp_q1.csv" in files
    assert "summary.json" in files

    bundle(tmp_path / "b")
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} not reproducible"


def test_run_reject_flags_follow_stats(tmp_path, tiny_scenario):
    plan = ExperimentPlan(
        scenario=tiny_scenario,
        policies=("exhaustive", "heuristic"),
        rollouts=16,
        horizon=25.0,
        seed=5,
        out_dir=str(tmp_path / "o"),
        occupancy_horizon=300.0,
    )
    run_experiment(plan)
    rows = (tmp_path / "o" / "welch.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, _, _, p, reject = row.split(",")
        assert (float(p) <= 0.05) == (reject == "True")


def test_heuristic_requires_priority_queue(tmp_path):
    from conftest import asym_var_config

    cfg = asym_var_config(X1=4, X2=4, N1=4, N2=4)
    path = tmp_path / "sym.json"
    cfg.save(path)
    plan = ExperimentPlan(scenario=str(path), policies=("heuristic",),
                          rollouts=4, horizon=10.0, out_dir=str(tmp_path / "x"))
    with pytest.raises(StageError, match="priority"):
        run_experiment(plan)


def test_solve_policies_tables_cover_decision_box(tiny_scenario):
    cfg = load_scenario(tiny_scenario)
    tables, diag = solve_policies(cfg, ["smdp", "ctmdp"])
    for table in tables.values():
        assert table.shape == ((cfg.X1 + 1) * (cfg.X2 + 1) * 2,)
        assert np.all(table >= 0)
    assert diag["smdp"]["converged"] and diag["ctmdp"]["converged"]
