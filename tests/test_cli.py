import ast
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from pollsys import cli, ctmdp, smdp, solver
from pollsys.cli import (
    ExperimentPlan,
    StageError,
    load_scenario,
    main,
    run_experiment,
    solve_policies,
)
from pollsys.baselines import exhaustive_start
from pollsys.ctmdp import build_nonpreemptive
from pollsys.distributions import Deterministic, Exponential
from pollsys.model import EVENTS, ScenarioError
from pollsys.simulate import decouple, largest_seed, sample_performance
from pollsys.stats import mann_whitney_u, pearson_r, t_test_one_sample, welch_t_test
from pollsys.smdp import build_smdp

from conftest import asym_var_config, dense_policy_iteration, exp_config, slow_mode_config


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


@pytest.mark.parametrize("margin", ["nan", "inf", "0", "-1"])
def test_screen_rejects_a_margin_not_finite_and_positive(margin):
    with pytest.raises(StageError, match=r"^\[screen\] margin must be finite and > 0, got "
                                         rf"{float(margin)!r}$"):
        main(["screen", "--scenario", "slow_mode", "--margin", margin])


def test_screen_rejects_a_margin_whose_bounds_overflow():
    with pytest.raises(StageError, match=r"^\[screen\] margin 1e\+308 times the cycle's extent "
                                         r"is not finite$"):
        main(["screen", "--scenario", "slow_mode", "--margin", "1e308"])


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


def test_solve_command_prints_value_iteration_bound(tmp_path, capsys, monkeypatch):
    """The printed residual and error bound are value_iterate's, an infinite
    bound is reported as None, and a policy iteration entry keeps its four
    keys, counts its float64 factorisations and names its start."""
    plan = ["--scenario", "slow_mode", "--X1", "8", "--X2", "8", "--N1", "8", "--N2", "8"]
    main(["solve", *plan, "--model", "ctmdp", "--out", str(tmp_path)])
    text = capsys.readouterr().out
    printed = ast.literal_eval(text[text.index("{"):text.index("}") + 1])
    cfg = load_scenario("slow_mode", {"X1": 8, "X2": 8, "N1": 8, "N2": 8})
    pol = solver.value_iterate(solver.build_value_graph(
        build_nonpreemptive(cfg.with_exponential_durations())))
    assert printed["residual"] == pol.residual
    assert printed["error_bound"] == pol.error_bound
    assert 0 < pol.residual < pol.error_bound < np.inf
    _, diag = solve_policies(cfg, ["smdp"])
    assert set(diag["smdp"]) == {"iterations", "converged", "changes", "factorizations",
                                 "float64_factorizations", "start"}
    monkeypatch.setattr(cli, "value_iterate", lambda graph: replace(pol, error_bound=np.inf))
    _, diag = solve_policies(cfg, ["ctmdp"])
    assert diag["ctmdp"]["error_bound"] is None


def _fresh_python(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter that
    imports this pollsys."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_numpy_random():
    """The simulator makes its Philox key class on first use, so importing
    the CLI leaves ``numpy.random``, about 17 ms of import, unloaded."""
    script = "import sys, pollsys.cli; print('numpy.random' in sys.modules)"
    assert _fresh_python(script).strip() == "False"


def test_screen_and_ctmdp_solve_load_no_special_or_linalg(tmp_path):
    """screen imports no scipy module, and the CTMDP solve never imports
    scipy.special, scipy.linalg or scipy.sparse.linalg; the SMDP solve,
    which does, then writes the tables of an in-process solve.  The test
    command keeps its own closed forms, so it never imports scipy.stats
    (0.66-0.72 s on its own).  The test modules import scipy.stats, so the
    check runs in a fresh interpreter."""
    plan = ["--scenario", "slow_mode", "--X1", "8", "--X2", "8", "--N1", "8", "--N2", "8"]
    tiny = ["--scenario", "slow_mode", "--X1", "4", "--X2", "4", "--N1", "4", "--N2", "4",
            "--policies", "smdp,exhaustive", "--rollouts", "30", "--horizon", "20"]
    script = f"""
import json, sys
from pollsys import cli

def loaded(*heavy):
    print("loaded", json.dumps(sorted(
        m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy))))

plan = {plan!r}
cli.main(["screen", *plan])
loaded("scipy")
cli.main(["solve", *plan, "--model", "ctmdp", "--out", {str(tmp_path / "ctmdp")!r}])
loaded("scipy.special", "scipy.linalg", "scipy.sparse.linalg")
cli.main(["solve", *plan, "--model", "smdp", "--out", {str(tmp_path / "fresh")!r}])
cli.main(["test", *{tiny!r}, "--out", {str(tmp_path / "test")!r}])
loaded("scipy.stats")
"""
    out = _fresh_python(script)
    reports = [json.loads(line[7:]) for line in out.splitlines() if line.startswith("loaded ")]
    assert reports == [[], [], []]
    main(["solve", *plan, "--model", "smdp", "--out", str(tmp_path / "in_process")])
    for loc in ("q1", "q2"):
        name = f"policy_smdp_{loc}.csv"
        fresh, in_process = (tmp_path / d / name for d in ("fresh", "in_process"))
        assert fresh.read_bytes() == in_process.read_bytes()


def test_paper_scale_module_imports_without_a_build_or_solve(monkeypatch):
    """tests/paper_scale.py reads tier-1's helpers by name, so renaming one
    fails here, not only in the paper-scale run; importing it builds and
    solves nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("importing paper_scale built or solved a model")

    for module, name in ((cli, "solve_policies"), (smdp, "build_smdp"),
                         (ctmdp, "build_nonpreemptive")):
        monkeypatch.setattr(module, name, refuse)
    # a fresh import; teardown undoes both deletions in reverse order, so
    # sys.modules ends as it was
    monkeypatch.delitem(sys.modules, "paper_scale", raising=False)
    paper_scale = importlib.import_module("paper_scale")
    monkeypatch.delitem(sys.modules, "paper_scale")
    assert paper_scale.SCENARIOS == ("slow_mode", "asym_var")


def test_solve_command_smdp_value_iteration(tiny_scenario, tmp_path):
    """Value iteration on the SMDP writes the policy-iteration table."""
    for algo in ("policy-iteration", "value-iteration"):
        rc = main(["solve", "--scenario", tiny_scenario, "--model", "smdp",
                   "--algo", algo, "--out", str(tmp_path / algo)])
        assert rc == 0
    for loc in ("q1", "q2"):
        name = f"policy_smdp_{loc}.csv"
        vi = (tmp_path / "value-iteration" / name).read_text()
        assert vi == (tmp_path / "policy-iteration" / name).read_text()
        assert len(vi.strip().splitlines()) == 1 + 36


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


def _without_arrivals(scenario, tmp_path, *zero):
    """A copy of the scenario file ``scenario`` with the rates ``zero`` at 0."""
    with open(scenario) as fh:
        doc = json.load(fh)
    doc.update(dict.fromkeys(zero, 0.0))
    path = tmp_path / f"{'_'.join(zero)}_zero.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_test_command_without_class_one_arrivals(tiny_scenario, tmp_path):
    """A silent class 1 beside class 2 arrivals samples and tests."""
    out = tmp_path / "tests"
    assert main(["test", "--scenario", _without_arrivals(tiny_scenario, tmp_path, "lambda1"),
                 "--policies", "smdp,exhaustive", "--rollouts", "24", "--horizon", "30",
                 "--seed", "1", "--out", str(out)]) == 0
    for name in ("welch.csv", "mannwhitney.csv", "student.csv", "pearson.csv"):
        assert len((out / name).read_text().strip().splitlines()) == 1 + 2


def test_run_without_arrivals_fails_before_any_file(tiny_scenario, tmp_path):
    """Without arrivals an idle step lasts for ever, so a run, whose
    occupancy stage traces one, fails in the plan stage before it writes
    anything; simulate and test still sample such a scenario."""
    path = _without_arrivals(tiny_scenario, tmp_path, "lambda1", "lambda2")
    plan = ["--scenario", path, "--policies", "smdp,exhaustive", "--rollouts", "4",
            "--horizon", "10"]
    out = tmp_path / "run"
    with pytest.raises(StageError, match=r"^\[plan\] lambda1 = lambda2 = 0: the occupancy "
                                         r"stage needs an arrival to end an idle step$"):
        main(["run", *plan, "--out", str(out)])
    assert not out.exists()
    for command in ("simulate", "test"):
        assert main([command, *plan, "--out", str(tmp_path / command)]) == 0


def test_paired_tests_read_the_samples_in_seed_order(tiny_scenario, tmp_path):
    """Student's test of the differences and Pearson's r pair the policies'
    rollouts of one seed, which share its common random numbers; Welch's
    and Mann-Whitney's independent-sample tests read the decoupled ones.
    Policies equal on every seed get a Student row of NaNs."""
    names = ("exhaustive", "heuristic")
    # slow service and a cheap queue 2: the heuristic's served flag matters
    flag = exp_config(lambda1=0.3, lambda2=0.1, serve1=Exponential(1.0),
                      serve2=Exponential(1.0), c2=0.2)
    flag.save(tmp_path / "flag.json")
    for scenario, out in ((str(tmp_path / "flag.json"), tmp_path / "flag"),
                          (tiny_scenario, tmp_path / "tiny")):
        assert main(["test", "--scenario", scenario, "--policies", ",".join(names),
                     "--rollouts", "24", "--horizon", "30", "--seed", "1",
                     "--out", str(out)]) == 0
    cfg = load_scenario(str(tmp_path / "flag.json"))
    paired = sample_performance(cfg, [cli.make_sim_policy(n, cfg, {}) for n in names],
                                None, 1, 30.0, 24)
    etas = decouple(paired, 1)
    stats = {
        "student.csv": lambda a, b: t_test_one_sample(paired[a] - paired[b], 0.0).statistic,
        "pearson.csv": lambda a, b: pearson_r(paired[a], paired[b]),
        "welch.csv": lambda a, b: welch_t_test(etas[a], etas[b]).statistic,
        "mannwhitney.csv": lambda a, b: mann_whitney_u(
            etas[a], etas[b]).details["u_xy"],
    }
    for name, stat in stats.items():
        rows = [line.split(",") for line in (tmp_path / "flag" / name).read_text().splitlines()]
        assert [row[:3] for row in rows[1:]] == [[names[a], names[b], cli._fmt(stat(a, b))]
                                                 for a, b in ((0, 1), (1, 0))], name
    assert pearson_r(*paired) > 0.5 > abs(pearson_r(*etas))
    # in the tiny scenario the two policies act alike in every rollout
    student = (tmp_path / "tiny" / "student.csv").read_text().splitlines()[1:]
    assert student == ["exhaustive,heuristic,nan,nan,False", "heuristic,exhaustive,nan,nan,False"]
    assert (tmp_path / "tiny" / "pearson.csv").read_text().splitlines()[1:] == [
        "exhaustive,heuristic,1.0", "heuristic,exhaustive,1.0"]


def test_paired_tests_of_policies_that_differ(tiny_scenario, tmp_path):
    """With switching costs the SMDP's table leaves the exhaustive rule's on
    the tiny scenario: each pair of policies whose samples differ gets a
    finite Student t and p and a Pearson r strictly inside (-1, 1), and each
    equal pair keeps the Student row of NaNs that does not reject."""
    names = ["smdp", "ctmdp", "exhaustive", "heuristic"]
    cfg = replace(load_scenario(tiny_scenario), K12=2.0, K21=2.0)
    cfg.save(tmp_path / "costly.json")
    assert main(["run", "--scenario", str(tmp_path / "costly.json"),
                 "--policies", ",".join(names), "--rollouts", "24", "--horizon", "30",
                 "--seed", "1", "--occupancy-horizon", "2000",
                 "--out", str(tmp_path / "out")]) == 0
    tables, _ = solve_policies(cfg, ["smdp", "ctmdp"])
    paired = sample_performance(cfg, [cli.make_sim_policy(n, cfg, tables) for n in names],
                                None, 1, 30.0, 24)
    rows = {name: {tuple(line.split(",")[:2]): line.split(",")[2:]
                   for line in (tmp_path / "out" / name).read_text().splitlines()[1:]}
            for name in ("student.csv", "pearson.csv")}
    differing = 0
    for a, b in itertools.permutations(range(len(names)), 2):
        pair = (names[a], names[b])
        t, p, reject = rows["student.csv"][pair]
        if np.array_equal(paired[a], paired[b]):
            assert [t, p, reject] == ["nan", "nan", "False"], pair
            continue
        differing += 1
        assert np.isfinite(float(t)) and 0.0 <= float(p) <= 1.0, pair
        assert -1.0 < float(rows["pearson.csv"][pair][0]) < 1.0, pair
    assert differing == 6  # smdp against each of the other three, both ways


def test_simulate_and_test_write_the_run_files(tiny_scenario, tmp_path):
    """With one plan, the three commands write the same bytes for the files
    they share."""
    plan = ["--scenario", tiny_scenario, "--policies", "smdp,ctmdp,exhaustive,heuristic",
            "--rollouts", "24", "--horizon", "30", "--seed", "1"]
    for command in ("run", "simulate", "test"):
        extra = ["--occupancy-horizon", "300"] if command == "run" else []
        assert main([command, *plan, *extra, "--out", str(tmp_path / command)]) == 0
    etas = [f"eta_{p}.csv" for p in ("smdp", "ctmdp", "exhaustive", "heuristic")]
    tests = ["welch.csv", "mannwhitney.csv", "student.csv", "pearson.csv"]
    for command, names in (("simulate", etas), ("test", tests)):
        assert sorted(os.listdir(tmp_path / command)) == sorted(names)
        for name in names:
            assert (tmp_path / command / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), f"{command} {name}"


@pytest.mark.parametrize("command", ["simulate", "test", "run"])
def test_unstable_scenario_fails_in_a_named_stage(tmp_path, command):
    cfg = slow_mode_config(lambda1=12.0, X1=3, X2=3, N1=3, N2=3)
    path = tmp_path / "bad.json"
    cfg.save(path)
    with pytest.raises(StageError, match=r"^\[(plan|screen)\] unstable") as info:
        main([command, "--scenario", str(path), "--rollouts", "4",
              "--out", str(tmp_path / "o")])
    assert info.value.stage == ("screen" if command == "run" else "plan")


def _no_solve(*args, **kwargs):
    raise AssertionError("solve stage reached")


def test_repeated_policy_rejected_in_plan_stage(tiny_scenario, tmp_path, monkeypatch):
    """A repeated name stops run and run_experiment before any solve or file."""
    monkeypatch.setattr(cli, "solve_policies", _no_solve)
    out = tmp_path / "o"
    with pytest.raises(StageError, match=r"^\[plan\] policy 'exhaustive' is listed more"):
        main(["run", "--scenario", tiny_scenario, "--policies", "exhaustive,exhaustive",
              "--out", str(out)])
    plan = ExperimentPlan(scenario=tiny_scenario, policies=("smdp", "exhaustive", "smdp"),
                          out_dir=str(out))
    with pytest.raises(StageError, match=r"^\[plan\] policy 'smdp' is listed more") as info:
        run_experiment(plan)
    assert info.value.stage == "plan"
    assert not out.exists()


def test_screen_fails_in_a_named_stage(tmp_path):
    with pytest.raises(StageError, match=r"^\[load\] scenario 'missing_scenario'"):
        main(["screen", "--scenario", "missing_scenario"])
    cfg = slow_mode_config(lambda1=12.0, X1=3, X2=3, N1=3, N2=3)
    cfg.save(tmp_path / "bad.json")
    with pytest.raises(StageError, match=r"^\[screen\] unstable") as info:
        main(["screen", "--scenario", str(tmp_path / "bad.json")])
    assert info.value.stage == "screen"


@pytest.mark.parametrize("field, value, message", [
    ("c1", float("nan"), "c1 must be finite, got nan"),
    ("X1", 6.5, "X1 must be an integer, got 6.5"),
    ("c1", "1.0", "c1 must be a finite number, got '1.0'"),
    ("serve1", {"kind": "gamma", "shape": "30", "scale": 0.1},
     "gamma shape/scale must be finite numbers > 0, got '30', 0.1"),
    ("switch12", {"kind": "deterministic", "value": float("inf")},
     "deterministic duration must be a finite number >= 0, got inf"),
    ("serve1", {"kind": "exponential"}, "an exponential duration takes ['rate'], got []"),
    ("switch12", 0.5, "a duration must be an object with a kind, got 0.5"),
    ("serve2", {"kind": "exponential", "rate": 2.0, "scale": 1},
     "an exponential duration takes ['rate'], got ['rate', 'scale']"),
    ("switch21", {"shape": 2.0, "scale": 1.0},
     "unknown duration kind None, expected one of ['deterministic', 'exponential', 'gamma']"),
])
def test_edge_input_fails_in_load_stage(tmp_path, field, value, message):
    """A duration's error follows its event's name."""
    doc = slow_mode_config().to_json()
    doc[field] = value
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    prefix = f"{field}: " if field in EVENTS else ""
    with pytest.raises(StageError, match=r"^\[load\] " + re.escape(prefix + message)) as info:
        main(["screen", "--scenario", str(path)])
    assert info.value.stage == "load"


SLOW_MODE_DOC = slow_mode_config().to_json()


@pytest.mark.parametrize("doc, message", [
    ({k: v for k, v in SLOW_MODE_DOC.items() if k != "serve1"},
     "missing scenario field(s) ['serve1']"),
    ([SLOW_MODE_DOC], "a scenario must be a JSON object, got list"),
    ({**SLOW_MODE_DOC, "lambda3": 1.0}, "unknown scenario field(s) ['lambda3']"),
], ids=["missing-serve1", "list", "unknown-field"])
def test_malformed_scenario_fails_in_load_stage(tmp_path, doc, message):
    """The document's shape is checked before the overrides apply to it."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=r"^\[load\] " + re.escape(message)):
        main(["screen", "--scenario", str(path), "--X1", "8"])


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--rollouts", "1"], "--rollouts must be >= 2, got 1"),
    (["--horizon", "0"], "--horizon must be finite and > 0, got 0.0"),
    (["--horizon", "nan"], "--horizon must be finite and > 0, got nan"),
    (["--horizon", "inf"], "--horizon must be finite and > 0, got inf"),
    (["--occupancy-horizon", "0"], "--occupancy-horizon must be finite and > 0, got 0.0"),
    (["--policies", "foo"], "unknown policy 'foo' in --policies"),
    (["--policies", ","], "--policies names no policy"),
    (["--zeta", "2"], "--zeta must lie strictly between 0 and 1, got 2.0"),
    (["--zeta", "nan"], "--zeta must lie strictly between 0 and 1, got nan"),
])
def test_invalid_plan_fails_before_any_file(tiny_scenario, tmp_path, flags, message):
    out = tmp_path / "o"
    out.mkdir()
    with pytest.raises(StageError, match=r"^\[plan\] " + re.escape(message)):
        main(["run", "--scenario", tiny_scenario, "--policies", "exhaustive",
              "--rollouts", "4", "--horizon", "10", "--occupancy-horizon", "50", *flags,
              "--out", str(out)])
    assert list(out.iterdir()) == []


def test_largest_seed_runs_and_the_next_fails_before_any_file(tiny_scenario, tmp_path):
    """Every seed a run derives keys a Philox stream: the samples' seeds
    and `decouple`'s.  The largest seed allowed writes a full bundle; the
    next fails in the plan stage, naming the bound, before any file."""
    top = largest_seed(4, 2)
    assert top == 2**122 - 1 - 2 * 7919
    plan = ["run", "--scenario", tiny_scenario, "--policies", "exhaustive,heuristic",
            "--rollouts", "4", "--horizon", "10", "--occupancy-horizon", "50"]
    assert main([*plan, "--seed", str(top), "--out", str(tmp_path / "top")]) == 0
    assert json.loads((tmp_path / "top" / "summary.json").read_text())["plan"]["seed"] == top
    assert (tmp_path / "top" / "freq_heuristic.csv").exists()
    out = tmp_path / "past"
    out.mkdir()
    with pytest.raises(StageError, match=rf"^\[plan\] --seed must be <= {top} for --rollouts 4 "
                                         rf"and --policies naming 2, got {top + 1}$"):
        main([*plan, "--seed", str(top + 1), "--out", str(out)])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("zero", ["lambda1", "lambda2"])
def test_screen_rejects_one_zero_arrival_rate(tmp_path, zero):
    """One zero arrival rate beside a positive one has no fluid limit cycle
    and fails the screen stage naming the rate; both at zero still screen."""
    doc = slow_mode_config().to_json()
    doc[zero] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StageError, match=rf"^\[screen\] {zero} is 0 beside a positive"):
        main(["screen", "--scenario", str(path)])
    doc["lambda1"] = doc["lambda2"] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["screen", "--scenario", str(path)]) == 0


def test_solve_fails_in_a_named_stage(tiny_scenario, tmp_path, monkeypatch):
    out = tmp_path / "solved"
    with pytest.raises(StageError, match=r"^\[load\] scenario 'missing_scenario'"):
        main(["solve", "--scenario", "missing_scenario", "--out", str(out)])
    monkeypatch.setattr(cli, "solve_policies", _no_solve)
    with pytest.raises(StageError, match=r"^\[solve\] solve stage reached") as info:
        main(["solve", "--scenario", tiny_scenario, "--out", str(out)])
    assert info.value.stage == "solve"
    assert not out.exists()


def _unconverged(monkeypatch, *names):
    """Make the named solvers, as the cli module calls them, report that
    they stopped at their iteration cap."""
    for name in names:
        solve = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, solve=solve, **kw:
                            replace(solve(*args, **kw), converged=False))


@pytest.mark.parametrize("model, message", [
    ("ctmdp", r"ctmdp: value iteration stopped after \d+ sweeps without converging"),
    ("smdp", r"smdp: policy iteration stopped after \d+ iterations without converging"),
], ids=["ctmdp", "smdp"])
def test_unconverged_solve_is_rejected(tiny_scenario, tmp_path, monkeypatch, model, message):
    _unconverged(monkeypatch, "value_iterate", "policy_iteration")
    out = tmp_path / "solved"
    with pytest.raises(StageError, match=rf"^\[solve\] {message}$"):
        main(["solve", "--scenario", tiny_scenario, "--model", model, "--out", str(out)])
    assert not list(tmp_path.rglob("policy_*.csv"))


def test_unconverged_loose_warm_start_is_accepted(tiny_scenario, tmp_path, monkeypatch):
    """The SMDP solved alone seeds policy iteration with a loose value
    iteration; only its actions are used, so its convergence is not checked."""
    _unconverged(monkeypatch, "value_iterate")
    out = tmp_path / "solved"
    assert main(["solve", "--scenario", tiny_scenario, "--model", "smdp",
                 "--out", str(out)]) == 0
    assert (out / "policy_smdp_q1.csv").exists() and (out / "policy_smdp_q2.csv").exists()


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


def _exhaustive_pi_table(cfg):
    """The SMDP table of policy iteration from the exhaustive start, and its
    iteration count: the oracle of every warm start."""
    model = build_smdp(cfg)
    pol = solver.policy_iteration(model, exhaustive_start(model))
    return model.decision_table(pol.actions), pol.iterations


def _recording_pi(monkeypatch):
    """Record the start of every policy iteration the CLI runs."""
    real_pi, starts = cli.policy_iteration, []

    def recording_pi(model, pi0=None, **kw):
        starts.append(np.array(pi0))
        return real_pi(model, pi0, **kw)

    monkeypatch.setattr(cli, "policy_iteration", recording_pi)
    return starts


def test_two_model_solve_starts_smdp_from_ctmdp_table():
    """With both models requested, SMDP policy iteration starts from the
    CTMDP table and reaches the exhaustive start's table in fewer
    iterations; the keys keep their order."""
    cfg = slow_mode_config(X1=12, X2=12, N1=12, N2=12)
    oracle, oracle_iterations = _exhaustive_pi_table(cfg)
    for which in (["smdp", "ctmdp"], ["ctmdp", "smdp"]):
        tables, diag = solve_policies(cfg, which)
        assert list(tables) == list(diag) == ["smdp", "ctmdp"]
        assert tables["smdp"].tobytes() == oracle.tobytes()
        assert diag["smdp"]["iterations"] < oracle_iterations
        assert diag["smdp"]["start"] == "ctmdp"


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
@pytest.mark.parametrize("X", [8, 12])
def test_smdp_alone_starts_from_loose_uniformised_table(monkeypatch, make_cfg, X):
    """An SMDP-only solve starts policy iteration from the table of a value
    iteration on the uniformised model stopped at WARM_START_EPS * max cost
    and reaches the exhaustive start's table."""
    cfg = make_cfg(X1=X, X2=X, N1=X, N2=X)
    np_model = build_nonpreemptive(cfg.with_exponential_durations())
    graph = solver.build_value_graph(np_model)
    loose = solver.value_iterate(graph, eps=cli.WARM_START_EPS * np.abs(graph.q_cost).max())
    starts = _recording_pi(monkeypatch)
    tables, diag = solve_policies(cfg, ["smdp"])
    assert len(starts) == 1 and np.array_equal(starts[0], np_model.decision_table(loose.actions))
    assert diag["smdp"]["start"] == "ctmdp"
    assert tables["smdp"].tobytes() == _exhaustive_pi_table(cfg)[0].tobytes()


@pytest.mark.parametrize("truncation", ["absorbing", "unassigned"])
@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
@pytest.mark.parametrize("X", [1, 8])
def test_uniformised_tables_are_feasible_in_the_smdp(make_cfg, truncation, X):
    """The loose and the converged uniformised tables take a feasible SMDP
    action at every state, so either starts SMDP policy iteration as it is:
    both models forbid serving only at an empty current queue."""
    cfg = make_cfg(X1=X, X2=X, N1=X, N2=X, truncation_mode=truncation)
    graph = build_smdp(cfg).graph
    converged = solve_policies(cfg, ["ctmdp"])[0]["ctmdp"]
    for table in (cli._loose_ctmdp_table(cfg), converged):
        assert len(solver._policy_nodes(graph, table)) == graph.n_states


def test_ctmdp_with_zero_mean_duration_names_the_event():
    """A zero mean duration has no uniformised model, so solving the CTMDP
    fails naming the event; the SMDP alone still solves
    (test_smdp_alone_with_zero_mean_switch_over)."""
    cfg = slow_mode_config(X1=4, X2=4, N1=4, N2=4, switch12=Deterministic(0.0))
    with pytest.raises(ScenarioError, match="switch12 has mean duration 0.0"):
        solve_policies(cfg, ["smdp", "ctmdp"])


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_smdp_solve_matches_float64_policy_iteration(make_cfg):
    """The SMDP solve, float32 factors refined in float64, gives the table of
    a plain float64 dense policy iteration from the exhaustive start."""
    cfg = make_cfg(X1=12, X2=12, N1=12, N2=12)
    model = build_smdp(cfg)
    oracle = model.decision_table(dense_policy_iteration(model, exhaustive_start(model)))
    tables, diag = solve_policies(cfg, ["smdp"])
    assert tables["smdp"].tobytes() == oracle.tobytes()
    assert diag["smdp"]["float64_factorizations"] == 0


def test_smdp_alone_with_zero_mean_switch_over():
    """A zero mean duration has no uniformised model either: one zero
    switch-over solves from the exhaustive start, and two still raise the
    singular-system error of their undiscounted switching cycle."""
    cfg = slow_mode_config(X1=8, X2=8, N1=8, N2=8, switch12=Deterministic(0.0))
    tables, diag = solve_policies(cfg, ["smdp"])
    assert diag["smdp"]["start"] == "exhaustive"
    assert tables["smdp"].tobytes() == _exhaustive_pi_table(cfg)[0].tobytes()
    with pytest.raises(solver.SingularSystemError):
        solve_policies(replace(cfg, switch21=Deterministic(0.0)), ["smdp"])
