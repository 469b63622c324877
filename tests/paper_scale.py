"""Paper-scale checks: tier-1's properties on the bundled scenarios at
X=40, N=35 (the CLI bundle at X=24), each through the tier-1 helper that
tests the same property at small X.  The file name keeps them out of
tier-1's collection; run them with

    python -m pytest -q -W error --durations=15 tests/paper_scale.py

Each scenario's models are built, and both of its decision models solved
as `pollsys run` solves them, once per module run (the module-scoped
fixtures).  The CLI checks write into ``tmp_path`` and compare bytes.
"""

import dataclasses
import functools

import numpy as np
import pytest

from pollsys import solver
from pollsys.baselines import exhaustive_start
from pollsys.cli import MDP_POLICIES, load_scenario, main, make_sim_policy, solve_policies
from pollsys.ctmdp import build_nonpreemptive
from pollsys.model import validate_scenario
from pollsys.smdp import build_smdp
from pollsys.solver import policy_iteration

from conftest import dense_policy_iteration, oracle_summaries
from test_ctmdp import exponential_oracle_differences
from test_simulate import assert_batch_equals_rollouts, assert_trace_equals_oracle, record_blocks
from test_solver import assert_matches_segment_minimum

SCENARIOS = ("slow_mode", "asym_var")
PAPER = {"X1": 40, "X2": 40, "N1": 35, "N2": 35}
PAPER_FLAGS = ["--X1", "40", "--X2", "40", "--N1", "35", "--N2", "35"]
BUNDLE_FLAGS = ["--X1", "24", "--X2", "24", "--N1", "20", "--N2", "20"]


def paper_config(scenario, variant=""):
    """The bundled scenario at X=40, N=35: as it is (""), with one arrival
    rate at 0 ("lambda1", "lambda2") or with both rates at a tenth ("tenth")."""
    cfg = load_scenario(scenario, PAPER)
    if variant == "tenth":
        return dataclasses.replace(cfg, lambda1=cfg.lambda1 / 10, lambda2=cfg.lambda2 / 10)
    if variant:
        return dataclasses.replace(cfg, **{variant: 0.0})
    return cfg


def rule_names(cfg):
    """The rule policies that apply: the heuristic needs queue 1 as the
    priority queue."""
    names = ["exhaustive"]
    if validate_scenario(cfg).priority_queue == 1:
        names.append("heuristic")
    return names


def written(directory):
    """File name -> bytes of every file a command wrote into ``directory``."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture(scope="module")
def solved():
    """(scenario, variant) -> (cfg, tables) of `paper_config`, both decision
    models solved by one `solve_policies` call, the one `pollsys run` makes."""
    @functools.cache
    def solve(scenario, variant):
        cfg = paper_config(scenario, variant)
        return cfg, solve_policies(cfg, MDP_POLICIES)[0]
    return solve


@pytest.fixture(scope="module")
def smdp_model():
    """scenario -> its SMDP at X=40, N=35 on the closed-form lattice."""
    return functools.cache(lambda scenario: build_smdp(paper_config(scenario)))


def test_bundle_reproducible_and_simulate_and_test_write_its_bytes(tmp_path):
    """simulate, test and run share one pipeline: a rerun of the bundle is
    byte-identical, and simulate and test write the run's bytes."""
    plan = ["--scenario", "slow_mode", *BUNDLE_FLAGS, "--policies",
            "smdp,ctmdp,exhaustive,heuristic", "--rollouts", "100", "--seed", "3"]
    for run in ("run_a", "run_b"):
        main(["run", *plan, "--occupancy-horizon", "2000", "--out", str(tmp_path / run)])
    bundle = written(tmp_path / "run_a")
    assert written(tmp_path / "run_b") == bundle
    for command, names in (
            ("simulate", ["eta_smdp", "eta_ctmdp", "eta_exhaustive", "eta_heuristic"]),
            ("test", ["welch", "mannwhitney", "student", "pearson"])):
        main([command, *plan, "--out", str(tmp_path / command)])
        assert written(tmp_path / command) == {f"{n}.csv": bundle[f"{n}.csv"] for n in names}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_ctmdp_value_and_policy_iteration_write_one_table(scenario, tmp_path):
    """The benchmark checks the CTMDP table at X=8 only; at paper scale
    value iteration must still stop on the table exact policy iteration
    finds."""
    plan = ["solve", "--scenario", scenario, *PAPER_FLAGS, "--model", "ctmdp"]
    main([*plan, "--out", str(tmp_path / "vi")])
    main([*plan, "--algo", "policy-iteration", "--out", str(tmp_path / "pi")])
    assert written(tmp_path / "vi") == written(tmp_path / "pi")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_ctmdp_value_iteration_equals_segment_minimum_oracle(scenario):
    """value_iterate measures a sweep's largest change in full only on a
    sweep that could stop, at X=40 about twice per solve; the stop sweep,
    values, residual and actions must still be the oracle's, at the default
    eps, at the warm start's and at a maxiter below the stop sweep."""
    cfg = paper_config(scenario).with_exponential_durations()
    assert_matches_segment_minimum(build_nonpreemptive(cfg).graph)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_exponential_oracle_tables_agree_inside_the_cap(scenario):
    """With every duration exponential the SMDP and the CTMDP are one
    decision problem away from the cap (ROADMAP item 3): their tables agree
    on every state with max(n1, n2) <= X - 8.  Tier-1's X=24 check is a
    strict xfail on slow_mode."""
    assert exponential_oracle_differences(scenario, 40, 35) == []


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_smdp_tables_from_closed_form_and_oracle_lattices_equal(scenario, smdp_model):
    """The SMDP built on the closed-form lattice and on the uniformised
    sum of the birth-process generator, each solved by policy iteration
    from the exhaustive start, give one table."""
    closed = smdp_model(scenario)
    oracle = build_smdp(closed.cfg, oracle_summaries(closed.cfg))
    tables = [m.decision_table(policy_iteration(m, exhaustive_start(m)).actions)
              for m in (closed, oracle)]
    assert np.array_equal(*tables)


@pytest.mark.parametrize("truncation", ["absorbing", "unassigned"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_smdp_value_and_policy_iteration_write_one_table(scenario, truncation, tmp_path):
    """Value iteration also solves the semi-Markov graph, whose entries each
    carry their own discount and whose rows are sub-stochastic under the
    unassigned truncation; it must stop on policy iteration's table."""
    plan = ["solve", "--scenario", scenario, "--truncation", truncation, *BUNDLE_FLAGS,
            "--model", "smdp"]
    main([*plan, "--algo", "value-iteration", "--out", str(tmp_path / "vi")])
    main([*plan, "--out", str(tmp_path / "pi")])
    assert written(tmp_path / "vi") == written(tmp_path / "pi")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_smdp_warm_starts_reach_dense_float64_policy_iteration(scenario, smdp_model, solved):
    """SMDP policy iteration starts from the uniformised model's table, a
    loose value iteration's when the SMDP is solved alone and the solved one
    when both models are; both stop on the table that plain float64 policy
    iteration from the exhaustive start reaches."""
    model = smdp_model(scenario)
    want = model.decision_table(dense_policy_iteration(model, exhaustive_start(model)))
    cfg, both = solved(scenario, "")
    alone, _ = solve_policies(cfg, ["smdp"])
    assert np.array_equal(alone["smdp"], want)
    assert np.array_equal(both["smdp"], want)


@pytest.mark.parametrize("variant, T", [
    ("", 200.0),
    # a class without arrivals draws endless gaps; T=400 keeps the fewer
    # draws outgrowing a block
    ("lambda1", 400.0), ("lambda2", 400.0),
    # 35% (slow_mode) and 26% (asym_var) of the steps idle against 21% and
    # 1.5% as bundled; at T=200 the rows would stay in one block
    ("tenth", 2000.0),
])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batch_sampler_equals_scalar_rollouts(scenario, variant, T, solved, monkeypatch):
    """The pre-drawn rows grow past their first block, and the lockstep
    batch still equals the scalar rollouts bit for bit for every applicable
    policy, at seed 0 and at the top of the seed range, where each Philox
    key needs its high word."""
    cfg, tables = solved(scenario, variant)
    names = [*MDP_POLICIES, *rule_names(cfg)]
    policies = {name: make_sim_policy(name, cfg, tables) for name in names}
    blocks = record_blocks(monkeypatch)
    for seed0 in (0, 2**122 - 100):
        blocks.clear()
        assert_batch_equals_rollouts(cfg, policies, names, None, seed0, T, 100)
        assert blocks and all(b.size.max() > b.block for b in blocks), "rows stayed in one block"


@pytest.mark.parametrize("variant", ["", "tenth"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_occupancy_traces_equal_the_per_draw_oracle(scenario, variant, solved):
    """The scalar loop logs a step's arrivals class by class and leaves the
    time order to the costs; the occupancy traces of horizon 20000 must
    still equal the per-draw oracle's on every field, also with both
    arrival rates at a tenth."""
    cfg, tables = solved(scenario, variant)
    for name in ["smdp", *rule_names(cfg)]:
        assert_trace_equals_oracle(cfg, make_sim_policy(name, cfg, tables), (0, 0, 0), 3, 20000.0)


def test_dense_and_spsolve_paths_give_one_smdp_table(monkeypatch):
    """At X=64 (n = 8450) asym_var's SMDP policies take the dense LU, whose
    float32 factor and update block, 5 n^2 bytes, fit the 512 MiB budget;
    with the budget at 0 they take spsolve, and both give one table."""
    cfg = load_scenario("asym_var", {"X1": 64, "X2": 64, "N1": 20, "N2": 20})
    dense, diag = solve_policies(cfg, ["smdp"])
    assert diag["smdp"]["factorizations"] > 0, diag["smdp"]
    monkeypatch.setattr(solver, "DENSE_BUDGET_BYTES", 0)
    sparse, diag = solve_policies(cfg, ["smdp"])
    assert diag["smdp"]["factorizations"] == 0, diag["smdp"]
    assert np.array_equal(dense["smdp"], sparse["smdp"])
