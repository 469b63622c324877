"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The statistical criteria run at desk scale (M = 2000 rollouts, horizon 200)
on the two bundled scenarios at their native size X = (40, 40), N = (35, 35).
Initial states are drawn uniformly from the optimal limit cycle's envelope
(margin-1 truncation bounds), which keeps the truncated decision models
valid on the sampled region; see notes in the decision models' docstrings.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

import pollsys as ps
from pollsys import (
    CycleKind,
    Deterministic,
    Exponential,
    IDLE,
    SERVE,
    SWITCH,
    StateIndexer,
    analyze_limit_cycle,
    build_nonpreemptive,
    build_smdp,
    build_value_graph,
    expected_arrival_probs,
    pool_lattice,
    policy_iteration,
    snapshot_lattice,
    truncation_bounds,
    value_iterate,
    welch_t_test,
    mann_whitney_u,
    t_test_one_sample,
    dagostino_k2,
)
from pollsys.cli import solve_policies
from pollsys.model import triple_indexer
from pollsys.solver import policy_evaluate

from conftest import asym_var_config, exp_config, record_policy_evaluations, slow_mode_config

M_ROLLOUTS = 2000
HORIZON = 200.0
ZETA = 0.05


def report(num, ok, desc):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def exhaustive_table(cfg):
    tri = triple_indexer(cfg)
    out = np.empty(tri.size, dtype=int)
    for x in range(tri.size):
        n1, n2, l1 = tri.unflatten(x)
        cur = n1 if l1 == 0 else n2
        oth = n2 if l1 == 0 else n1
        out[x] = SERVE if cur > 0 else (SWITCH if oth > 0 else IDLE)
    return out


def envelope_uniform(cfg):
    """Uniform over the limit cycle's margin-1 envelope (all locations)."""
    b1, b2 = truncation_bounds(analyze_limit_cycle(cfg), margin=1.0)
    tri = triple_indexer(cfg)
    p = np.zeros(tri.size)
    for n1 in range(min(b1, cfg.X1) + 1):
        for n2 in range(min(b2, cfg.X2) + 1):
            for l1 in (0, 1):
                p[tri.flatten(n1, n2, l1)] = 1.0
    return p / p.sum()


@pytest.fixture(scope="module")
def slow_experiment():
    cfg = slow_mode_config(X1=40, X2=40, N1=35, N2=35)
    t0 = time.time()
    tables, _ = solve_policies(cfg, ["smdp", "ctmdp"])
    p0 = envelope_uniform(cfg)
    names = ("smdp", "ctmdp", "exhaustive", "heuristic")
    etas = dict(zip(names, ps.decouple(ps.sample_performance(
        cfg, [ps.cli.make_sim_policy(name, cfg, tables) for name in names], p0, 0,
        HORIZON, M_ROLLOUTS,
    ), 0)))
    return {"cfg": cfg, "tables": tables, "etas": etas, "p0": p0,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def asym_experiment():
    cfg = asym_var_config(X1=40, X2=40, N1=35, N2=35)
    tables, _ = solve_policies(cfg, ["smdp", "ctmdp"])
    p0 = envelope_uniform(cfg)
    names = ("smdp", "ctmdp", "exhaustive")
    etas = dict(zip(names, ps.decouple(ps.sample_performance(
        cfg, [ps.cli.make_sim_policy(name, cfg, tables) for name in names], p0, 0,
        HORIZON, M_ROLLOUTS,
    ), 0)))
    return {"cfg": cfg, "tables": tables, "etas": etas, "p0": p0}


def test_criterion_1_poisson_product_oracle():
    t0 = time.time()
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=10, N2=10)
    idx = StateIndexer((10, 10))
    phi = expected_arrival_probs(cfg, Deterministic(0.5))  # exact p(0.5)
    checked = 0
    worst = 0.0
    for a1 in range(5):
        for a2 in range(4):
            if checked >= 20:
                break
            oracle = sps.poisson.pmf(a1, 0.5) * sps.poisson.pmf(a2, 0.5)
            worst = max(worst, abs(phi[idx.flatten(a1, a2)] - oracle))
            checked += 1
    elapsed = time.time() - t0
    report(1, checked == 20 and worst <= 1e-12 and elapsed < 5.0,
           f"transient vs Poisson product at {checked} cells, "
           f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_competing_exponentials():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=14, N2=14)
    vec = expected_arrival_probs(cfg, Exponential(1.0))
    idx = StateIndexer((14, 14))
    total = 3.0
    worst = 0.0
    for a1 in range(7):
        for a2 in range(7 - a1):
            oracle = (
                math.comb(a1 + a2, a1) * (1 / total) ** a1 * (1 / total) ** a2
                * (1 / total)
            )
            worst = max(worst, abs(vec[idx.flatten(a1, a2)] - oracle))
    report(2, worst <= 1e-12,
           f"expected arrival probs vs closed form on n1+n2<=6, max err {worst:.2e}")


def test_criterion_3_truncation_structure():
    dist = Exponential(1.0)
    # the true model is the unbounded lattice: at (48, 48) at most
    # 2 * (1/2)^49 of the mass leaves the large window
    small, big = (3, 3), (48, 48)
    vecs = {}
    for mode, dims in (("absorbing", small), ("unassigned", small),
                       ("unassigned", big)):
        cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=dims[0], N2=dims[1],
                         truncation_mode=mode)
        vecs[(mode, dims)] = expected_arrival_probs(cfg, dist)
    pooled_err = np.abs(
        vecs[("absorbing", small)] - pool_lattice(vecs[("unassigned", big)], big, small)
    ).max()
    snap_err = np.abs(
        vecs[("unassigned", small)]
        - snapshot_lattice(vecs[("unassigned", big)], big, small)
    ).max()
    report(3, pooled_err <= 1e-12 and snap_err == 0.0,
           f"absorbing==pooled ({pooled_err:.2e}) and unassigned==snapshot "
           f"({snap_err:.2e})")


def test_criterion_4_cross_model_consistency():
    # the margin-5 action identity is checked at the scenario's native size;
    # the two-minute budget is checked on a (20, 20) instance
    t0 = time.time()
    cfg20 = slow_mode_config(X1=20, X2=20, N1=20, N2=20).with_exponential_durations()
    np20 = build_nonpreemptive(cfg20)
    pi20 = policy_iteration(np20)
    vi20 = value_iterate(build_value_graph(np20))
    smdp20 = build_smdp(cfg20)
    policy_iteration(smdp20)
    t20 = time.time() - t0
    d20 = np20.graph.decision_mask
    alg23_20 = np.array_equal(pi20.actions[d20], vi20.actions[d20])

    cfg = slow_mode_config(X1=40, X2=40, N1=35, N2=35).with_exponential_durations()
    smdp = build_smdp(cfg)
    pol_s = policy_iteration(smdp)
    npm = build_nonpreemptive(cfg)
    pol_pi = policy_iteration(npm)
    pol_vi = value_iterate(build_value_graph(npm))
    d = npm.graph.decision_mask
    alg23_40 = np.array_equal(pol_pi.actions[d], pol_vi.actions[d])

    tab_s = smdp.decision_table(pol_s.actions)
    tab_c = npm.decision_table(pol_pi.actions)
    tri = triple_indexer(cfg)
    n1v, n2v, _ = tri.unflatten(np.arange(tri.size))
    interior = (np.asarray(n1v) <= cfg.X1 - 5) & (np.asarray(n2v) <= cfg.X2 - 5)
    mismatches = int(np.sum((tab_s != tab_c) & interior))
    report(4, alg23_20 and alg23_40 and mismatches == 0 and t20 < 120.0,
           f"policy iteration == value iteration everywhere; SMDP == CTMDP on "
           f"n_i <= X_i-5 with {mismatches} mismatches; (20,20) instance took "
           f"{t20:.0f}s")


def test_criterion_5_policy_iteration_monotone(monkeypatch):
    ok = True
    hist = record_policy_evaluations(monkeypatch)
    for cfgf in (asym_var_config, slow_mode_config):
        cfg = cfgf(X1=12, X2=12, N1=12, N2=12)
        hist.clear()
        pol = policy_iteration(build_smdp(cfg))
        ok = ok and pol.converged and len(hist) >= 2
        for earlier, later in zip(hist, hist[1:]):
            ok = ok and bool(np.all(later <= earlier + 1e-9))
    report(5, ok, "J snapshots element-wise non-increasing on both scenarios")


def test_criterion_6_limit_cycle_screening():
    asym = analyze_limit_cycle(asym_var_config())
    slow = analyze_limit_cycle(slow_mode_config())
    rho_a = ps.validate_scenario(asym_var_config()).rho
    rho_s = ps.validate_scenario(slow_mode_config()).rho
    ok = (
        asym.kind is CycleKind.PURE_BOW_TIE
        and asym.alpha1 == 0.0
        and abs(rho_a - 0.64) < 1e-12
        and abs(slow.slow_mode_value - (-1.03)) <= 1e-9
        and slow.kind is CycleKind.TRUNCATED_BOW_TIE
        and abs(rho_s - 0.35) < 1e-12
    )
    report(6, ok,
           f"asym: {asym.kind.value}, alpha1={asym.alpha1}, rho={rho_a:.4f}; "
           f"slow: condition={slow.slow_mode_value:.6f}, {slow.kind.value}, "
           f"rho={rho_s:.4f}")


def _pair_pvalues(etas, a, b):
    return (
        welch_t_test(etas[a], etas[b]).p_less,
        mann_whitney_u(etas[a], etas[b]).p_less,
        t_test_one_sample(etas[a] - etas[b], 0.0).p_less,
    )


def test_criterion_7_slow_mode_rejection_pattern(slow_experiment):
    etas = slow_experiment["etas"]
    reject_pairs = [
        ("smdp", "exhaustive"), ("smdp", "heuristic"),
        ("ctmdp", "exhaustive"), ("ctmdp", "heuristic"),
        ("heuristic", "exhaustive"),
    ]
    ok = True
    lines = []
    for a, b in reject_pairs:
        ps_ = _pair_pvalues(etas, a, b)
        ok = ok and all(p <= ZETA for p in ps_)
        lines.append(f"{a}<{b} p=({ps_[0]:.1e},{ps_[1]:.1e},{ps_[2]:.1e})")
    ps_eq = _pair_pvalues(etas, "smdp", "ctmdp")
    ok = ok and all(p > ZETA for p in ps_eq)
    elapsed = slow_experiment["elapsed"]
    ok = ok and elapsed < 600.0
    report(7, ok, "; ".join(lines) + f"; smdp~ctmdp p={min(ps_eq):.2f}; "
           f"experiment took {elapsed:.0f}s")


def test_criterion_8_asym_var_rejection_pattern(asym_experiment):
    etas = asym_experiment["etas"]
    names = list(etas)
    ok = True
    u_exempt = {("smdp", "exhaustive"), ("ctmdp", "exhaustive")}
    for a in names:
        for b in names:
            if a == b:
                continue
            w, u, t = _pair_pvalues(etas, a, b)
            ok = ok and w > ZETA and t > ZETA
            if (a, b) not in u_exempt:
                ok = ok and u > ZETA
    report(8, ok, "Welch and Student matrices all fail to reject; U-test "
                  "fails except possibly MDP-vs-exhaustive")


def test_criterion_9_occupancy(slow_experiment, asym_experiment):
    vals = {}
    for label, exp in (("asym", asym_experiment), ("slow", slow_experiment)):
        cfg = exp["cfg"]
        pol = ps.TabularPolicy(exp["tables"]["smdp"], cfg.X1, cfg.X2)
        trace = ps.simulate_trace(cfg, pol, T=200000.0, seed=123, x0=(0, 0, 0))
        shares, _ = ps.occupancy(trace, cfg, ps.limit_cycle_cells(analyze_limit_cycle(cfg)))
        vals[label] = {"wf": shares["work_fraction"], "phi_star": shares["phi_star"]}
    ok = (
        abs(vals["asym"]["wf"] - 0.70) <= 0.03
        and abs(vals["slow"]["wf"] - 0.51) <= 0.03
        and abs(vals["asym"]["phi_star"] - 0.334) <= 0.05
    )
    report(9, ok,
           f"asym work fraction {vals['asym']['wf']:.4f} (0.70±0.03, rho 0.64); "
           f"slow {vals['slow']['wf']:.4f} (0.51±0.03, rho 0.35); "
           f"phi* {vals['asym']['phi_star']:.4f} (0.334±0.05)")


def test_criterion_10_simulation_model_closure(slow_experiment, asym_experiment):
    ok = True
    lines = []
    for label, exp in (("asym", asym_experiment), ("slow", slow_experiment)):
        cfg = exp["cfg"]
        model = build_smdp(cfg)
        J = policy_evaluate(model, exhaustive_table(cfg))
        model_mean = float(exp["p0"] @ J)
        eta = exp["etas"]["exhaustive"]
        se = eta.std(ddof=1) / math.sqrt(len(eta))
        diff = abs(eta.mean() - model_mean)
        ok = ok and diff <= 3 * se
        lines.append(f"{label}: |{eta.mean():.2f}-{model_mean:.2f}|={diff:.2f} "
                     f"<= 3SE={3 * se:.2f}")
    report(10, ok, "; ".join(lines))


def test_criterion_11_stats_calibration(rng):
    vals = [dagostino_k2(rng.normal(0, 1, size=10000)).statistic
            for _ in range(500)]
    k2_mean = float(np.mean(vals))
    worst = 0.0
    for _ in range(10):
        x = rng.normal(0, 1, size=50)
        y = rng.normal(0.2, 1, size=50)
        pooled = sps.ttest_ind(x, y, equal_var=True).statistic
        worst = max(worst, abs(welch_t_test(x, y).statistic - pooled))
    ok = 1.8 <= k2_mean <= 2.2 and worst <= 1e-10
    report(11, ok, f"k2 mean {k2_mean:.3f} in [1.8, 2.2]; Welch vs pooled "
                   f"max diff {worst:.1e}")


def test_crn_shuffled_pairs_uncorrelated(asym_experiment):
    etas = asym_experiment["etas"]
    worst = max(
        abs(ps.pearson_r(etas[a], etas[b]))
        for a in etas for b in etas if a < b
    )
    report("correlation", worst < 0.05,
           f"max |pearson r| between shuffled sample pairs = {worst:.4f}")


def test_policy_shape_smdp_vs_ctmdp(asym_experiment):
    tables = asym_experiment["tables"]
    cfg = asym_experiment["cfg"]
    diff = np.flatnonzero(tables["smdp"] != tables["ctmdp"])
    tri = triple_indexer(cfg)
    idle_switch_boundary = [
        x for x in diff
        if {int(tables["smdp"][x]), int(tables["ctmdp"][x])} <= {IDLE, SWITCH}
    ]
    ok = len(idle_switch_boundary) >= 1
    where = [tri.unflatten(int(x)) for x in idle_switch_boundary[:3]]
    report("policy-shape", ok,
           f"policies differ at {len(diff)} states, idle/switch boundary "
           f"differences at {where}")
