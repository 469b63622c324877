import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    CycleKind,
    Deterministic,
    ExhaustivePolicy,
    Exponential,
    HeuristicPolicy,
    QueueOverflowError,
    TabularPolicy,
    action_time_fractions,
    build_smdp,
    embedded_stationary,
    limit_cycle_occupancy,
    overall_stationary,
    rollout,
    sample_performance,
    simulate_trace,
    step_wise_cost,
)
from pollsys.baselines import LimitCycle
from pollsys.cli import solve_policies
from pollsys.model import triple_indexer, validate_scenario
from pollsys.simulate import TAG_SHUFFLE, RolloutTrace
from pollsys.solver import assemble_policy_matrix

from conftest import asym_var_config, exp_config, slow_mode_config


class AlwaysIdle:
    def start(self):
        return None

    def act(self, n1, n2, l1, carry):
        return IDLE, carry


def _point_dist(cfg, n1, n2, l1):
    dist = np.zeros((cfg.X1 + 1) * (cfg.X2 + 1) * 2)
    dist[(n1 * (cfg.X2 + 1) + n2) * 2 + l1] = 1.0
    return dist


def _exhaustive_action(n1, n2, l1):
    current = n1 if l1 == 0 else n2
    other = n2 if l1 == 0 else n1
    if current > 0:
        return SERVE
    if other > 0:
        return SWITCH
    return IDLE


def test_step_wise_cost_examples():
    # one customer held over a long interval
    assert step_wise_cost(1, 0, (), 200.0, 1.0, 1.0, 0.05) == pytest.approx(
        19.99909, abs=1e-4
    )
    assert step_wise_cost(0, 0, (), 5.0, 1.0, 1.0, 0.05) == 0.0
    # an arrival exactly at the interval end contributes nothing
    assert step_wise_cost(0, 0, ((0, 2.0),), 2.0, 1.0, 1.0, 0.05) == pytest.approx(0.0)
    # half-interval class-2 arrival on top of one held class-2 customer
    got = step_wise_cost(0, 1, ((1, 1.0),), 2.0, 3.0, 2.0, 0.1)
    want = (2.0 / 0.1) * (1 - math.exp(-0.2)) + (2.0 / 0.1) * (
        math.exp(-0.1) - math.exp(-0.2)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_rollout_single_transition_analytic():
    cfg = exp_config(lambda1=0.0, lambda2=0.0, serve1=Deterministic(1.0),
                     X1=4, X2=4)
    got = rollout(cfg, ExhaustivePolicy(), _point_dist(cfg, 1, 0, 0), seed=3, T=10.0)
    assert got == pytest.approx((1 - math.exp(-0.05)) / 0.05, rel=1e-12)
    assert got == pytest.approx(0.97541, abs=1e-5)


def test_rollout_empty_system_without_arrivals():
    cfg = exp_config(lambda1=0.0, lambda2=0.0)
    assert rollout(cfg, ExhaustivePolicy(), _point_dist(cfg, 0, 0, 0),
                   seed=1, T=50.0) == 0.0


def test_common_random_numbers_identical_until_divergence():
    cfg = slow_mode_config(X1=8, X2=8)
    tr_exh = simulate_trace(cfg, ExhaustivePolicy(), T=60.0, seed=11, x0=(2, 2, 0))
    tr_heu = simulate_trace(cfg, HeuristicPolicy(cfg), T=60.0, seed=11, x0=(2, 2, 0))
    k = 0
    while (k < min(len(tr_exh), len(tr_heu))
           and tr_exh.action[k] == tr_heu.action[k]
           and tr_exh.n1[k] == tr_heu.n1[k] and tr_exh.n2[k] == tr_heu.n2[k]
           and tr_exh.l1[k] == tr_heu.l1[k]):
        # same history so far: the drawn interval must be identical
        assert tr_exh.dt[k] == tr_heu.dt[k]
        assert tr_exh.cost[k] == tr_heu.cost[k]
        k += 1
    assert k > 0  # policies share a prefix before diverging


def test_identical_policies_bitwise_reproducible():
    cfg = slow_mode_config(X1=8, X2=8)
    a = rollout(cfg, ExhaustivePolicy(), None, seed=42, T=100.0)
    b = rollout(cfg, ExhaustivePolicy(), None, seed=42, T=100.0)
    assert a == b


def test_trace_time_bookkeeping():
    cfg = slow_mode_config(X1=8, X2=8)
    tr = simulate_trace(cfg, ExhaustivePolicy(), T=50.0, seed=5, x0=(1, 1, 0))
    assert tr.t[0] == 0.0
    assert np.allclose(tr.t[1:], tr.t[:-1] + tr.dt[:-1])
    assert np.all(tr.cost >= 0)
    assert tr.t[-1] < 50.0 <= tr.t[-1] + tr.dt[-1] + 1e-12


def test_rollout_matches_fine_grained_integral():
    """The summed discounted step costs equal a direct quadrature of
    exp(-beta t) * (c1 n1(t) + c2 n2(t)) along the reconstructed
    piecewise-constant trajectory."""
    cfg = slow_mode_config(X1=10, X2=10, K12=0.0, K21=0.0)
    tr = simulate_trace(cfg, ExhaustivePolicy(), T=40.0, seed=9, x0=(3, 1, 0))
    total = float(np.sum(np.exp(-cfg.beta * tr.t) * tr.cost))
    beta = cfg.beta
    recon = 0.0
    for k in range(len(tr)):
        marks = [0.0] + [ta for _, ta in tr.arrivals[k]] + [tr.dt[k]]
        base = cfg.c1 * tr.n1[k] + cfg.c2 * tr.n2[k]
        level = float(base)
        for lo, hi, (cls, _) in zip(
            marks, marks[1:], list(tr.arrivals[k]) + [(None, None)]
        ):
            if hi > lo:
                piece, _ = integrate.quad(
                    lambda u: level * math.exp(-beta * (tr.t[k] + u)), lo, hi,
                    limit=100,
                )
                recon += piece
            if cls is not None:
                level += cfg.c1 if cls == 0 else cfg.c2
    assert total == pytest.approx(recon, rel=1e-8)
    got = rollout(cfg, ExhaustivePolicy(), _point_dist(cfg, 3, 1, 0), seed=9, T=40.0)
    assert got == pytest.approx(total, rel=1e-12)


def test_sample_performance_contracts():
    cfg = exp_config(X1=3, X2=3)
    with pytest.raises(ValueError):
        sample_performance(cfg, ExhaustivePolicy(), None, 0, 10.0, 1)
    eta = sample_performance(cfg, ExhaustivePolicy(), None, 0, 10.0, 2)
    assert len(eta) == 2


def test_sample_performance_degenerate_model_identical_values():
    cfg = exp_config(lambda1=0.0, lambda2=0.0, serve1=Deterministic(1.0),
                     serve2=Deterministic(1.0), switch12=Deterministic(1.0),
                     switch21=Deterministic(1.0), X1=2, X2=2)
    dist = _point_dist(cfg, 1, 0, 0)
    eta = sample_performance(cfg, ExhaustivePolicy(), dist, 0, 10.0, 8)
    # one unit-length service of the single customer, then idle for ever
    assert np.all(eta == pytest.approx((1 - math.exp(-0.05)) / 0.05, rel=1e-12))


def test_sample_performance_shuffles_with_distinct_seeds():
    cfg = exp_config(X1=4, X2=4)
    base = sample_performance(cfg, ExhaustivePolicy(), None, 0, 20.0, 32,
                              shuffle_seed=1)
    other = sample_performance(cfg, ExhaustivePolicy(), None, 0, 20.0, 32,
                               shuffle_seed=2)
    assert sorted(base) == pytest.approx(sorted(other))
    assert not np.allclose(base, other)


@functools.lru_cache(maxsize=None)
def _smdp_table(cfg):
    return solve_policies(cfg, ["smdp"])[0]["smdp"]


def _unshuffle(eta, seed0, shuffle_seed=None):
    """Undo the shuffle of `sample_performance`: entry k is seed seed0 + k."""
    key = (int(seed0 if shuffle_seed is None else shuffle_seed) << 6) + TAG_SHUFFLE
    perm = np.random.Generator(np.random.Philox(key=key)).permutation(len(eta))
    out = np.empty_like(eta)
    out[perm] = eta
    return out


HEURISTIC_FLAG_CONFIG = exp_config(lambda1=0.3, lambda2=0.1, serve1=Exponential(1.0),
                                   serve2=Exponential(1.0), c2=0.2)
BATCH_CASES = {
    "slow_mode": slow_mode_config(),
    "asym_var": asym_var_config(),
    "lambda2_zero": exp_config(lambda2=0.0, X1=4, X2=4, N1=4, N2=4),
    # slow service and a cheap queue 2: the heuristic's served flag matters
    "heuristic_flag": HEURISTIC_FLAG_CONFIG,
    # a 30-unit switch-over brings 16 to 64 arrivals per class, and a
    # 90-unit one more than 64: both longer arrival paths of the batch
    "deterministic": exp_config(
        serve1=Deterministic(0.2), serve2=Deterministic(0.3),
        switch12=Deterministic(30.0), switch21=Deterministic(90.0),
        K12=1.5, X1=30, X2=30, N1=4, N2=4),
    # no arrivals: a rollout ends when it idles
    "no_arrivals": exp_config(lambda1=0.0, lambda2=0.0, serve1=Deterministic(1.0),
                              serve2=Deterministic(0.5), X1=4, X2=4, N1=4, N2=4),
}


@pytest.mark.parametrize("case, name", [
    (case, name) for case in sorted(BATCH_CASES)
    for name in ("exhaustive", "heuristic", "tabular")
    # the heuristic needs queue 1 as the priority queue
    if name != "heuristic" or validate_scenario(BATCH_CASES[case]).priority_queue == 1
])
@pytest.mark.parametrize("start", ["uniform", "point"])
def test_sample_performance_matches_scalar_rollouts(case, name, start):
    """The lockstep batch equals the per-seed scalar rollouts bit for bit."""
    cfg = BATCH_CASES[case]
    if name == "exhaustive":
        pol = ExhaustivePolicy()
    elif name == "heuristic":
        pol = HeuristicPolicy(cfg)
    elif isinstance(cfg.serve1, Deterministic):  # no SMDP: leave queue 2 below 5
        n1, n2, l1 = triple_indexer(cfg).unflatten(np.arange(triple_indexer(cfg).size))
        table = np.array([_exhaustive_action(*x) for x in zip(n1, n2, l1)])
        table[(l1 == 1) & (n2 < 5) & (n1 > 0)] = SWITCH
        pol = TabularPolicy(table, cfg.X1, cfg.X2)
    else:
        pol = TabularPolicy(_smdp_table(cfg), cfg.X1, cfg.X2)
    dist = None if start == "uniform" else _point_dist(cfg, 1, 2, 1)
    M, T = 24, 150.0 if case != "deterministic" else 400.0
    eta = sample_performance(cfg, pol, dist, 11, T, M, shuffle_seed=5)
    want = [rollout(cfg, pol, dist, 11 + k, T) for k in range(M)]
    assert np.array_equal(_unshuffle(eta, 11, 5), want)


def test_action_tables_match_scalar_policies():
    cfg = replace(HEURISTIC_FLAG_CONFIG, X1=2, X2=2)
    (cap1, cap2), X = (20, 20), (2, 2)
    table = np.arange(18) % 3
    policies = [ExhaustivePolicy(), HeuristicPolicy(cfg), TabularPolicy(table, *X)]
    for pol in policies:
        got = np.broadcast_to(pol.action_table(cfg), (2, cap1 + 1, cap2 + 1, 2))
        for served in (False, True):
            for n1 in range(cap1 + 1):
                for n2 in range(cap2 + 1):
                    for l1 in (0, 1):
                        a, _ = pol.act(n1, n2, l1, served)
                        assert got[int(served), n1, n2, l1] == a


def test_sample_performance_overflow_names_the_seed():
    cfg = exp_config(lambda1=2.0, lambda2=0.0, serve1=Exponential(5.0), X1=1, X2=1)
    idle = TabularPolicy(np.full(8, IDLE), 1, 1)
    with pytest.raises(QueueOverflowError, match=r"seed (\d+)") as info:
        sample_performance(cfg, idle, None, 40, 2000.0, 6)
    seed = int(re.search(r"seed (\d+)", str(info.value)).group(1))
    assert 40 <= seed < 46
    with pytest.raises(QueueOverflowError):
        rollout(cfg, idle, None, seed, 2000.0)


def test_sample_performance_rejects_empty_serve_and_undefined_entries():
    cfg = exp_config(X1=2, X2=2)
    start = _point_dist(cfg, 0, 1, 0)
    with pytest.raises(ValueError, match="empty queue at \\(0,1,0\\)"):
        sample_performance(cfg, TabularPolicy(np.full(18, SERVE), 2, 2), start, 0, 10.0, 4)
    table = np.full(18, SERVE)
    table[(0 * 3 + 1) * 2 + 0] = -1
    with pytest.raises(ValueError, match="undefined at state \\(0,1,0\\)"):
        sample_performance(cfg, TabularPolicy(table, 2, 2), start, 0, 10.0, 4)
    with pytest.raises(TypeError, match="action_table"):
        sample_performance(cfg, AlwaysIdle(), start, 0, 10.0, 4)


def test_queue_overflow_detected():
    cfg = exp_config(lambda1=2.0, lambda2=0.0, serve1=Exponential(5.0),
                     X1=1, X2=1)
    with pytest.raises(QueueOverflowError):
        simulate_trace(cfg, AlwaysIdle(), T=2000.0, seed=0, x0=(0, 0, 0))


def test_embedded_stationary_alternation():
    tr = RolloutTrace(
        n1=np.array([0, 1] * 50, dtype=np.int32),
        n2=np.zeros(100, dtype=np.int32),
        l1=np.zeros(100, dtype=np.int32),
        action=np.zeros(100, dtype=np.int32),
        cost=np.zeros(100),
        dt=np.ones(100),
        t=np.arange(100, dtype=float),
        horizon=100.0,
    )
    freq, v1, v2 = embedded_stationary(tr, burn_in=0)
    assert freq[(0, 0, 0)] == pytest.approx(0.5)
    assert freq[(1, 0, 0)] == pytest.approx(0.5)
    assert v1 == 100 and v2 == 0
    assert sum(freq.values()) == pytest.approx(1.0, abs=1e-12)


def test_embedded_stationary_requires_data_after_burn_in():
    tr = RolloutTrace(
        n1=np.zeros(3, dtype=np.int32), n2=np.zeros(3, dtype=np.int32),
        l1=np.zeros(3, dtype=np.int32), action=np.zeros(3, dtype=np.int32),
        cost=np.zeros(3), dt=np.ones(3), t=np.arange(3, dtype=float),
        horizon=3.0,
    )
    with pytest.raises(ValueError):
        embedded_stationary(tr, burn_in=3)


def test_embedded_stationary_matches_linear_solve():
    """Long-trace frequencies against the stationary vector of P_pi."""
    cfg = asym_var_config(X1=12, X2=12, N1=12, N2=12)
    model = build_smdp(cfg)
    idx = model.indexer
    actions = np.array([
        _exhaustive_action(*idx.unflatten(x)) for x in range(model.n_states)
    ])
    P, _ = assemble_policy_matrix(model, actions, discounted=False)
    dense = P.toarray()
    n = dense.shape[0]
    A = np.vstack([(dense.T - np.eye(n))[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    phi, *_ = np.linalg.lstsq(A, b, rcond=None)
    tr = simulate_trace(cfg, ExhaustivePolicy(), T=40000.0, seed=13, x0=(0, 0, 0))
    freq, _, _ = embedded_stationary(tr)
    checked = 0
    for (n1, n2, l1), f in freq.items():
        if f > 1e-3 and n1 <= 12 and n2 <= 12:
            assert f == pytest.approx(phi[idx.flatten(n1, n2, l1)], abs=0.02)
            checked += 1
    assert checked > 5


def test_action_time_fractions_sum_to_one():
    cfg = slow_mode_config(X1=8, X2=8)
    tr = simulate_trace(cfg, ExhaustivePolicy(), T=2000.0, seed=3, x0=(0, 0, 0))
    phi, total, T1, T2 = action_time_fractions(tr)
    assert sum(phi.values()) == pytest.approx(1.0, abs=1e-12)
    assert total == pytest.approx(sum(T1.values()) + sum(T2.values()))
    assert phi[SERVE] > 0.2  # the server works a material share of time


def test_limit_cycle_occupancy_cases():
    cycle = LimitCycle(
        c1=(0.0, 0.0), c2=(0.0, 0.0), c3=(0.0, 0.0), c4=(0.0, 0.0),
        c5=(0.0, 0.0), alpha1=0.0, kind=CycleKind.PURE_BOW_TIE,
        slow_mode_value=0.0, priority_queue=1,
    )
    freq = {(0, 0, 0): 0.7, (0, 0, 1): 0.1, (5, 5, 0): 0.2}
    assert limit_cycle_occupancy(freq, cycle) == pytest.approx(0.8)
    far = {(9, 9, 0): 1.0}
    assert limit_cycle_occupancy(far, cycle) == 0.0


def test_overall_stationary_helper():
    phi = overall_stationary(np.array([0.5, 0.5]), np.array([1.0, 3.0]))
    assert phi == pytest.approx(np.array([0.25, 0.75]))


def test_work_fraction_hand_value():
    from pollsys import ScenarioConfig

    cfg = ScenarioConfig(
        lambda1=0.5, lambda2=0.5,
        serve1=Exponential(0.5), serve2=Exponential(0.25),  # means 2 and 4
        switch12=Exponential(1.0), switch21=Exponential(1.0),
        c1=1.0, c2=1.0, beta=0.05, X1=4, X2=4, N1=4, N2=4,
    )
    # half the queue-1 epochs serve, three quarters of the queue-2 epochs
    tr = RolloutTrace(
        n1=np.ones(8, dtype=np.int32), n2=np.ones(8, dtype=np.int32),
        l1=np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32),
        action=np.array([SERVE, IDLE, SERVE, IDLE, SERVE, SERVE, SERVE, IDLE],
                        dtype=np.int32),
        cost=np.zeros(8), dt=np.ones(8), t=np.arange(8, dtype=float),
        horizon=8.0,
    )
    from pollsys.simulate import work_fraction as wf
    assert wf(tr, cfg, burn_in=0) == pytest.approx(0.5 * 2.0 + 0.75 * 4.0)


def test_pure_cycle_hull_skips_switch_corner():
    from pollsys.simulate import _integer_hull

    pure = LimitCycle(
        c1=(0.0, 2.0), c2=(0.0, 2.0), c3=(50.0, 50.0), c4=(2.0, 0.0),
        c5=(1.0, 1.0), alpha1=0.0, kind=CycleKind.PURE_BOW_TIE,
        slow_mode_value=0.0, priority_queue=1,
    )
    cells = _integer_hull(pure, 50)
    assert (50, 50) not in cells  # C3 plays no role in a pure bow-tie
    truncated = LimitCycle(
        c1=(0.0, 2.0), c2=(0.0, 3.0), c3=(50.0, 50.0), c4=(2.0, 0.0),
        c5=(1.0, 1.0), alpha1=0.5, kind=CycleKind.TRUNCATED_BOW_TIE,
        slow_mode_value=-1.0, priority_queue=1,
    )
    assert (50, 50) in _integer_hull(truncated, 50)


def test_idle_durations_are_exponential():
    # light load: the exhaustive policy idles at every empty-system epoch,
    # and those intervals must be Exp(lambda1 + lambda2)
    cfg = exp_config(lambda1=0.7, lambda2=0.5, X1=6, X2=6)
    tr = simulate_trace(cfg, ExhaustivePolicy(), T=60000.0, seed=2024, x0=(0, 0, 0))
    idle_dt = tr.dt[tr.action == IDLE]
    assert len(idle_dt) >= 10000
    _, p = stats.kstest(idle_dt[:10000], "expon", args=(0, 1 / 1.2))
    assert p > 0.01


def test_tabular_policy_clamps_beyond_box():
    table = np.full((3 * 3 * 2), SERVE)
    pol = TabularPolicy(table, 2, 2)
    a, _ = pol.act(10, 0, 0, None)
    assert a == SERVE
