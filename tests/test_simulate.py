import functools
import itertools
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
    Gamma,
    HeuristicPolicy,
    QueueOverflowError,
    TabularPolicy,
    action_time_fractions,
    build_smdp,
    decouple,
    embedded_stationary,
    limit_cycle_occupancy,
    overall_stationary,
    rollout,
    sample_performance,
    simulate_trace,
)
from pollsys import simulate
from pollsys.baselines import LimitCycle
from pollsys.cli import solve_policies
from pollsys.model import triple_indexer, validate_scenario
from pollsys.simulate import RolloutTrace

from conftest import (
    assemble_policy_matrix,
    asym_var_config,
    exhaustive_action,
    exp_config,
    heuristic_action,
    slow_mode_config,
    step_wise_cost,
)


class AlwaysIdle:
    """A scalar rule without ``action_table``, which the simulator rejects."""

    def act(self, n1, n2, l1, carry):
        return IDLE, carry


def _point_dist(cfg, n1, n2, l1):
    dist = np.zeros((cfg.X1 + 1) * (cfg.X2 + 1) * 2)
    dist[(n1 * (cfg.X2 + 1) + n2) * 2 + l1] = 1.0
    return dist


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
        sample_performance(cfg, [ExhaustivePolicy()], None, 0, 10.0, 1)
    with pytest.raises(ValueError, match="at least one policy"):
        sample_performance(cfg, [], None, 0, 10.0, 2)
    (eta,) = sample_performance(cfg, [ExhaustivePolicy()], None, 0, 10.0, 2)
    assert len(eta) == 2


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_entry_points_reject_horizon_before_any_draw(monkeypatch, T):
    """A NaN, infinite or non-positive horizon fails every entry point
    before a Philox stream exists: at NaN the batch would charge one step
    and the scalar path none, at inf a stable policy would never stop."""
    cfg = exp_config(X1=3, X2=3)

    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was made before the horizon check")

    monkeypatch.setattr(np.random, "Philox", no_draw)
    for call in (lambda: rollout(cfg, ExhaustivePolicy(), None, 0, T),
                 lambda: simulate_trace(cfg, ExhaustivePolicy(), T),
                 lambda: sample_performance(cfg, [ExhaustivePolicy()], None, 0, T, 2)):
        with pytest.raises(ValueError, match=r"^horizon T must be finite and positive, got "):
            call()


def test_sample_performance_degenerate_model_identical_values():
    cfg = exp_config(lambda1=0.0, lambda2=0.0, serve1=Deterministic(1.0),
                     serve2=Deterministic(1.0), switch12=Deterministic(1.0),
                     switch21=Deterministic(1.0), X1=2, X2=2)
    dist = _point_dist(cfg, 1, 0, 0)
    (eta,) = sample_performance(cfg, [ExhaustivePolicy()], dist, 0, 10.0, 8)
    # one unit-length service of the single customer, then idle for ever
    assert np.all(eta == pytest.approx((1 - math.exp(-0.05)) / 0.05, rel=1e-12))


def test_decouple_gives_each_policy_its_own_order():
    """Copies of one policy sample equal arrays in seed order; `decouple`
    keeps each array's values, gives no two the same order, and its
    permutations, read off `decouple` of the seed indices, undo."""
    cfg = exp_config(X1=4, X2=4)
    M = 32
    etas = sample_performance(cfg, [ExhaustivePolicy()] * 3, None, 0, 20.0, M)
    assert all(np.array_equal(eta, etas[0]) for eta in etas)
    shuffled = decouple(etas, 5)
    orders = decouple([np.arange(M)] * 3, 5)
    for eta, got, order in zip(etas, shuffled, orders):
        assert sorted(got) == sorted(eta)
        restored = np.empty_like(got)
        restored[order] = got
        assert np.array_equal(restored, eta)
    for a, b in itertools.combinations(range(3), 2):
        assert not np.array_equal(shuffled[a], shuffled[b])
        assert not np.array_equal(orders[a], orders[b])


@functools.lru_cache(maxsize=None)
def _smdp_table(cfg):
    return solve_policies(cfg, ["smdp"])[0]["smdp"]


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


def _case_policies(cfg):
    """Every policy kind that applies to ``cfg``, by name."""
    policies = {"exhaustive": ExhaustivePolicy()}
    if validate_scenario(cfg).priority_queue == 1:
        policies["heuristic"] = HeuristicPolicy(cfg)
    if isinstance(cfg.serve1, Deterministic):  # no SMDP: leave queue 2 below 5
        n1, n2, l1 = triple_indexer(cfg).unflatten(np.arange(triple_indexer(cfg).size))
        table = np.array([exhaustive_action(*x) for x in zip(n1, n2, l1)])
        table[(l1 == 1) & (n2 < 5) & (n1 > 0)] = SWITCH
        policies["tabular"] = TabularPolicy(table, cfg.X1, cfg.X2)
    else:
        policies["tabular"] = TabularPolicy(_smdp_table(cfg), cfg.X1, cfg.X2)
    return policies


def _scalar_rule(cfg, policy):
    """The scalar oracle of ``policy``: (n1, n2, l1, served) -> (action, served')."""
    if isinstance(policy, ExhaustivePolicy):
        return lambda n1, n2, l1, served: (exhaustive_action(n1, n2, l1), served)
    if isinstance(policy, HeuristicPolicy):
        return functools.partial(heuristic_action, cfg)
    X1, X2 = policy.X1, policy.X2

    def tabular(n1, n2, l1, served):  # beyond the (X1, X2) box, the box's edge
        return int(policy.table[(min(n1, X1) * (X2 + 1) + min(n2, X2)) * 2 + l1]), served
    return tabular


def _case_names(cases):
    return [
        (case, name) for case in cases
        for name in ("exhaustive", "heuristic", "tabular")
        # the heuristic needs queue 1 as the priority queue
        if name != "heuristic" or validate_scenario(BATCH_CASES[case]).priority_queue == 1
    ]


@pytest.mark.parametrize("case, name", _case_names(sorted(BATCH_CASES)))
@pytest.mark.parametrize("start", ["uniform", "point"])
def test_sample_performance_matches_scalar_rollouts(case, name, start):
    """A lockstep batch of every policy kind equals the per-seed scalar
    rollouts of the named policy bit for bit."""
    cfg = BATCH_CASES[case]
    policies = _case_policies(cfg)
    dist = None if start == "uniform" else _point_dist(cfg, 1, 2, 1)
    M, T = 24, 150.0 if case != "deterministic" else 400.0
    etas = sample_performance(cfg, list(policies.values()), dist, 11, T, M)
    p = list(policies).index(name)
    want = [rollout(cfg, policies[name], dist, 11 + k, T) for k in range(M)]
    assert np.array_equal(etas[p], want)


def test_sample_performance_seed_blocks_under_a_small_lane_cap(monkeypatch):
    """Unequal seed blocks, each with every policy, give the uncapped values."""
    cfg = HEURISTIC_FLAG_CONFIG
    policies = [HeuristicPolicy(cfg), ExhaustivePolicy()]
    M, T = 10, 60.0
    whole = sample_performance(cfg, policies, None, 3, T, M)
    blocks = []
    lockstep = simulate._lockstep

    def spy(cfg, codes, x0, seeds, T):
        blocks.append((len(codes), list(seeds)))
        return lockstep(cfg, codes, x0, seeds, T)

    monkeypatch.setattr(simulate, "_LANES", 7)
    monkeypatch.setattr(simulate, "_lockstep", spy)
    capped = sample_performance(cfg, policies, None, 3, T, M)
    assert blocks == [(2, [3, 4, 5, 6]), (2, [7, 8, 9]), (2, [10, 11, 12])]
    for pol, got, want in zip(policies, capped, whole):
        assert np.array_equal(got, want)
        scalar = [rollout(cfg, pol, None, 3 + k, T) for k in range(M)]
        assert np.array_equal(got, scalar)


def test_sample_performance_draws_each_stream_once_per_seed(monkeypatch):
    """P copies of one policy read the same pre-drawn rows: every
    distribution is sampled as often, and as many values, as for one copy."""
    cfg = BATCH_CASES["asym_var"]
    calls = {}

    def spy(kind):
        sample = kind.sample

        def counted(self, rng, size=None):
            n, values = calls.get(self, (0, 0))
            calls[self] = (n + 1, values + (1 if size is None else size))
            return sample(self, rng, size)
        return counted

    for kind in (Exponential, Gamma, Deterministic):
        monkeypatch.setattr(kind, "sample", spy(kind))
    counts, etas = [], []
    for P in (1, 3):
        calls.clear()
        etas.append(sample_performance(cfg, [ExhaustivePolicy()] * P, None, 4, 150.0, 24))
        counts.append(dict(calls))
    assert counts[0] and counts[0] == counts[1]
    assert all(np.array_equal(eta, etas[0][0]) for eta in etas[1])


def test_sample_performance_rows_grow_past_first_block(monkeypatch):
    """Rows that outgrow their first block keep the scalar values bit for bit."""
    cfg = BATCH_CASES["deterministic"]
    blocks = []

    class Recorded(simulate._Blocks):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    monkeypatch.setattr(simulate, "_Blocks", Recorded)
    policy = ExhaustivePolicy()
    M, T = 12, 400.0
    (eta,) = sample_performance(cfg, [policy], None, 11, T, M)
    assert any(b.size.max() > b.block for b in blocks)
    want = [rollout(cfg, policy, None, 11 + k, T) for k in range(M)]
    assert np.array_equal(eta, want)


def test_action_tables_match_scalar_policies():
    cfg = replace(HEURISTIC_FLAG_CONFIG, X1=2, X2=2)
    (cap1, cap2), X = (20, 20), (2, 2)
    table = np.arange(18) % 3
    policies = [ExhaustivePolicy(), HeuristicPolicy(cfg), TabularPolicy(table, *X)]
    for pol in policies:
        got = np.broadcast_to(pol.action_table(cfg), (2, cap1 + 1, cap2 + 1, 2))
        rule = _scalar_rule(cfg, pol)
        for served in (False, True):
            for n1 in range(cap1 + 1):
                for n2 in range(cap2 + 1):
                    for l1 in (0, 1):
                        a, _ = rule(n1, n2, l1, served)
                        assert got[int(served), n1, n2, l1] == a


def test_sample_performance_overflow_names_the_seed():
    cfg = exp_config(lambda1=2.0, lambda2=0.0, serve1=Exponential(5.0), X1=1, X2=1)
    idle = TabularPolicy(np.full(8, IDLE), 1, 1)
    with pytest.raises(QueueOverflowError, match=r"seed (\d+)") as info:
        sample_performance(cfg, [idle], None, 40, 2000.0, 6)
    seed = int(re.search(r"seed (\d+)", str(info.value)).group(1))
    assert 40 <= seed < 46
    with pytest.raises(QueueOverflowError):
        rollout(cfg, idle, None, seed, 2000.0)


def test_sample_performance_overflow_names_the_policy():
    """Only the second policy overflows; the error names it and its seed."""
    cfg = exp_config(lambda1=2.0, lambda2=0.0, serve1=Exponential(5.0), X1=1, X2=1)
    idle = TabularPolicy(np.full(8, IDLE), 1, 1)
    stable = ExhaustivePolicy()
    T = 50.0
    for seed in range(40, 46):
        rollout(cfg, stable, None, seed, T)  # does not overflow
    with pytest.raises(QueueOverflowError, match=r"policy 1 with seed (\d+)") as info:
        sample_performance(cfg, [stable, idle], None, 40, T, 6)
    seed = int(re.search(r"seed (\d+)", str(info.value)).group(1))
    assert 40 <= seed < 46
    with pytest.raises(QueueOverflowError):
        rollout(cfg, idle, None, seed, T)


def test_sample_performance_rejects_empty_serve_and_undefined_entries():
    cfg = exp_config(X1=2, X2=2)
    start = _point_dist(cfg, 0, 1, 0)
    with pytest.raises(ValueError, match="empty queue at \\(0,1,0\\)"):
        sample_performance(cfg, [TabularPolicy(np.full(18, SERVE), 2, 2)], start, 0, 10.0, 4)
    table = np.full(18, SERVE)
    table[(0 * 3 + 1) * 2 + 0] = -1
    with pytest.raises(ValueError, match="undefined at state \\(0,1,0\\) in the rollout "
                                         "of policy 1 with seed 0"):
        sample_performance(cfg, [ExhaustivePolicy(), TabularPolicy(table, 2, 2)],
                           start, 0, 10.0, 4)
    with pytest.raises(TypeError, match="action_table"):
        sample_performance(cfg, [AlwaysIdle()], start, 0, 10.0, 4)


@pytest.mark.parametrize("entry, message", [
    (SERVE, "policy serves an empty queue at"),
    (-1, "policy undefined at state"),
    (SWITCH + 1, "unknown action at state"),
])
def test_both_paths_reject_a_state_by_the_same_message(entry, message):
    """The scalar path raises the batch's message from the same code table."""
    cfg = exp_config(X1=2, X2=2)
    table = np.full(18, SERVE)
    table[(0 * 3 + 1) * 2 + 0] = entry
    policy = TabularPolicy(table, 2, 2)
    where = f"^{message} \\(0,1,0\\)"
    with pytest.raises(ValueError, match=where + "$"):
        simulate_trace(cfg, policy, 10.0, x0=(0, 1, 0))
    with pytest.raises(ValueError, match=where + " in the rollout of policy 0 with seed 0$"):
        sample_performance(cfg, [policy], _point_dist(cfg, 0, 1, 0), 0, 10.0, 4)


def test_every_entry_point_rejects_a_policy_without_action_table():
    cfg = exp_config(X1=2, X2=2)
    message = "^the simulator needs a policy with action_table\\(cfg\\)$"
    with pytest.raises(TypeError, match=message):
        rollout(cfg, AlwaysIdle(), None, 0, 10.0)
    with pytest.raises(TypeError, match=message):
        simulate_trace(cfg, AlwaysIdle(), 10.0)
    with pytest.raises(TypeError, match=message):
        sample_performance(cfg, [AlwaysIdle()], None, 0, 10.0, 4)


def _reference_trace(cfg, policy, x0, seed, T):
    """The simulator's scalar loop with one generator call per draw and the
    policy's scalar rule (`_scalar_rule`), kept as an oracle for the
    block-buffered reads and the code-table lookups of `simulate_trace`."""
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    c1, c2, beta = cfg.c1, cfg.c2, cfg.beta
    seeds = simulate.SeedStream(seed)
    gen_lam = [seeds.generator(tag) for tag in simulate.TAG_LAMBDA]
    gen_serve = [seeds.generator(tag) for tag in simulate.TAG_SERVE]
    gen_switch = [seeds.generator(tag) for tag in simulate.TAG_SWITCH]

    def draw_arrivals(lam, gen, dt):
        times = []
        if lam <= 0:
            return times
        t = gen.exponential(1.0 / lam)
        while t < dt:
            times.append(t)
            t += gen.exponential(1.0 / lam)
        return times

    rule = _scalar_rule(cfg, policy)
    n1, n2, l1 = x0
    t = 0.0
    served = False
    rec = {key: [] for key in ("n1", "n2", "l1", "action", "cost", "dt", "t", "arrivals")}
    while t < T:
        a, served = rule(n1, n2, l1, served)
        if a == IDLE:
            if lam1 <= 0 and lam2 <= 0:
                break
            t1 = gen_lam[0].exponential(1.0 / lam1) if lam1 > 0 else math.inf
            t2 = gen_lam[1].exponential(1.0 / lam2) if lam2 > 0 else math.inf
            dt, winner = (t1, 0) if t1 <= t2 else (t2, 1)
            step = step_wise_cost(n1, n2, (), dt, c1, c2, beta)
            arr = ()
            nxt = (n1 + 1, n2, l1) if winner == 0 else (n1, n2 + 1, l1)
        elif a == SERVE:
            dt = cfg.serve_dists[l1].sample(gen_serve[l1])
            arr = [(0, ta) for ta in draw_arrivals(lam1, gen_lam[0], dt)]
            arr += [(1, ta) for ta in draw_arrivals(lam2, gen_lam[1], dt)]
            arr.sort(key=lambda pair: pair[1])
            step = step_wise_cost(n1, n2, arr, dt, c1, c2, beta)
            a1 = sum(1 for cls, _ in arr if cls == 0)
            a2 = len(arr) - a1
            if l1 == 0:
                nxt = (n1 - 1 + a1, n2 + a2, l1)
            else:
                nxt = (n1 + a1, n2 - 1 + a2, l1)
        else:
            dt = cfg.switch_dists[l1].sample(gen_switch[l1])
            arr = [(0, ta) for ta in draw_arrivals(lam1, gen_lam[0], dt)]
            arr += [(1, ta) for ta in draw_arrivals(lam2, gen_lam[1], dt)]
            arr.sort(key=lambda pair: pair[1])
            step = step_wise_cost(n1, n2, arr, dt, c1, c2, beta)
            step += cfg.switch_costs[l1]
            a1 = sum(1 for cls, _ in arr if cls == 0)
            a2 = len(arr) - a1
            nxt = (n1 + a1, n2 + a2, 1 - l1)
        for key, value in zip(rec, (n1, n2, l1, a, step, dt, t, tuple(arr))):
            rec[key].append(value)
        n1, n2, l1 = nxt
        t += dt
    return rec


@pytest.mark.parametrize("case, name", _case_names(sorted(BATCH_CASES)))
def test_simulate_trace_matches_per_draw_oracle(case, name):
    """Block-buffered draws give the per-draw trajectory bit for bit, past
    the first block of an arrival substream."""
    cfg = BATCH_CASES[case]
    policy = _case_policies(cfg)[name]
    x0, seed, T = (1, 2, 1), 11, 200.0 if case == "slow_mode" else 400.0
    tr = simulate_trace(cfg, policy, T, seed=seed, x0=x0)
    want = _reference_trace(cfg, _case_policies(cfg)[name], x0, seed, T)
    for key in ("n1", "n2", "l1", "action", "cost", "dt", "t"):
        assert np.array_equal(getattr(tr, key), want[key]), key
    assert tr.arrivals == want["arrivals"]
    # every step reads one gap of each class besides its arrivals; a case
    # without arrivals has no gap substream to read past its first block
    arrived = [sum(1 for arr in tr.arrivals for c, _ in arr if c == cls) for cls in (0, 1)]
    if any(cfg.arrival_rates):
        assert len(tr) + max(arrived) > simulate._GAP_BLOCK


def _math_exp_step_cost(n1, n2, arrivals, dt, c1, c2, beta):
    """A step's cost by the formula with one ``math.exp`` per value, kept as
    the reference for the simulator's ``np.exp`` pass."""
    base = c1 * n1 + c2 * n2
    total = (base / beta) * (1.0 - math.exp(-beta * dt)) if base else 0.0
    edt = math.exp(-beta * dt)
    for cls, ta in arrivals:
        total += ((c1 if cls == 0 else c2) / beta) * (math.exp(-beta * ta) - edt)
    return total


@pytest.mark.parametrize("case, name", _case_names(sorted(BATCH_CASES)))
def test_costs_match_math_exp_reference(case, name):
    """``np.exp`` can differ from ``math.exp`` in the last bit: each step
    cost stays within 1e-14 of its scale and the rollout within 1e-13
    relative of the ``math.exp`` reference.

    A step's scale is (c1 n1 + c2 n2 + the c of each arrival) / beta, the
    factor that multiplies an exponential's error.  Relative to the cost
    itself the error is unbounded: 1 - e^(-beta dt) cancels for short steps.
    """
    cfg = BATCH_CASES[case]
    policy = _case_policies(cfg)[name]
    x0, seed, T = (1, 2, 1), 11, 200.0 if case == "slow_mode" else 400.0
    tr = simulate_trace(cfg, policy, T, seed=seed, x0=x0)
    want, scale = [], []
    for n1, n2, l1, a, dt, arr in zip(tr.n1.tolist(), tr.n2.tolist(), tr.l1.tolist(),
                                      tr.action.tolist(), tr.dt.tolist(), tr.arrivals):
        want.append(_math_exp_step_cost(n1, n2, arr, dt, cfg.c1, cfg.c2, cfg.beta)
                    + (cfg.switch_costs[l1] if a == SWITCH else 0.0))
        arrived = [sum(c == cls for c, _ in arr) for cls in (0, 1)]
        scale.append((cfg.c1 * (n1 + arrived[0]) + cfg.c2 * (n2 + arrived[1])) / cfg.beta)
    assert np.all(np.abs(tr.cost - want) <= 1e-14 * np.array(scale))
    total = 0.0
    for t, step in zip(tr.t.tolist(), want):
        total += math.exp(-cfg.beta * t) * step
    got = rollout(cfg, policy, _point_dist(cfg, *x0), seed, T)
    assert got == pytest.approx(total, rel=1e-13, abs=0)


def test_arrival_log_needs_no_per_step_sort():
    """The scalar loop logs a step's arrivals class by class, not in time
    order.  ``arrivals`` gives them in time order with class 0 first on a
    tie, as a stable sort by time does, and `_costs` charges every order of
    a step's log entries with the same bits."""
    dt = np.array([1.3, 0.6, 2.0])
    step = np.array([2, 0, 0, 2, 0, 0, 2])
    cls = np.array([0, 0, 1, 1, 1, 0, 0])
    when = np.array([1.5, 0.7, 0.3, 0.25, 0.05, 0.3, 0.1])  # 0.3: a class 0/1 tie
    trace = RolloutTrace(
        n1=np.array([2, 0, 1], dtype=np.int32), n2=np.array([1, 3, 0], dtype=np.int32),
        l1=np.zeros(3, dtype=np.int32), action=np.full(3, SWITCH, dtype=np.int32),
        cost=np.zeros(3), dt=dt, t=np.array([0.0, 1.3, 1.9]), horizon=3.9,
        arrival_step=step, arrival_class=cls, arrival_time=when)
    entries = sorted(zip(step.tolist(), cls.tolist(), when.tolist()), key=lambda e: e[1])
    for k in range(3):
        arr = [(c, w) for s, c, w in entries if s == k]  # class 0's first, as the oracle
        arr.sort(key=lambda pair: pair[1])
        assert trace.arrivals[k] == tuple(arr)
    assert trace.arrivals[0] == ((1, 0.05), (0, 0.3), (1, 0.3), (0, 0.7))
    assert trace.arrivals[1] == ()

    cfg = slow_mode_config()
    costs = set()
    for perm in itertools.permutations(np.flatnonzero(step == 0)):
        order = np.arange(len(step))
        order[step == 0] = perm
        total = np.zeros(1)
        cost = simulate._costs(
            total, np.zeros(3, dtype=int), trace.t, dt, cfg.c1 * trace.n1 + cfg.c2 * trace.n2,
            np.zeros(3), step[order], when[order], cls[order], cfg.c1, cfg.c2, cfg.beta)
        costs.add((cost.tobytes(), total.tobytes()))
    assert len(costs) == 1


def test_np_exp_is_elementwise_and_position_independent():
    """Scalar and batch costs agree bit for bit because ``np.exp`` gives an
    entry the same bits alone as at any offset of a longer array."""
    cfg = slow_mode_config()
    T = 200.0
    x = -cfg.beta * np.random.default_rng(9).uniform(0.0, 10 * T, 100_000)
    e = np.exp(x)
    alone = np.array([np.exp(x[i:i + 1])[0] for i in range(len(x))])
    assert np.array_equal(alone, e)
    for cut in range(1, 17):
        assert np.array_equal(np.exp(x[cut:]), e[cut:])
        assert np.array_equal(np.exp(x[:-cut]), e[:-cut])


@pytest.mark.parametrize("kind", ["zero", "nan", "inf"])
def test_initial_dist_needs_a_finite_positive_total(kind):
    """An all-zero, all-NaN or inf-holding pmf is rejected; it used to start
    every rollout from the last state of the box."""
    cfg = exp_config(X1=2, X2=2)
    dist = {"zero": np.zeros(18), "nan": np.full(18, np.nan), "inf": np.full(18, 1.0)}[kind]
    if kind == "inf":
        dist[4] = np.inf
    with pytest.raises(ValueError, match="pmf over the state box"):
        rollout(cfg, ExhaustivePolicy(), dist, 0, 10.0)
    with pytest.raises(ValueError, match="pmf over the state box"):
        sample_performance(cfg, [ExhaustivePolicy()], dist, 0, 10.0, 4)


def test_simulate_trace_rejects_nonpositive_horizon():
    cfg = exp_config(X1=2, X2=2)
    for T in (0.0, -5.0):
        with pytest.raises(ValueError, match="horizon"):
            simulate_trace(cfg, ExhaustivePolicy(), T)


@pytest.mark.parametrize("x0", [(-1, 3, 0), (21, 0, 0), (0, 21, 1), (0, 0, 2), (1.0, 0, 0),
                                (0, 0)])
def test_simulate_trace_rejects_start_outside_cap_box(x0):
    """The cap box of X1 = X2 = 2 is [0, 20] x [0, 20] x {0, 1}."""
    cfg = exp_config(X1=2, X2=2)
    idle = TabularPolicy(np.full(18, IDLE), 2, 2)
    with pytest.raises(ValueError, match="initial state"):
        simulate_trace(cfg, idle, 50.0, x0=x0)
    tr = simulate_trace(cfg, ExhaustivePolicy(), 5.0, x0=(np.int64(3), 0, 1))
    assert tr.n1[0] == 3 and tr.l1[0] == 1


def test_queue_overflow_detected():
    cfg = exp_config(lambda1=2.0, lambda2=0.0, serve1=Exponential(5.0),
                     X1=1, X2=1)
    with pytest.raises(QueueOverflowError):
        simulate_trace(cfg, TabularPolicy(np.full(8, IDLE), 1, 1), T=2000.0, seed=0,
                       x0=(0, 0, 0))


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


@pytest.mark.parametrize("stat", [
    embedded_stationary,
    action_time_fractions,
    lambda tr, burn_in: simulate.work_fraction(tr, exp_config(), burn_in),
])
def test_negative_burn_in_rejected(stat):
    """A negative burn_in is an error, not "the last |burn_in| entries"."""
    tr = RolloutTrace(
        n1=np.zeros(20, dtype=np.int32), n2=np.zeros(20, dtype=np.int32),
        l1=np.zeros(20, dtype=np.int32), action=np.zeros(20, dtype=np.int32),
        cost=np.zeros(20), dt=np.ones(20), t=np.arange(20, dtype=float),
        horizon=20.0,
    )
    stat(tr, burn_in=0)
    with pytest.raises(ValueError, match="burn_in must be non-negative"):
        stat(tr, burn_in=-5)


def test_embedded_stationary_matches_linear_solve():
    """Long-trace frequencies against the stationary vector of P_pi."""
    cfg = asym_var_config(X1=12, X2=12, N1=12, N2=12)
    model = build_smdp(cfg)
    idx = model.indexer
    actions = np.array([
        exhaustive_action(*idx.unflatten(x)) for x in range(model.n_states)
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
    from pollsys.simulate import limit_cycle_cells

    pure = LimitCycle(
        c1=(0.0, 2.0), c2=(0.0, 2.0), c3=(50.0, 50.0), c4=(2.0, 0.0),
        c5=(1.0, 1.0), alpha1=0.0, kind=CycleKind.PURE_BOW_TIE,
        slow_mode_value=0.0, priority_queue=1,
    )
    cells = limit_cycle_cells(pure)
    assert (50, 50) not in cells  # C3 plays no role in a pure bow-tie
    truncated = LimitCycle(
        c1=(0.0, 2.0), c2=(0.0, 3.0), c3=(50.0, 50.0), c4=(2.0, 0.0),
        c5=(1.0, 1.0), alpha1=0.5, kind=CycleKind.TRUNCATED_BOW_TIE,
        slow_mode_value=-1.0, priority_queue=1,
    )
    assert (50, 50) in limit_cycle_cells(truncated)


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
    got = pol.action_table(exp_config(X1=2, X2=2))
    assert got[0, 10, 0, 0] == SERVE
