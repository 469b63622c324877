import itertools

import numpy as np
import pytest
from scipy import sparse

from pollsys import (
    build_nonpreemptive,
    build_smdp,
    build_value_graph,
    policy_evaluate,
    policy_improve,
    policy_iteration,
    value_iterate,
)
from pollsys.baselines import exhaustive_start
from pollsys.cli import WARM_START_EPS, export_policy_csv, solve_policies
from pollsys.solver import (
    DENSE_BUDGET_BYTES,
    UPDATE_RANK_DIVISOR,
    SingularSystemError,
    _Factorization,
    _dense,
    _greedy_actions,
    _vi_phases,
    initial_policy,
)

from conftest import (
    TabularModel,
    assemble_policy_matrix,
    asym_var_config,
    build_preemptive,
    exhaustive_action,
    exp_config,
    record_policy_evaluations,
    slow_mode_config,
)


def single_state_model(cost=1.0, disc=0.5):
    return TabularModel(
        n_states=1,
        rows={(0, 0): ([0], [1.0], [disc], cost)},
        feasible={0: (0,)},
    )


def two_state_alternation():
    # deterministic swap with discount 0.9 per step, costs (1, 0)
    rows = {
        (0, 0): ([1], [1.0], [0.9], 1.0),
        (1, 0): ([0], [1.0], [0.9], 0.0),
    }
    return TabularModel(n_states=2, rows=rows, feasible={0: (0,), 1: (0,)})


def test_policy_evaluate_geometric():
    J = policy_evaluate(single_state_model(), np.array([0]))
    assert J[0] == pytest.approx(2.0, abs=1e-12)


def test_policy_evaluate_two_cycle():
    J = policy_evaluate(two_state_alternation(), np.array([0, 0]))
    assert J[0] == pytest.approx(1.0 / (1 - 0.81), abs=1e-9)
    assert J[1] == pytest.approx(0.9 / (1 - 0.81), abs=1e-9)


def test_policy_evaluate_zero_costs():
    model = TabularModel(
        n_states=2,
        rows={
            (0, 0): ([1], [1.0], [0.8], 0.0),
            (1, 0): ([0], [1.0], [0.8], 0.0),
        },
        feasible={0: (0,), 1: (0,)},
    )
    assert np.allclose(policy_evaluate(model, np.array([0, 0])), 0.0)


def test_policy_evaluate_detects_linking_cycle():
    model = TabularModel(
        n_states=2,
        rows={
            (0, 0): ([1], [1.0], [1.0], 0.0),
            (1, 0): ([0], [1.0], [1.0], 0.0),
        },
        feasible={0: (0,), 1: (0,)},
    )
    with pytest.raises(SingularSystemError):
        policy_evaluate(model, np.array([0, 0]))


def test_policy_improve_prefers_cheap_action():
    rows = {
        (0, 0): ([0], [1.0], [0.5], 0.0),  # idle-like, cost 0
        (0, 1): ([0], [1.0], [0.5], 1.0),  # serve-like, cost 1
    }
    model = TabularModel(n_states=1, rows=rows, feasible={0: (0, 1)})
    actions, changed = policy_improve(model, np.zeros(1))
    assert actions[0] == 0 and changed


def test_policy_improve_dominance_and_ties():
    # identical rows, lower cost dominates; exact ties resolve to the
    # smallest action id
    rows = {
        (0, 0): ([0], [1.0], [0.9], 2.0),
        (0, 1): ([0], [1.0], [0.9], 1.0),
        (0, 2): ([0], [1.0], [0.9], 1.0),
    }
    model = TabularModel(n_states=1, rows=rows, feasible={0: (0, 1, 2)})
    actions, _ = policy_improve(model, np.zeros(1))
    assert actions[0] == 1


def brute_force_best(model, horizon_tol=1e-12):
    best_actions, best_J = None, None
    graph = model.graph
    spaces = [graph.q_action[graph.q_state == x] for x in np.flatnonzero(graph.decision_mask)]
    for combo in itertools.product(*spaces):
        actions = np.array(combo)
        J = policy_evaluate(model, actions)
        if best_J is None or (J <= best_J + horizon_tol).all() and J.sum() < best_J.sum():
            best_J, best_actions = J, actions
    return best_actions, best_J


def test_policy_iteration_matches_brute_force(rng):
    # random 2-state, 2-action MDP; enumeration is the oracle
    for trial in range(5):
        rows = {}
        for x in range(2):
            for a in range(2):
                p = rng.uniform(0.1, 1.0, size=2)
                p /= p.sum()
                disc = 0.85 * p
                rows[(x, a)] = ([0, 1], p, disc, float(rng.uniform(0, 2)))
        model = TabularModel(n_states=2, rows=rows, feasible={0: (0, 1), 1: (0, 1)})
        pol = policy_iteration(model)
        _, best_J = brute_force_best(model)
        assert np.allclose(pol.J, best_J, atol=1e-9)


def test_policy_iteration_fixed_point_terminates_fast():
    model = two_state_alternation()
    pol = policy_iteration(model, pi0=np.array([0, 0]))
    assert pol.converged and pol.iterations == 1


def fresh_policy_iteration(model):
    """Policy iteration by a loop of standalone evaluations: the J and the
    improved actions of each step."""
    actions, steps = initial_policy(model), []
    while True:
        J = policy_evaluate(model, actions)
        new_actions, changed = policy_improve(model, J, actions)
        steps.append((J, new_actions))
        actions = new_actions
        if not changed:
            return steps


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_policy_iteration_reuse_matches_fresh_solves(make_cfg, monkeypatch):
    model = build_smdp(make_cfg())
    fresh = fresh_policy_iteration(model)
    history = record_policy_evaluations(monkeypatch)
    pol = policy_iteration(model)
    assert pol.converged and pol.iterations == len(fresh) == len(history)
    for J, (J_fresh, actions) in zip(history, fresh):
        assert np.abs(J - J_fresh).max() <= 1e-10 * np.abs(J_fresh).max()
        assert np.array_equal(policy_improve(model, J)[0], actions)
    assert np.array_equal(pol.actions, fresh[-1][1])
    decision = model.graph.decision_mask
    sequence = [initial_policy(model)] + [actions for _, actions in fresh]
    assert pol.changes == [np.count_nonzero(a[decision] != b[decision])
                           for a, b in zip(sequence, sequence[1:])]
    assert 1 <= pol.factorizations < pol.iterations - 1


def test_low_rank_update_refactors_past_rank_limit(rng):
    """A dense tabular model evaluated through one holder: a one-row change
    is an update, a change of more than n / UPDATE_RANK_DIVISOR rows since
    the factorisation or a failed residual check forces a fresh factor, and
    every J matches a standalone solve."""
    n = 8
    rows = {}
    for x in range(n):
        for a in (0, 1):
            p = rng.uniform(0.1, 1.0, size=n)
            p /= p.sum()
            rows[(x, a)] = (list(range(n)), p, 0.95 * p, float(rng.uniform(0, 2)))
    model = TabularModel(n_states=n, rows=rows, feasible={x: (0, 1) for x in range(n)})
    factor = _Factorization()
    base = np.zeros(n, dtype=int)
    one_row = base.copy()
    one_row[0] = 1
    many_rows = one_row.copy()
    many_rows[1:n // UPDATE_RANK_DIVISOR + 1] = 1
    after = many_rows.copy()
    after[-1] = 1
    for actions, count in ((base, 1), (one_row, 1), (many_rows, 2), (after, 2)):
        J = policy_evaluate(model, actions, factor)
        assert factor.count == count
        assert np.abs(J - policy_evaluate(model, actions)).max() <= 1e-12
    assert list(factor.rows) == [n - 1]
    # an update that misses the residual check is replaced by a fresh factor;
    # refinement repairs a merely perturbed Z, so the miss is forced by a NaN
    factor.Z[:, 0] = np.nan
    J = policy_evaluate(model, after, factor)
    assert factor.count == 3 and len(factor.rows) == 0
    assert np.abs(J - policy_evaluate(model, after)).max() <= 1e-12


def test_ill_conditioned_policy_falls_back_to_float64(rng):
    """At discount 1 - 1e-7 the uniform rows give I - A_pi a condition number
    near 1.8e7.  Rounding them to float32 moves 1 - discount by about a fifth,
    so float32 refinement cannot meet the residual check: the evaluation is
    factored again in float64, which meets it, and policy iteration counts
    that factorisation."""
    n = 8
    p = np.full(n, 1.0 / n)
    rows = {(x, 0): (list(range(n)), p, (1.0 - 1e-7) * p, float(rng.uniform(0, 2)))
            for x in range(n)}
    model = TabularModel(n_states=n, rows=rows, feasible={x: (0,) for x in range(n)})
    A, cost = assemble_policy_matrix(model, np.zeros(n, dtype=int))
    system = np.eye(n) - A.toarray()
    assert np.linalg.cond(system, 1) > 1e7
    pol = policy_iteration(model)
    assert (pol.iterations, pol.factorizations, pol.float64_factorizations) == (1, 2, 1)
    assert np.abs(system @ pol.J - cost).max() <= 1e-8 * max(np.abs(cost).max(), 1.0)


def test_dense_path_memory_rule():
    """A policy takes the dense LU while more than 2% of A_pi's entries are
    set and its float32 factor and update block, 5 n^2 bytes, fit the
    512 MiB budget: up to n = 10362.  Up to n = 6000 the density alone
    decides, so no SMDP at X <= 40 (n <= 3362) leaves the dense path."""
    assert DENSE_BUDGET_BYTES == 512 << 20
    assert 4 * 10362 ** 2 + 10362 * (10362 // UPDATE_RANK_DIVISOR) * 4 <= DENSE_BUDGET_BYTES
    for n in (2, 72, 3362, 6000, 6001, 8450, 10362):
        assert _dense(n, n * n)
        assert _dense(n, int(0.02 * n * n) + 1)
        assert not _dense(n, int(0.02 * n * n))
    for n in (10363, 20000):
        assert not _dense(n, n * n)
    assert not _dense(0, 0)
    for n in range(1, 6001):
        for nnz in (n, int(0.02 * n * n), int(0.02 * n * n) + 1, n * n):
            assert _dense(n, nnz) == (nnz / (n * n) > 0.02)


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_policy_iteration_reuse_at_bundle_scale(make_cfg):
    """At X=24, N=20 the updated evaluations reach the fresh-solve loop's
    final actions in as many iterations, and every factorisation, there and
    in the warm-started solve the bundle runs, is float32."""
    cfg = make_cfg(X1=24, X2=24, N1=20, N2=20)
    model = build_smdp(cfg)
    fresh = fresh_policy_iteration(model)
    pol = policy_iteration(model)
    assert pol.iterations == len(fresh)
    assert np.array_equal(pol.actions, fresh[-1][1])
    assert pol.float64_factorizations == 0 < pol.factorizations
    _, diag = solve_policies(cfg, ["smdp"])
    assert diag["smdp"]["float64_factorizations"] == 0 < diag["smdp"]["factorizations"]


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_exhaustive_start_reaches_idle_start_actions(make_cfg):
    """From the exhaustive rule, SMDP policy iteration at X=24, N=20 ends
    at the all-idle start's actions."""
    model = build_smdp(make_cfg(X1=24, X2=24, N1=20, N2=20))
    idle = policy_iteration(model)
    pol = policy_iteration(model, exhaustive_start(model))
    assert idle.converged and pol.converged
    assert np.array_equal(pol.actions, idle.actions)


@pytest.mark.parametrize("build", [build_preemptive, build_nonpreemptive])
@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_exhaustive_start_reaches_idle_start_actions_ctmdp(make_cfg, build):
    model = build(make_cfg(X1=8, X2=8, N1=8, N2=8).with_exponential_durations())
    idle = policy_iteration(model)
    pol = policy_iteration(model, exhaustive_start(model))
    assert idle.converged and pol.converged
    d = model.graph.decision_mask
    assert np.array_equal(pol.actions[d], idle.actions[d])


@pytest.mark.parametrize("build", [
    build_smdp,
    lambda cfg: build_preemptive(cfg.with_exponential_durations()),
    lambda cfg: build_nonpreemptive(cfg.with_exponential_durations()),
])
def test_exhaustive_start_is_feasible_exhaustive_rule(build):
    """At every decision state the start is the scalar exhaustive rule and
    one of the state's nodes; elsewhere it is -1."""
    model = build(slow_mode_config(X1=4, X2=3, N1=4, N2=4))
    graph = model.graph
    start = exhaustive_start(model)
    decision = graph.decision_mask
    assert start.shape == (model.n_states,)
    assert np.all(start[~decision] == -1)
    follows = graph.q_action == start[graph.q_state]
    assert np.all(np.bincount(graph.q_state[follows], minlength=graph.n_states)[decision] == 1)
    for x in np.flatnonzero(decision):
        n1, n2, l1 = model.indexer.unflatten(x)[:3]
        assert start[x] == exhaustive_action(n1, n2, l1)


def test_policy_iteration_changes_count_from_pi0():
    model = build_smdp(slow_mode_config(X1=6, X2=6, N1=6, N2=6))
    pi0 = exhaustive_start(model)
    pol = policy_iteration(model, pi0)
    first, _ = policy_improve(model, policy_evaluate(model, pi0))
    decision = model.graph.decision_mask
    assert pol.changes[0] == np.count_nonzero(first[decision] != pi0[decision]) > 0
    assert policy_iteration(model, pol.actions).changes == [0]


@pytest.mark.parametrize("pi0", [[0], [0, 0, 0], [[0, 0]]])
def test_policy_iteration_rejects_wrong_length_pi0(pi0):
    with pytest.raises(ValueError, match=r"pi0 has shape .* 2 states"):
        policy_iteration(two_state_alternation(), pi0=pi0)


def test_policy_iteration_monotone_J(slow_cfg, monkeypatch):
    cfg = slow_mode_config(X1=6, X2=6, N1=6, N2=6)
    model = build_smdp(cfg)
    hist = record_policy_evaluations(monkeypatch)
    pol = policy_iteration(model)
    assert pol.converged
    assert len(hist) >= 2
    for earlier, later in zip(hist, hist[1:]):
        assert np.all(later <= earlier + 1e-9)


def test_value_iterate_zero_costs():
    model = TabularModel(
        n_states=2,
        rows={
            (0, 0): ([1], [1.0], [0.8], 0.0),
            (1, 0): ([0], [1.0], [0.8], 0.0),
        },
        feasible={0: (0,), 1: (0,)},
    )
    pol = value_iterate(build_value_graph(model), eps=1e-12)
    assert pol.iterations == 1 and np.allclose(pol.J, 0.0)


def test_value_iterate_divides_out_self_loop():
    # J = 1 + 0.5 J is swept as J = 1 / (1 - 0.5): exact after one sweep,
    # and the second sees no change
    pol = value_iterate(build_value_graph(single_state_model()))
    assert pol.J[0] == 2.0 and pol.iterations == 2 and pol.converged
    assert pol.residual == 0.0 and pol.error_bound == 0.0


def test_value_iterate_geometric_sweep_count():
    pol = value_iterate(build_value_graph(two_state_alternation()), eps=1e-6)
    assert pol.J == pytest.approx([1.0 / 0.19, 0.9 / 0.19], abs=1e-4)
    # each sweep updates both states from the previous values, so the k-th
    # sweep changes one state by 0.9^(k-1): the first change <= 1e-6 is at k = 133
    assert 130 <= pol.iterations <= 136


def test_value_iterate_nonconvergence_report():
    pol = value_iterate(build_value_graph(two_state_alternation()), eps=1e-14, maxiter=3)
    assert not pol.converged
    assert pol.residual > 1e-14
    assert pol.iterations == 3


def test_cross_algorithm_agreement_slow_mode():
    cfg = slow_mode_config(X1=8, X2=8, N1=8, N2=8).with_exponential_durations()
    model = build_nonpreemptive(cfg)
    pi_pol = policy_iteration(model)
    vi_pol = value_iterate(build_value_graph(model))
    assert vi_pol.converged
    d = model.graph.decision_mask
    assert np.array_equal(pi_pol.actions[d], vi_pol.actions[d])
    assert np.abs(pi_pol.J - vi_pol.J).max() < 1e-4


def test_value_iterate_on_smdp_graph_matches_policy_iteration():
    # the semi-Markov graph discounts each entry by its own factor
    cfg = slow_mode_config(X1=8, X2=8, N1=8, N2=8)
    model = build_smdp(cfg)
    vi = value_iterate(build_value_graph(model))
    assert vi.converged
    assert np.array_equal(vi.actions, policy_iteration(model).actions)


def divide_self_loops(graph):
    """The graph's costs and discounted rows with each self-loop of
    discounted probability 0 < p < 1 divided out, node by node: cost
    c / (1 - p), every other entry d / (1 - p), no self entry."""
    cost = graph.q_cost.copy()
    data, cols, indptr = [], [], [0]
    for node in range(graph.n_nodes):
        entries = range(graph.q_indptr[node], graph.q_indptr[node + 1])
        loops = [e for e in entries
                 if graph.q_cols[e] == graph.q_state[node] and 0.0 < graph.q_dprobs[e] < 1.0]
        rest = 1.0 - graph.q_dprobs[loops[0]] if loops else 1.0
        cost[node] /= rest
        for e in entries:
            if e not in loops:
                data.append(graph.q_dprobs[e] / rest)
                cols.append(graph.q_cols[e])
        indptr.append(len(data))
    return cost, sparse.csr_matrix((data, cols, indptr), shape=(graph.n_nodes, graph.n_states))


def segment_minimum_value_iterate(graph, eps, maxiter):
    """Value iteration by per-phase segment minima (``np.minimum.reduceat``)
    over the rows with their self-loops divided out, and per-phase change
    measurements on every sweep, with the greedy step's two segment minima
    on the original rows: the sweep that the padded layout replaced, kept as
    its oracle.  Returns (J, sweeps, converged, residual, actions)."""
    node_is_decision = graph.decision_mask[graph.q_state]
    divided_cost, divided_rows = divide_self_loops(graph)
    phases = []
    for decision in (False, True):
        states = np.flatnonzero(graph.decision_mask == decision)
        if len(states):
            nodes = np.flatnonzero(node_is_decision == decision)
            starts = np.concatenate(([0], np.cumsum(graph.state_nq[states])[:-1]))
            phases.append((states, divided_rows[nodes], divided_cost[nodes], starts))
    J = np.zeros(graph.n_states)
    sweeps, converged = 0, False
    while sweeps < maxiter:
        sweeps += 1
        delta = 0.0
        for states, rows, cost, starts in phases:
            best = np.minimum.reduceat(cost + rows @ J, starts)
            delta = max(delta, float(np.abs(best - J[states]).max()))
            J[states] = best
        if delta <= eps:
            converged = True
            break
    q = graph.q_cost + graph.discounted @ J
    best = np.repeat(np.minimum.reduceat(q, graph.node_start), graph.state_nq)
    node = np.minimum.reduceat(np.where(q == best, np.arange(len(q)), len(q)), graph.node_start)
    return J, sweeps, converged, delta, graph.q_action[node]


def assert_matches_oracle(graph, eps, maxiter=100000):
    """value_iterate returns the oracle's values, sweeps, convergence,
    residual and greedy actions."""
    pol = value_iterate(graph, eps=eps, maxiter=maxiter)
    J, sweeps, converged, residual, actions = segment_minimum_value_iterate(graph, eps, maxiter)
    assert pol.converged == converged
    assert np.array_equal(pol.J, J)
    assert pol.iterations == sweeps and pol.residual == residual
    assert np.array_equal(pol.actions, actions)
    return pol


def assert_matches_segment_minimum(graph):
    """value_iterate equals the oracle at the default eps, at the warm
    start's loose eps, and cut off by a maxiter below the default stop
    sweep, where the residual is the last sweep's change."""
    scale = float(np.abs(graph.q_cost).max())
    stop = assert_matches_oracle(graph, 1e-8 * scale)
    assert stop.converged
    assert assert_matches_oracle(graph, WARM_START_EPS * scale).converged
    if stop.iterations > 1:
        cut = assert_matches_oracle(graph, 1e-8 * scale, stop.iterations // 2)
        assert not cut.converged and cut.iterations == stop.iterations // 2


@pytest.mark.parametrize("build", [
    build_smdp,
    lambda cfg: build_preemptive(cfg.with_exponential_durations()),
    lambda cfg: build_nonpreemptive(cfg.with_exponential_durations()),
], ids=["smdp", "preemptive", "nonpreemptive"])
@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_value_iterate_bit_identical_to_segment_minimum(make_cfg, build):
    assert_matches_segment_minimum(build(make_cfg(X1=8, X2=8, N1=8, N2=8)).graph)


def test_value_iterate_measures_every_sweep_that_could_stop():
    """State 0, first in sweep order, is exact after sweep 1 (its self-loop
    divided out), while states 1 and 2 swap values with discount 0.9 and
    move by more than eps for about 170 sweeps: its change bounds the
    sweep's largest change from below only, so the iteration must not stop
    on it."""
    rows = {
        (0, 0): ([0], [1.0], [0.5], 1.0),
        (1, 0): ([2], [1.0], [0.9], 1.0),
        (2, 0): ([1], [1.0], [0.9], 0.0),
    }
    model = TabularModel(n_states=3, rows=rows, feasible={x: (0,) for x in range(3)})
    assert _vi_phases(model.graph).order[0] == 0
    assert_matches_segment_minimum(model.graph)
    assert value_iterate(model.graph).iterations > 100


def random_tabular_model(rng, n_states, n_actions, links=()):
    """Random rows with discount 0.9, in the shape of the polling models'
    graphs.  State x offers the first ``n_actions[x]`` of actions 0, 1, 2;
    each ``(x, a, y)`` of ``links`` makes action a of state x a cost-0 link
    of discounted probability 1 into y, a state without a choice whose row
    reads every state.  Every other row reads the decision states only."""
    fixed = [y for _, _, y in links]
    decision = [x for x in range(n_states) if x not in fixed]

    def row(cols):
        p = rng.uniform(0.1, 1.0, size=len(cols))
        p /= p.sum()
        return list(cols), p, 0.9 * p, float(rng.uniform(0, 2))

    feasible = {x: tuple(range(n_actions[x])) for x in decision}
    rows = {(x, a): row(decision) for x, acts in feasible.items() for a in acts}
    rows.update({(x, a): ([y], [1.0], [1.0], 0.0) for x, a, y in links})
    return TabularModel(n_states, rows, feasible, {y: row(range(n_states)) for y in fixed})


def test_value_iterate_bit_identical_on_one_to_three_nodes(rng):
    """Decision states with 1, 2 and 3 nodes, one of them with two links,
    beside dynamics states."""
    model = random_tabular_model(rng, 9, [1, 2, 1, 3, 2, 1, 2, 1, 3],
                                 links=[(8, 1, 2), (8, 2, 5), (3, 2, 7)])
    assert list(model.graph.state_nq) == [1, 2, 1, 3, 2, 1, 2, 1, 3]
    sweep = _vi_phases(model.graph)
    assert sweep.n_dynamics == 3 and len(sweep.links) == 2  # both phases present
    assert_matches_segment_minimum(model.graph)


def test_value_iterate_bit_identical_on_decision_states_only(rng):
    model = random_tabular_model(rng, 6, [3, 1, 2, 3, 2, 1])
    assert _vi_phases(model.graph).n_dynamics == 0  # the decision phase only
    assert_matches_segment_minimum(model.graph)


def linking_tabular_model(rng, extra=None):
    """Decision states 0-2 and dynamics states 3-5 (discount 0.9): rows that
    read decision states only (0/a0, 1/a0, 2/a0) and cost-0 links (0/a1 to
    3, 0/a2 to 4, 1/a1 to 5).  With ``extra``, state 2 also takes action 1
    with that row."""
    def row(cols, cost):
        p = rng.uniform(0.1, 1.0, size=len(cols))
        p /= p.sum()
        return list(cols), p, 0.9 * p, cost

    def linking(col):
        return [col], [1.0], [1.0], 0.0

    rows = {
        (0, 0): row([0, 1, 2], 1.5), (0, 1): linking(3), (0, 2): linking(4),
        (1, 0): row([2, 0], 1.0), (1, 1): linking(5),
        (2, 0): row([0, 1], 2.0),
    }
    feasible = {0: (0, 1, 2), 1: (0, 1), 2: (0,)}
    if extra is not None:
        rows[(2, 1)] = extra
        feasible[2] = (0, 1)
    fixed = {3: row([0, 4], 1.0), 4: row([1, 2, 3], 0.5), 5: row([5, 0], 3.0)}
    return TabularModel(6, rows, feasible, fixed)


@pytest.mark.parametrize("extra, state", [
    (([1, 4], [0.5, 0.5], [0.45, 0.45], 1.0), 2),  # reads a dynamics state otherwise
    (([4], [1.0], [1.0], 0.5), 2),  # a link with a cost
    (([3], [1.0], [1.0], 0.0), 0),  # a second link into state 3, which 0/a1 links to
], ids=["reads_dynamics", "link_cost", "linked_twice"])
def test_value_iterate_rejects_graphs_the_models_do_not_build(rng, extra, state):
    """Value iteration names the state of the first decision node that is
    neither a row over decision states nor a cost-0 link into a dynamics
    state of its own; policy iteration still solves the graph."""
    model = linking_tabular_model(rng, extra)
    with pytest.raises(ValueError, match=f"decision node of state {state} reads a dynamics"):
        value_iterate(model.graph)
    assert policy_iteration(model).converged


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_value_iterate_bit_identical_at_x24(make_cfg):
    cfg = make_cfg(X1=24, X2=24, N1=20, N2=20).with_exponential_durations()
    assert_matches_segment_minimum(build_nonpreemptive(cfg).graph)


@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_polling_graphs_need_no_second_product(make_cfg):
    """Every decision node of the non-preemptive model reads decision states
    only or links to an in-progress state of its own, the shape value
    iteration accepts; each rank of links is one slice copy."""
    cfg = make_cfg(X1=8, X2=8, N1=8, N2=8).with_exponential_durations()
    sweep = _vi_phases(build_nonpreemptive(cfg).graph)
    assert sweep.depth == 3 and len(sweep.links) == 2
    assert all(isinstance(dst, slice) and isinstance(src, slice) for dst, src in sweep.links)


@pytest.mark.parametrize("X, N", [(8, 8), (24, 20)])
@pytest.mark.parametrize("make_cfg", [slow_mode_config, asym_var_config])
def test_value_iterate_error_bound_holds(make_cfg, X, N):
    """|J_VI - J*| <= rho / (1 - rho) * residual against exact policy
    iteration, and the same actions, on the non-preemptive and preemptive
    graphs, and on the SMDP graph at X=8."""
    cfg = make_cfg(X1=X, X2=X, N1=N, N2=N)
    models = [build_nonpreemptive(cfg.with_exponential_durations()),
              build_preemptive(cfg.with_exponential_durations())]
    if X == 8:
        models.append(build_smdp(cfg))
    for model in models:
        vi = value_iterate(build_value_graph(model))
        exact = policy_iteration(model, exhaustive_start(model))
        error = np.abs(vi.J - exact.J).max()
        assert 0 < error <= vi.error_bound < np.inf
        assert vi.error_bound < 1e-3
        assert np.array_equal(vi.actions, exact.actions)


def test_value_iterate_error_bound_on_linking_graph(rng):
    model = linking_tabular_model(rng)
    assert_matches_segment_minimum(model.graph)
    vi = value_iterate(model.graph, eps=1e-6)
    # linking rows pass on discount 1; every other row sums to 0.9
    assert vi.error_bound == pytest.approx(9.0 * vi.residual, rel=1e-12)
    # here the bound is attained, so allow the last bit of the exact values
    exact = policy_iteration(model).J
    assert np.abs(vi.J - exact).max() <= vi.error_bound + np.spacing(np.abs(exact).max())
    # a row of discounted sum 1 that is not linking leaves no bound
    lazy = TabularModel(1, {(0, 0): ([0], [1.0], [1.0], 0.0)}, {0: (0,)})
    assert value_iterate(lazy.graph, eps=0.0, maxiter=3).error_bound == np.inf


@pytest.mark.parametrize("field, where", [("q_cost", 0), ("q_cost", 2), ("q_dprobs", 3)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_non_finite_inputs(field, where, bad):
    """A NaN or inf cost or discounted probability is rejected before any
    sweep or solve, naming the state of the first bad node."""
    rows = {(0, a): ([0, 1], [0.5, 0.5], [0.45, 0.45], float(a)) for a in range(2)}
    model = TabularModel(n_states=2, rows=rows, feasible={0: (0, 1)},
                         fixed_rows={1: ([0, 1], [0.5, 0.5], [0.45, 0.45], 2.0)})
    getattr(model.graph, field)[where] = bad  # cost index = node, dprob index = entry
    state = 0 if where < 2 or field == "q_dprobs" else 1
    with pytest.raises(ValueError, match=f"state {state} has a non-finite"):
        value_iterate(model.graph)
    with pytest.raises(ValueError, match=f"state {state} has a non-finite"):
        policy_iteration(model)


def test_value_iterate_rejects_maxiter_below_one():
    with pytest.raises(ValueError, match="maxiter"):
        value_iterate(build_value_graph(single_state_model()), maxiter=0)


@pytest.mark.parametrize("action", [0, 1, 2])
def test_greedy_actions_reject_nan(action):
    """A NaN action value at any node of a state, first or not, is an error."""
    rows = {(0, a): ([0, 1], [0.5, 0.5], [0.45, 0.45], float(a)) for a in range(3)}
    rows[(0, action)] = ([0, 1], [0.5, 0.5], [0.45, 0.45], np.nan)
    model = TabularModel(n_states=2, rows=rows, feasible={0: (0, 1, 2)},
                         fixed_rows={1: ([0], [1.0], [0.9], 2.0)})
    with pytest.raises(ValueError, match="state 0 are NaN"):
        _greedy_actions(model.graph, np.zeros(2))


def test_contraction_property(rng):
    cfg = exp_config(X1=4, X2=4, N1=4, N2=4)
    model = build_smdp(cfg)
    actions = initial_policy(model)
    A, cost = assemble_policy_matrix(model, actions, discounted=True)
    alpha_max = np.asarray(A.sum(axis=1)).ravel().max()
    assert alpha_max < 1.0
    for _ in range(5):
        J1 = rng.uniform(0, 50, size=model.n_states)
        J2 = rng.uniform(0, 50, size=model.n_states)
        T1 = cost + A @ J1
        T2 = cost + A @ J2
        assert np.abs(T1 - T2).max() <= alpha_max * np.abs(J1 - J2).max() + 1e-12


def test_value_iteration_monotone_from_zero():
    # from J = 0 with non-negative costs, every sweep can only raise J
    cfg = slow_mode_config(X1=5, X2=5, N1=5, N2=5).with_exponential_durations()
    graph = build_value_graph(build_nonpreemptive(cfg))
    prev = np.zeros(graph.n_states)
    for k in range(1, 31):
        J = value_iterate(graph, eps=0.0, maxiter=k).J
        assert np.all(J >= prev - 1e-12)
        prev = J


def test_exact_ties_resolve_to_lowest_action():
    # idle and serve have identical rows at state 0, so equal Q for any J;
    # switch links to state 1, a dynamics state feeding state 0, and is
    # dearer (J = 10 at state 0 and 11 at state 1)
    rows = {
        (0, 0): ([0], [1.0], [0.9], 1.0),
        (0, 1): ([0], [1.0], [0.9], 1.0),
        (0, 2): ([1], [1.0], [1.0], 0.0),
    }
    model = TabularModel(n_states=2, rows=rows, feasible={0: (0, 1, 2)},
                         fixed_rows={1: ([0], [1.0], [0.9], 2.0)})
    assert_matches_segment_minimum(model.graph)
    vi = value_iterate(build_value_graph(model), eps=1e-12)
    pi = policy_iteration(model)
    assert vi.converged and pi.converged
    assert vi.actions[0] == 0 and pi.actions[0] == 0
    assert vi.actions[1] == -1 and pi.actions[1] == -1
    # with idle infeasible the tie moves to serve < switch
    rows[(0, 2)] = rows[(0, 1)]
    del rows[(0, 0)]
    model = TabularModel(n_states=2, rows=rows, feasible={0: (1, 2)},
                         fixed_rows={1: ([0], [1.0], [0.9], 2.0)})
    assert_matches_segment_minimum(model.graph)
    assert value_iterate(build_value_graph(model), eps=1e-12).actions[0] == 1
    assert policy_iteration(model).actions[0] == 1


def test_solver_determinism():
    cfg = slow_mode_config(X1=6, X2=6, N1=6, N2=6)
    model = build_smdp(cfg)
    p1 = policy_iteration(model)
    p2 = policy_iteration(model)
    assert np.array_equal(p1.actions, p2.actions)
    assert np.array_equal(p1.J, p2.J)


def test_evaluation_rejects_infeasible_policy():
    cfg = exp_config(X1=2, X2=2, N1=2, N2=2)
    model = build_smdp(cfg)
    actions = initial_policy(model)
    actions[model.indexer.flatten(0, 0, 0)] = 1  # serve an empty queue
    with pytest.raises(ValueError, match="infeasible"):
        policy_evaluate(model, actions)


def test_export_policy_csv(tmp_path):
    cfg = exp_config(X1=2, X2=2, N1=2, N2=2)
    model = build_smdp(cfg)
    pol = policy_iteration(model)
    paths = export_policy_csv(model.decision_table(pol.actions), cfg, tmp_path, "smdp")
    assert len(paths) == 2
    lines = (tmp_path / "policy_smdp_q1.csv").read_text().strip().splitlines()
    assert lines[0] == "n1,n2,l1,action"
    assert len(lines) == 1 + 9
    assert all(line.split(",")[2] == "0" for line in lines[1:])
    # whole files on an X1=1, X2=2 box: the table is indexed (n1, n2, l1), and
    # -1 (a state without an action) is written as a number
    cfg = exp_config(X1=1, X2=2, N1=2, N2=2)
    table = np.array([0, 2, 1, -1, 1, 0, 2, 2, 1, 1, 0, 0])
    export_policy_csv(table, cfg, tmp_path, "t")
    assert (tmp_path / "policy_t_q1.csv").read_bytes() == (
        b"n1,n2,l1,action\r\n"
        b"0,0,0,idle\r\n0,1,0,serve\r\n0,2,0,serve\r\n"
        b"1,0,0,switch\r\n1,1,0,serve\r\n1,2,0,idle\r\n"
    )
    assert (tmp_path / "policy_t_q2.csv").read_bytes() == (
        b"n1,n2,l1,action\r\n"
        b"0,0,1,switch\r\n0,1,1,-1\r\n0,2,1,idle\r\n"
        b"1,0,1,switch\r\n1,1,1,serve\r\n1,2,1,idle\r\n"
    )
