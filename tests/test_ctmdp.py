import numpy as np
import pytest

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    Exponential,
    Gamma,
    build_nonpreemptive,
    build_smdp,
    build_value_graph,
    exhaustive_start,
    policy_iteration,
)
from pollsys.cli import load_scenario
from pollsys.ctmdp import ModelError, uniformisation
from pollsys.model import idle_row

from conftest import PollingState, build_preemptive, exp_config, feasible_actions, slow_mode_config


def slow_exp_config(**kw):
    base = dict(
        lambda1=1.5, lambda2=0.4,
        serve1=Exponential(10.0), serve2=Exponential(2.0),
        switch12=Exponential(0.5), switch21=Exponential(1 / 3),
        c1=2.0, c2=1.0, beta=0.05, X1=4, X2=4, N1=4, N2=4,
    )
    base.update(kw)
    return exp_config(**{**base, **kw})


def test_preemptive_rates_and_discount():
    rates, gamma, alpha = uniformisation(slow_exp_config())
    assert rates.tolist() == [10.0, 2.0, 0.5, 1 / 3]
    assert gamma == pytest.approx(11.9)
    assert alpha == pytest.approx(11.9 / 11.95)
    assert alpha == pytest.approx(0.995816, abs=1e-6)


def test_preemptive_rejects_non_exponential():
    with pytest.raises(ModelError, match="got Gamma"):
        uniformisation(slow_mode_config())
    with pytest.raises(ModelError):
        build_preemptive(slow_mode_config())
    with pytest.raises(ModelError):
        build_nonpreemptive(exp_config(serve1=Gamma(2, 0.2)))


def test_preemptive_idle_row():
    model = build_preemptive(slow_exp_config())
    idx = model.indexer
    x = idx.flatten(1, 1, 0)
    cols, plain, disc, cost = model.graph.row(x, IDLE)
    row = dict(zip(cols.tolist(), plain.tolist()))
    assert row[idx.flatten(2, 1, 0)] == pytest.approx(1.5 / 11.9)
    assert row[idx.flatten(1, 2, 0)] == pytest.approx(0.4 / 11.9)
    assert row[x] == pytest.approx(1 - 1.9 / 11.9)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(disc, uniformisation(model.cfg)[2] * plain)


def test_preemptive_serve_row():
    model = build_preemptive(slow_exp_config())
    idx = model.indexer
    cols, plain, _, _ = model.graph.row(idx.flatten(1, 2, 0), SERVE)
    row = dict(zip(cols.tolist(), plain.tolist()))
    assert row[idx.flatten(0, 2, 0)] == pytest.approx(10.0 / 11.9)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_preemptive_cost_action_invariant():
    model = build_preemptive(slow_exp_config())
    idx = model.indexer
    x = idx.flatten(2, 1, 1)
    graph = model.graph
    costs = [graph.row(x, a)[3] for a in graph.q_action[graph.q_state == x]]
    assert costs == pytest.approx([(2.0 * 2 + 1.0 * 1) / 11.95] * len(costs))


def test_nonpreemptive_linking_rows():
    model = build_nonpreemptive(slow_exp_config())
    idx = model.indexer
    x = idx.flatten(2, 0, 0, 0)
    cols, plain, disc, cost = model.graph.row(x, SERVE)
    assert cols.tolist() == [idx.flatten(2, 0, 0, 1)]
    assert plain.tolist() == [1.0]
    assert disc.tolist() == [1.0]
    assert cost == 0.0
    cols, plain, disc, cost = model.graph.row(x, SWITCH)
    assert cols.tolist() == [idx.flatten(2, 0, 0, 2)]
    assert cost == 0.0 and disc.tolist() == [1.0]


def test_nonpreemptive_idle_row():
    model = build_nonpreemptive(slow_exp_config())
    idx = model.indexer
    x = idx.flatten(0, 0, 0, 0)
    cols, plain, disc, cost = model.graph.row(x, IDLE)
    row = dict(zip(cols.tolist(), plain.tolist()))
    gl = 1.9
    assert row == {
        idx.flatten(1, 0, 0, 0): pytest.approx(1.5 / gl),
        idx.flatten(0, 1, 0, 0): pytest.approx(0.4 / gl),
    }
    assert np.allclose(disc, (gl / (gl + 0.05)) * plain)
    assert cost == 0.0
    # no self transitions at interior idle rows
    for n1 in range(3):
        for n2 in range(3):
            y = idx.flatten(n1, n2, 1, 0)
            cols, _, _, _ = model.graph.row(y, IDLE)
            assert y not in cols.tolist()


def test_nonpreemptive_service_in_progress_row():
    model = build_nonpreemptive(slow_exp_config())
    idx = model.indexer
    x = idx.flatten(1, 1, 0, 1)
    cols, plain, disc, cost = model.graph.row(x)
    row = dict(zip(cols.tolist(), plain.tolist()))
    assert row[idx.flatten(0, 1, 0, 0)] == pytest.approx(10.0 / 11.9)
    assert row[idx.flatten(2, 1, 0, 1)] == pytest.approx(1.5 / 11.9)
    assert row[idx.flatten(1, 2, 0, 1)] == pytest.approx(0.4 / 11.9)
    # the self-loop remainder 1 - (mu1 + l1 + l2)/gamma vanishes here
    assert x not in row
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
    assert cost == pytest.approx((2.0 + 1.0) / 11.95)


def test_nonpreemptive_rows_stochastic_and_sparse():
    graph = build_nonpreemptive(slow_exp_config(X1=3, X2=3)).graph
    for x in np.flatnonzero(~graph.decision_mask):
        cols, plain, _, _ = graph.row(x)
        assert len(cols) <= 4
        assert plain.sum() == pytest.approx(1.0, abs=1e-12)
    for x in np.flatnonzero(graph.decision_mask):
        for a in graph.q_action[graph.q_state == x]:
            cols, plain, _, _ = graph.row(x, a)
            assert len(cols) <= 4
            assert plain.sum() == pytest.approx(1.0, abs=1e-12)


def test_nonpreemptive_reachability_structure():
    graph = build_nonpreemptive(slow_exp_config(X1=3, X2=3)).graph
    decision = set(np.flatnonzero(graph.decision_mask).tolist())
    for x in decision:
        for a in graph.q_action[graph.q_state == x]:
            cols, _, _, _ = graph.row(x, a)
            if a == IDLE:
                assert all(int(c) in decision for c in cols)
            else:
                assert all(int(c) not in decision for c in cols)


def test_discount_values_limited():
    # a row's discount is the ratio of its discounted to its plain entries
    cfg = slow_exp_config()
    graph = build_nonpreemptive(cfg).graph
    _, _, alpha = uniformisation(cfg)
    allowed = (1.0, alpha, idle_row(cfg)[1])
    for x in np.flatnonzero(graph.decision_mask):
        for a in graph.q_action[graph.q_state == x]:
            _, plain, disc, _ = graph.row(x, a)
            for d in disc / plain:
                assert min(abs(d - v) for v in allowed) < 1e-15
    for x in np.flatnonzero(~graph.decision_mask):
        _, plain, disc, _ = graph.row(x)
        assert disc / plain == pytest.approx(alpha)


def test_value_graph_counts():
    model = build_nonpreemptive(slow_exp_config(X1=2, X2=2))
    graph = build_value_graph(model)
    assert graph.n_states == 3 * 3 * 2 * 3
    assert graph.decision_mask.sum() == 3 * 3 * 2
    assert (~graph.decision_mask).sum() == 36
    # one node per feasible decision action plus one per dynamics state
    n_decision_nodes = sum(
        len(feasible_actions(PollingState(n1, n2, l1)))
        for n1 in range(3) for n2 in range(3) for l1 in range(2)
    )
    assert graph.n_nodes == n_decision_nodes + 36
    # dynamics nodes have at most four neighbours
    for i in range(graph.n_nodes):
        s = graph.q_state[i]
        if not graph.decision_mask[s]:
            assert graph.q_indptr[i + 1] - graph.q_indptr[i] <= 4
    # contiguous grouping: state ids never reappear after changing
    seen = []
    for s in graph.q_state:
        if not seen or seen[-1] != s:
            assert s not in seen
            seen.append(s)


def test_value_graph_probabilities_sum_to_one():
    model = build_nonpreemptive(slow_exp_config(X1=2, X2=2))
    graph = build_value_graph(model)
    for i in range(graph.n_nodes):
        lo, hi = graph.q_indptr[i], graph.q_indptr[i + 1]
        assert graph.q_probs[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("truncation", ["absorbing", "unassigned"])
@pytest.mark.parametrize("rates", [{}, {"lambda2": 0.0}, {"lambda1": 0.0, "lambda2": 0.0}],
                         ids=["given", "lambda2_zero", "no_arrivals"])
def test_smdp_idle_node_is_the_nonpreemptive_one(truncation, rates):
    """Both models idle by one rule: at every decision state the SMDP's idle
    node equals the non-preemptive model's bit for bit, its columns mapped
    from (n1, n2, l1) to (n1, n2, l1, 0)."""
    cfg = slow_mode_config(X1=5, X2=4, N1=5, N2=4, truncation_mode=truncation,
                           **rates).with_exponential_durations()
    smdp, npm = build_smdp(cfg), build_nonpreemptive(cfg)
    for x in range(smdp.n_states):
        cols, plain, disc, cost = smdp.graph.row(x, IDLE)
        want = npm.graph.row(npm.indexer.flatten(*smdp.indexer.unflatten(x), 0), IDLE)
        n1, n2, l1 = smdp.indexer.unflatten(cols)
        assert np.array_equal(npm.indexer.flatten(n1, n2, l1, np.zeros_like(cols)), want[0])
        assert np.array_equal(plain, want[1]) and np.array_equal(disc, want[2])
        assert cost == want[3]


def exponential_oracle_differences(scenario, X, N):
    """States with max(n1, n2) <= X - 8 where the SMDP and the CTMDP tables
    of ``scenario`` with every duration exponential differ, each solved by
    policy iteration from the exhaustive start: one decision problem away
    from the cap, so none once ROADMAP item 3's truncation is mended."""
    cfg = load_scenario(scenario, {"X1": X, "X2": X, "N1": N, "N2": N})
    cfg = cfg.with_exponential_durations()
    smdp, npm = build_smdp(cfg), build_nonpreemptive(cfg)
    tables = [m.decision_table(policy_iteration(m, exhaustive_start(m)).actions)
              for m in (smdp, npm)]
    n1, n2, l1 = smdp.indexer.unflatten(np.flatnonzero(tables[0] != tables[1]))
    inner = np.maximum(n1, n2) <= X - 8
    return list(zip(n1[inner].tolist(), n2[inner].tolist(), l1[inner].tolist()))


@pytest.mark.parametrize("scenario", [
    "asym_var",
    # ROADMAP item 3: the cap's clip reaches 8 or more states inside it,
    # e.g. at (14, 2, 1); flips to a pass once item 3 step 2 mends it
    pytest.param("slow_mode", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: truncation at the cap")),
])
def test_exponential_oracle_smdp_and_ctmdp_agree_inside_the_cap(scenario):
    assert exponential_oracle_differences(scenario, 24, 20) == []
