import math

import numpy as np
import pytest

from pollsys import (
    ACTIONS,
    IDLE,
    SERVE,
    SWITCH,
    Deterministic,
    PollingState,
    StateIndexer,
    build_action_model,
    build_arrival_summaries,
    build_smdp,
    feasible_actions,
    holding_cost_arrivals,
    holding_cost_existing,
)
from pollsys import smdp
from pollsys.model import triple_indexer
from pollsys.smdp import build_cost_vector, write_action_model_csv

from conftest import asym_var_config, exp_config, slow_mode_config

EXP_CFG = exp_config(lambda1=1.0, lambda2=1.0, X1=5, X2=5, N1=8, N2=8)


@pytest.fixture(scope="module")
def exp_summaries():
    return build_arrival_summaries(EXP_CFG)


@pytest.fixture(scope="module")
def exp_model(exp_summaries):
    return build_smdp(EXP_CFG, exp_summaries)


@pytest.fixture(scope="module")
def exp_action_models(exp_summaries):
    return {a: build_action_model(EXP_CFG, exp_summaries, a) for a in ACTIONS}


def test_idle_uniformisation_entries():
    cfg = asym_var_config(X1=4, X2=4, N1=4, N2=4)
    model = build_smdp(cfg)
    idx = model.indexer
    x = idx.flatten(0, 0, 0)
    cols, plain, disc, cost = model.graph.row(x, IDLE)
    want = {
        idx.flatten(1, 0, 0): 0.5,
        idx.flatten(0, 1, 0): 0.5,
    }
    assert dict(zip(cols.tolist(), plain.tolist())) == pytest.approx(want)
    assert disc == pytest.approx(np.array([0.5 * 1.6 / 1.65] * 2))
    assert disc[0] == pytest.approx(0.48485, abs=1e-5)
    assert cost == 0.0


def test_idle_cost_value():
    cfg = asym_var_config(X1=4, X2=4, N1=4, N2=4)
    model = build_smdp(cfg)
    idx = model.indexer
    _, _, _, cost = model.graph.row(idx.flatten(1, 0, 0), IDLE)
    assert cost == pytest.approx(1.0 / 1.65, abs=1e-9)
    assert cost == pytest.approx(0.60606, abs=1e-5)


def test_serve_zero_arrival_entry(exp_model, exp_summaries):
    idx = exp_model.indexer
    x = idx.flatten(1, 0, 0)
    cols, plain, _, _ = exp_model.graph.row(x, SERVE)
    p0 = exp_summaries["serve1"].P[0]
    target = idx.flatten(0, 0, 0)
    assert plain[cols.tolist().index(target)] == pytest.approx(p0, abs=1e-12)


def test_pooling_caps_overflow():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, X1=2, X2=2, N1=6, N2=6)
    summaries = build_arrival_summaries(cfg)
    model = build_smdp(cfg, summaries)
    idx = model.indexer
    lat = summaries["serve1"]
    x = idx.flatten(2, 0, 0)
    cols, plain, _, _ = model.graph.row(x, SERVE)
    row = dict(zip(cols.tolist(), plain.tolist()))
    # arrivals (3, 0) from (2,0): decrement to 1, then +3 pooled at X1=2
    lat_idx = np.arange(len(lat.P))
    a1 = lat_idx // 7
    a2 = lat_idx % 7
    expect = sum(
        p for c1, c2, p in zip(a1, a2, lat.P)
        if min(2 - 1 + c1, 2) == 2 and min(c2, 2) == 0
    )
    assert row[idx.flatten(2, 0, 0)] == pytest.approx(expect, abs=1e-12)


def test_empty_state_costs():
    # with no customers, idling is free; a switch still pays for the
    # customers that arrive while the server is in transit (plus any lump)
    cfg = asym_var_config(X1=3, X2=3, N1=3, N2=3)
    summaries = build_arrival_summaries(cfg)
    model = build_smdp(cfg, summaries)
    graph = model.graph
    serve = build_action_model(cfg, summaries, SERVE)
    idx = model.indexer
    for l1 in (0, 1):
        x = idx.flatten(0, 0, l1)
        assert graph.row(x, IDLE)[3] == 0.0
        event = "switch12" if l1 == 0 else "switch21"
        assert graph.row(x, SWITCH)[3] == pytest.approx(summaries[event].C_I)
        assert SERVE not in graph.q_action[graph.q_state == x]
        assert serve.C[x] == 0.0


def test_switch_adds_lump_cost():
    cfg = asym_var_config(X1=3, X2=3, N1=3, N2=3, K12=5.0, K21=1.0)
    summaries = build_arrival_summaries(cfg)
    C = build_cost_vector(cfg, summaries, SWITCH)
    idx = triple_indexer(cfg)
    assert C[idx.flatten(0, 0, 0)] == pytest.approx(summaries["switch12"].C_I + 5.0)
    assert C[idx.flatten(0, 0, 1)] == pytest.approx(summaries["switch21"].C_I + 1.0)


def test_serve_cost_composition_deterministic():
    cfg = exp_config(serve1=Deterministic(2.0), lambda1=0.8, lambda2=0.8,
                     X1=3, X2=3, N1=12, N2=12)
    summaries = build_arrival_summaries(cfg)
    C = build_cost_vector(cfg, summaries, SERVE)
    idx = triple_indexer(cfg)
    held = cfg.c1 * 2 + cfg.c2 * 1
    want = held * holding_cost_existing(Deterministic(2.0), cfg.beta)
    want += holding_cost_arrivals(None, Deterministic(2.0), cfg)
    assert C[idx.flatten(2, 1, 0)] == pytest.approx(want, rel=1e-12)


def test_feasible_rows_are_stochastic(exp_model, exp_action_models):
    idx = exp_model.indexer
    for a, m in exp_action_models.items():
        sums = np.asarray(m.P.sum(axis=1)).ravel()
        for x in range(exp_model.n_states):
            n1, n2, l1 = idx.unflatten(x)
            feasible = a in feasible_actions(PollingState(n1, n2, l1))
            assert m.feasible_mask[x] == feasible
            if feasible:
                assert 1 - 1e-12 <= sums[x] <= 1 + 1e-12
            else:
                assert sums[x] == 0.0
                assert m.C[x] == 0.0


def test_discounted_rows_dominated(exp_action_models):
    for m in exp_action_models.values():
        assert np.all(m.P_beta.data <= m.P.data + 1e-15)
        sums = np.asarray(m.P_beta.sum(axis=1)).ravel()
        assert sums.max() < 1.0


def test_serve_rows_match_competing_exponential_form(exp_model):
    lam1 = lam2 = 1.0
    mu = 4.0
    total = lam1 + lam2 + mu
    idx = exp_model.indexer
    x = idx.flatten(2, 1, 0)
    cols, plain, _, _ = exp_model.graph.row(x, SERVE)
    row = dict(zip(cols.tolist(), plain.tolist()))
    for a1 in range(3):
        for a2 in range(3):
            dest = idx.flatten(1 + a1, 1 + a2, 0)
            want = (
                math.comb(a1 + a2, a1)
                * (lam1 / total) ** a1
                * (lam2 / total) ** a2
                * (mu / total)
            )
            assert row[dest] == pytest.approx(want, abs=1e-12)


def test_cost_monotone_in_queue_lengths(exp_model, exp_action_models):
    idx = exp_model.indexer
    for m in exp_action_models.values():
        for l1 in (0, 1):
            for n2 in range(6):
                col = [m.C[idx.flatten(n1, n2, l1)] for n1 in range(6)]
                active = [c for c in col if c > 0]
                assert all(b >= a - 1e-12 for a, b in zip(active, active[1:]))


def test_action_model_csv(tmp_path, exp_action_models):
    path = tmp_path / "serve.csv"
    write_action_model_csv(exp_action_models[SERVE], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "idx_from,idx_to,p,p_beta,cost"
    assert len(lines) == 1 + exp_action_models[SERVE].P.nnz


def test_idle_handles_zero_rates():
    cfg = exp_config(lambda1=0.0, lambda2=0.0, X1=2, X2=2, N1=2, N2=2)
    model = build_smdp(cfg)
    idx = model.indexer
    cols, plain, disc, cost = model.graph.row(idx.flatten(1, 1, 0), IDLE)
    assert len(cols) == 0
    assert cost == pytest.approx((1.0 + 1.0) / cfg.beta)


def test_action_rows_match_per_state_bincount():
    # reference: each state's serve or switch row pooled on its own, as
    # np.bincount over the arrival lattice; at X=24 the build takes two chunks
    cfg = slow_mode_config(X1=24, X2=24, N1=20, N2=20)
    summaries = build_arrival_summaries(cfg)
    idx = triple_indexer(cfg)
    n = idx.size
    lattice = StateIndexer((cfg.N1, cfg.N2))
    arr1, arr2 = lattice.unflatten(np.arange(lattice.size))
    for action in (SERVE, SWITCH):
        m = build_action_model(cfg, summaries, action)
        assert m.feasible_mask.sum() > smdp._CHUNK_CELLS // n
        assert np.array_equal(m.P_beta.indptr, m.P.indptr)
        for x in range(n):
            n1, n2, l1 = idx.unflatten(x)
            lo, hi = m.P.indptr[x], m.P.indptr[x + 1]
            if action == SERVE and (n1, n2)[l1] == 0:
                assert not m.feasible_mask[x] and hi == lo
                continue
            d1, d2 = (0, 0) if action == SWITCH else ((1, 0) if l1 == 0 else (0, 1))
            new_l1 = l1 if action == SERVE else 1 - l1
            s = summaries[smdp.EVENT_BY_ACTION[action][l1]]
            dest = idx.flatten(np.clip(n1 - d1 + arr1, 0, cfg.X1),
                               np.clip(n2 - d2 + arr2, 0, cfg.X2),
                               np.full(len(arr1), new_l1))
            row = np.bincount(dest, weights=s.P, minlength=n)
            row_b = np.bincount(dest, weights=s.P_beta, minlength=n)
            nz = np.flatnonzero(row)
            assert m.feasible_mask[x]
            assert np.array_equal(m.P.indices[lo:hi], nz)
            assert np.array_equal(m.P_beta.indices[lo:hi], nz)
            assert np.array_equal(m.P.data[lo:hi], row[nz])
            assert np.array_equal(m.P_beta.data[lo:hi], row_b[nz])


@pytest.mark.parametrize("lambda2", [0.0, 0.7])
def test_idle_rows_match_per_state_bincount(lambda2):
    # reference: each state's two arrival successors pooled on their own
    cfg = exp_config(lambda1=1.2, lambda2=lambda2, X1=3, X2=4, N1=3, N2=3)
    m = build_action_model(cfg, build_arrival_summaries(cfg), IDLE)
    idx = triple_indexer(cfg)
    n = idx.size
    probs = np.array([1.2, lambda2]) / (1.2 + lambda2)
    alpha = (1.2 + lambda2) / (1.2 + lambda2 + cfg.beta)
    assert m.feasible_mask.all()
    for x in range(n):
        n1, n2, l1 = idx.unflatten(x)
        dest = [idx.flatten(min(n1 + 1, cfg.X1), n2, l1),
                idx.flatten(n1, min(n2 + 1, cfg.X2), l1)]
        row = np.bincount(dest, weights=probs, minlength=n)
        nz = np.flatnonzero(row)
        lo, hi = m.P.indptr[x], m.P.indptr[x + 1]
        assert np.array_equal(m.P.indices[lo:hi], nz)
        assert np.array_equal(m.P_beta.indices[lo:hi], nz)
        assert np.array_equal(m.P.data[lo:hi], row[nz])
        assert np.array_equal(m.P_beta.data[lo:hi], alpha * row[nz])
