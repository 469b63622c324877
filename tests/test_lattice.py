import math

import numpy as np
import pytest
from scipy import integrate, linalg, stats

from pollsys import (
    Deterministic,
    Exponential,
    Gamma,
    StateIndexer,
    build_arrival_summaries,
    expected_arrival_probs,
    holding_cost_arrivals,
    holding_cost_existing,
    pool_lattice,
    snapshot_lattice,
)
from pollsys.lattice import TAIL_EPS, _poisson_terms

from conftest import (
    asym_var_config,
    build_generator,
    exp_config,
    oracle_summaries,
    scipy_pdf,
    slow_mode_config,
    uniformised_arrival_probs,
)


def transient(cfg, t):
    """Exact p(t) over the lattice: the point-mass duration at t."""
    return expected_arrival_probs(cfg, Deterministic(t))


def lattice(cfg):
    return StateIndexer((cfg.N1, cfg.N2))


def poisson_product(lam1, lam2, t, a1, a2):
    return stats.poisson.pmf(a1, lam1 * t) * stats.poisson.pmf(a2, lam2 * t)


def competing_exponential_prob(lam1, lam2, mu, a1, a2):
    """P(a1 class-1 and a2 class-2 arrivals before an Exp(mu) event ends)."""
    total = lam1 + lam2 + mu
    return (
        math.comb(a1 + a2, a1)
        * (lam1 / total) ** a1
        * (lam2 / total) ** a2
        * (mu / total)
    )


def test_generator_smallest_lattice_absorbing():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=1, N2=1)
    gen = build_generator(cfg)
    Q = gen.Q.toarray()
    idx = gen.indexer
    i00, i01 = idx.flatten(0, 0), idx.flatten(0, 1)
    i10, i11 = idx.flatten(1, 0), idx.flatten(1, 1)
    assert Q[i00, i00] == -2.0
    assert Q[i00, i10] == 1.0 and Q[i00, i01] == 1.0
    assert np.all(Q[i11] == 0.0)  # absorbing corner
    assert np.allclose(Q.sum(axis=1), 0.0)


def test_generator_smallest_lattice_unassigned():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=1, N2=1,
                     truncation_mode="unassigned")
    gen = build_generator(cfg)
    Q = gen.Q.toarray()
    idx = gen.indexer
    i11 = idx.flatten(1, 1)
    assert Q[i11, i11] == -2.0
    assert np.count_nonzero(Q[i11]) == 1  # no outflow targets from the corner


@pytest.mark.parametrize("mode", ["absorbing", "unassigned"])
@pytest.mark.parametrize("N", [(1, 1), (5, 3), (40, 40)])
def test_generator_row_sums(mode, N, rng):
    lam1, lam2 = rng.uniform(0.2, 3.0, size=2)
    cfg = exp_config(lambda1=lam1, lambda2=lam2, N1=N[0], N2=N[1],
                     truncation_mode=mode)
    gen = build_generator(cfg)
    Q = gen.Q
    assert (Q.getnnz(axis=1) <= 3).all()
    assert Q.diagonal().max() <= 0
    sums = np.asarray(Q.sum(axis=1)).ravel()
    idx = gen.indexer
    for a1 in range(N[0] + 1):
        for a2 in range(N[1] + 1):
            s = sums[idx.flatten(a1, a2)]
            if mode == "absorbing":
                assert s == pytest.approx(0.0, abs=1e-12)
            else:
                expect = 0.0
                if a1 == N[0]:
                    expect -= lam1
                if a2 == N[1]:
                    expect -= lam2
                assert s == pytest.approx(expect, abs=1e-12)


def test_mesh_initial_condition_and_conservation():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=4, N2=4)
    e0 = np.zeros(lattice(cfg).size)
    e0[0] = 1.0
    assert np.array_equal(transient(cfg, 0.0), e0)
    for t in (0.1, 0.5, 1.0, 3.0):
        assert abs(transient(cfg, t).sum() - 1.0) <= 1e-12


def test_mesh_poisson_product_oracle():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=6, N2=6)
    idx = lattice(cfg)
    phi = transient(cfg, 0.5)
    assert phi[idx.flatten(1, 1)] == pytest.approx(
        poisson_product(1.0, 1.0, 0.5, 1, 1), abs=1e-12
    )
    assert poisson_product(1.0, 1.0, 0.5, 1, 1) == pytest.approx(0.09197, abs=1e-5)
    for a1 in range(4):
        for a2 in range(4):
            assert phi[idx.flatten(a1, a2)] == pytest.approx(
                poisson_product(1.0, 1.0, 0.5, a1, a2), abs=1e-12
            )


def test_mesh_absorbing_mass_at_corner():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=2, N2=2)
    phi = transient(cfg, 10.0)
    corner = lattice(cfg).flatten(2, 2)
    # oracle: both classes see >= 2 arrivals by t=10 with probability
    # (1 - P(Pois(10) <= 1))^2
    oracle = (1.0 - stats.poisson.cdf(1, 10.0)) ** 2
    assert oracle > 0.99
    assert phi[corner] >= 0.99
    assert phi[corner] == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("mode", ["absorbing", "unassigned"])
def test_transient_matches_matrix_exponential_unequal_rates(mode):
    # every cell, edges included: p(t) is row 0 of expm(Q t), both as the
    # closed form and as the uniformised sum of the generator
    cfg = exp_config(lambda1=0.7, lambda2=1.3, N1=5, N2=4, truncation_mode=mode)
    gen = build_generator(cfg)
    for t in (0.3, 2.0, 7.5):
        want = linalg.expm(gen.Q.toarray() * t)[0]
        assert np.abs(transient(cfg, t) - want).max() <= 1e-12
        assert np.abs(uniformised_arrival_probs(gen, Deterministic(t)) - want).max() <= 1e-12


def test_unassigned_validity_error_monotone():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=3, N2=3,
                     truncation_mode="unassigned")
    times = np.linspace(0.0, 6.0, 61)
    eps2 = np.array([1.0 - transient(cfg, t).sum() for t in times])
    assert np.all(np.diff(eps2) >= -1e-12)
    # the mass left in the window is P(Pois(t) <= 3)^2
    assert np.abs(eps2 - (1.0 - stats.poisson.cdf(3, times) ** 2)).max() <= 1e-12
    assert eps2[-1] > 0.5  # most mass has left the small window by t=6


def test_expected_arrival_probs_competing_exponentials():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=10, N2=10)
    vec = expected_arrival_probs(cfg, Exponential(1.0))
    idx = lattice(cfg)
    assert vec[idx.flatten(0, 0)] == pytest.approx(1 / 3, abs=1e-12)
    assert vec[idx.flatten(1, 1)] == pytest.approx(2 / 27, abs=1e-12)
    for a1 in range(5):
        for a2 in range(5):
            if a1 + a2 <= 5:
                assert vec[idx.flatten(a1, a2)] == pytest.approx(
                    competing_exponential_prob(1.0, 1.0, 1.0, a1, a2), abs=1e-12
                )


def mixed_poisson_oracle(f_e, rate, beta, n):
    """E[e^{-beta t} Pois(n; rate t)] from scipy's negative binomial / Poisson."""
    if isinstance(f_e, Deterministic):
        return stats.poisson.pmf(n, rate * f_e.value) * math.exp(-beta * f_e.value)
    shape, scale = (1.0, 1.0 / f_e.rate) if isinstance(f_e, Exponential) else (f_e.shape, f_e.scale)
    p = 1.0 / (1.0 + (rate + beta) * scale)
    return stats.nbinom.pmf(n, shape, p) * (rate / (rate + beta)) ** n


@pytest.mark.parametrize("f_e", [Gamma(30, 4 / 30), Gamma(1, 0.4), Gamma(0.5, 0.2),
                                 Exponential(2.0), Deterministic(3.0), Deterministic(0.0)])
@pytest.mark.parametrize("beta", [None, 0.05])
def test_interior_cells_match_mixed_poisson_oracle(f_e, beta):
    # an interior cell (a1, a2) holds the n = a1 + a2 arrivals of the pooled
    # rate L = l1 + l2, each of class 1 with probability l1 / L
    lam1, lam2, N = 0.8, 0.5, 30
    cfg = exp_config(lambda1=lam1, lambda2=lam2, N1=N, N2=N)
    vec = expected_arrival_probs(cfg, f_e, beta=beta)
    idx = lattice(cfg)
    L = lam1 + lam2
    worst = 0.0
    for a1 in range(N):
        for a2 in range(N):
            n = a1 + a2
            want = (mixed_poisson_oracle(f_e, L, beta or 0.0, n) * math.comb(n, a1)
                    * (lam1 / L) ** a1 * (lam2 / L) ** a2)
            worst = max(worst, abs(vec[idx.flatten(a1, a2)] - want))
    assert worst <= 1e-12


@pytest.mark.parametrize("f_e", [Gamma(2, 0.5), Deterministic(4.0)])
def test_zero_rates_put_all_mass_at_the_origin(f_e):
    cfg = exp_config(lambda1=0.0, lambda2=0.0, N1=3, N2=3, serve1=f_e)
    e0 = np.zeros(lattice(cfg).size)
    e0[0] = 1.0
    assert np.array_equal(expected_arrival_probs(cfg, f_e), e0)
    assert expected_arrival_probs(cfg, f_e, beta=0.05) == pytest.approx(
        f_e.discount_factor(0.05) * e0, rel=1e-15, abs=0.0)
    s = build_arrival_summaries(cfg)["serve1"]
    assert s.tail_mass == 0.0 and s.C_I == 0.0


@pytest.mark.parametrize("mode", ["absorbing", "unassigned"])
@pytest.mark.parametrize("f_e", [Gamma(0.5, 0.2), Deterministic(0.0), Deterministic(3.0),
                                 Exponential(2.0)])
@pytest.mark.parametrize("rates", [(0.0, 0.0), (0.0, 0.7), (1.1, 0.0)])
def test_zero_rates_match_the_uniformised_oracle(rates, f_e, mode):
    # with a rate zero every arrival is of the other class, if any comes, so
    # the closed form and the uniformised sum multiply the same weights by
    # exact ones
    cfg = exp_config(lambda1=rates[0], lambda2=rates[1], N1=3, N2=4, serve1=f_e,
                     truncation_mode=mode)
    got, want = build_arrival_summaries(cfg)["serve1"], oracle_summaries(cfg)["serve1"]
    assert np.array_equal(got.P, want.P) and np.array_equal(got.P_beta, want.P_beta)
    assert got.tail_mass == want.tail_mass


@pytest.mark.parametrize("N", [1, 5, 20, 35])
@pytest.mark.parametrize("mode", ["absorbing", "unassigned"])
@pytest.mark.parametrize("make", [slow_mode_config, asym_var_config], ids=["slow", "asym"])
def test_closed_form_matches_the_uniformised_oracle(make, mode, N):
    cfg = make(N1=N, N2=N, truncation_mode=mode)
    want = oracle_summaries(cfg)
    for name, got in build_arrival_summaries(cfg).items():
        assert np.abs(got.P - want[name].P).max() <= 1e-14
        assert np.abs(got.P_beta - want[name].P_beta).max() <= 1e-14
        assert got.tail_mass == want[name].tail_mass
        assert np.all(got.P_beta >= 0.0)
        assert np.all(got.P_beta <= got.P)


@pytest.mark.parametrize("mode", ["absorbing", "unassigned"])
@pytest.mark.parametrize("f_e", [Exponential(0.04), Deterministic(800.0)])
def test_long_durations_match_the_uniformised_oracle(f_e, mode):
    # over a thousand terms, where C(n, a1) alone overflows a float; a term
    # exp(log C(n, a1) + ...) is then off by about eps * gammaln(n + 1), some
    # 1e-12 of it at n = 1500, as the mixed-Poisson weight's own gammaln is
    cfg = exp_config(lambda1=1.0, lambda2=0.5, N1=35, N2=30, truncation_mode=mode)
    gen = build_generator(cfg)
    assert _poisson_terms(f_e, 1.5) > 1030
    for beta in (None, 0.05):
        got = expected_arrival_probs(cfg, f_e, beta)
        assert np.all(got >= 0.0)
        assert np.abs(got - uniformised_arrival_probs(gen, f_e, beta)).max() <= 1e-12


def _full_triangle_probs(cfg, f_e, beta):
    """The unassigned lattice as the closed form over the whole triangle
    a1 + a2 < K, with the cells outside the box dropped afterwards."""
    from scipy import special

    lam1, lam2 = cfg.lambda1, cfg.lambda2
    terms = _poisson_terms(f_e, lam1 + lam2)
    n = np.repeat(np.arange(terms), np.arange(1, terms + 1))
    a1 = np.arange(n.size) - n * (n + 1) // 2
    a2 = n - a1
    w = f_e.poisson_mixture(lam1 + lam2, np.arange(terms), 0.0 if beta is None else beta)
    mass = w[n] * np.exp(special.gammaln(n + 1.0) - special.gammaln(a1 + 1.0)
                         - special.gammaln(a2 + 1.0) + special.xlogy(a1, lam1)
                         + special.xlogy(a2, lam2) - special.xlogy(n, lam1 + lam2))
    inside = (a1 <= cfg.N1) & (a2 <= cfg.N2)
    box = lattice(cfg)
    return np.bincount(box.flatten(a1[inside], a2[inside]), weights=mass[inside],
                       minlength=box.size)


@pytest.mark.parametrize("N1, N2", [(35, 35), (35, 12)])
def test_unassigned_cells_outside_the_box_are_not_evaluated(N1, N2):
    """Unassigned truncation evaluates only the cells inside the box, which
    gives the bits of the whole triangle cut down afterwards; here K is
    1512, so the triangle holds 30 times the box's cells."""
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=N1, N2=N2, truncation_mode="unassigned")
    f_e = Exponential(0.04)
    assert _poisson_terms(f_e, 2.0) == 1512
    for beta in (None, 0.05):
        got = expected_arrival_probs(cfg, f_e, beta)
        assert np.array_equal(got, _full_triangle_probs(cfg, f_e, beta))


def test_expected_arrival_probs_zero_duration():
    cfg = exp_config(N1=3, N2=3)
    vec = expected_arrival_probs(cfg, Deterministic(0.0))
    e0 = np.zeros(lattice(cfg).size)
    e0[0] = 1.0
    assert np.array_equal(vec, e0)


def test_discounted_probs_dominated_by_plain():
    cfg = exp_config(lambda1=0.8, lambda2=0.8, N1=8, N2=8)
    dist = Gamma(2, 0.5)
    plain = expected_arrival_probs(cfg, dist)
    disc = expected_arrival_probs(cfg, dist, beta=0.05)
    assert np.all(disc <= plain + 1e-15)
    assert plain.sum() == pytest.approx(1.0, abs=1e-12)


def test_truncation_structure_identities():
    """Absorbing == pooled true model; unassigned == snapshot of true model."""
    lam1 = lam2 = 1.0
    dist = Exponential(1.0)
    # the true model is the unbounded lattice: at (48, 48) at most
    # 2 * (1/2)^49 of the mass leaves the large window
    small, big = (3, 3), (48, 48)

    vecs = {}
    for mode, dims in (
        ("absorbing", small),
        ("unassigned", small),
        ("unassigned", big),
    ):
        cfg = exp_config(lambda1=lam1, lambda2=lam2, N1=dims[0], N2=dims[1],
                         truncation_mode=mode)
        vecs[(mode, dims)] = expected_arrival_probs(cfg, dist)

    pooled = pool_lattice(vecs[("unassigned", big)], big, small)
    snap = snapshot_lattice(vecs[("unassigned", big)], big, small)
    assert np.abs(vecs[("absorbing", small)] - pooled).max() <= 1e-12
    assert np.array_equal(vecs[("unassigned", small)], snap)


def test_snapshot_lattice_rejects_length_mismatch():
    with pytest.raises(ValueError, match="does not match fine lattice"):
        snapshot_lattice(np.arange(16.0), (5, 5), (1, 1))
    with pytest.raises(ValueError, match="does not match fine lattice"):
        pool_lattice(np.arange(16.0), (5, 5), (1, 1))
    with pytest.raises(ValueError, match="exceeds the fine lattice"):
        snapshot_lattice(np.arange(36.0), (5, 5), (6, 2))
    vec = np.arange(36.0)
    assert snapshot_lattice(vec, (5, 5), (1, 1)).tolist() == [0.0, 1.0, 6.0, 7.0]


def test_holding_cost_existing_closed_forms():
    # Exp(mu): integral of mu e^{-mu t} (1-e^{-beta t})/beta dt = 1/(mu+beta)
    assert holding_cost_existing(Exponential(2.0), 0.05) == pytest.approx(
        1.0 / 2.05, abs=1e-9
    )
    assert holding_cost_existing(Deterministic(200.0), 0.05) == pytest.approx(
        (1 - math.exp(-10.0)) / 0.05, abs=1e-9
    )
    assert holding_cost_existing(Deterministic(200.0), 0.05) == pytest.approx(
        19.99909, abs=1e-4
    )
    # infinite-discounting limit
    assert holding_cost_existing(Exponential(1.0), 1e6) == pytest.approx(0.0, abs=1e-5)


def quad_arrival_cost(f_e, weight, beta):
    """Independent nested-quadrature oracle for the arrival holding cost."""
    def inner(t):
        return weight * (1.0 - math.exp(-beta * t) * (1.0 + beta * t)) / beta**2

    if isinstance(f_e, Deterministic):
        return inner(f_e.value)
    pdf = scipy_pdf(f_e)
    val, _ = integrate.quad(lambda t: pdf(t) * inner(t), 0, np.inf, limit=300)
    return val


def test_holding_cost_arrivals_closed_forms():
    cfg = asym_var_config()
    for f_e in (Gamma(30, 4 / 30), Gamma(1, 0.4), Exponential(2.0),
                Deterministic(3.0)):
        got = holding_cost_arrivals(f_e, cfg)
        want = quad_arrival_cost(f_e, cfg.c1 * cfg.lambda1 + cfg.c2 * cfg.lambda2,
                                 cfg.beta)
        assert got == pytest.approx(want, rel=1e-9)


def test_holding_cost_arrivals_zero_rates():
    cfg = exp_config(lambda1=0.0, lambda2=0.0)
    assert holding_cost_arrivals(Gamma(3, 1.0), cfg) == 0.0
    assert holding_cost_arrivals(Deterministic(5.0), cfg) == 0.0


def test_build_arrival_summaries_bundle(asym_cfg):
    summaries = build_arrival_summaries(asym_cfg)
    assert set(summaries) == {"serve1", "serve2", "switch12", "switch21"}
    for s in summaries.values():
        assert abs(1.0 - s.tail_mass - s.P.sum()) <= 1e-12
        assert np.all(s.P_beta <= s.P + 1e-15)
        assert s.C_H >= 0 and s.C_I >= 0
        assert 0.0 <= s.tail_mass <= TAIL_EPS


@pytest.mark.parametrize("cfg", [
    slow_mode_config(X1=8, X2=8, N1=20, N2=20, serve1=Gamma(0.5, 0.2)),
    slow_mode_config(X1=24, X2=24, N1=20, N2=20),
    asym_var_config(X1=24, X2=24, N1=20, N2=20),
], ids=["slow_gamma_half", "slow", "asym"])
def test_absorbing_rows_keep_all_mass(cfg):
    # a gamma shape below 1 puts a density spike at t = 0; every event's row
    # still sums to 1 - tail_mass
    for s in build_arrival_summaries(cfg).values():
        assert abs(1.0 - s.tail_mass - s.P.sum()) <= 1e-12


def test_unassigned_rows_are_sub_stochastic():
    cfg = slow_mode_config(N1=6, N2=6, truncation_mode="unassigned")
    big = slow_mode_config(N1=20, N2=20, truncation_mode="unassigned")
    large = build_arrival_summaries(big)
    small = build_arrival_summaries(cfg)
    for name, s in small.items():
        assert s.P.sum() <= 1.0 - s.tail_mass + 1e-15
        assert np.array_equal(s.P, snapshot_lattice(large[name].P, (20, 20), (6, 6)))
    # about 4.5 class-1 arrivals in a switch 2 -> 1: much of it leaves the window
    assert small["switch21"].P.sum() < 0.9
