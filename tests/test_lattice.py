import math

import numpy as np
import pytest
from scipy import integrate, stats

from pollsys import (
    Deterministic,
    Exponential,
    Gamma,
    MeshCoverageError,
    MeshStabilityError,
    build_generator,
    build_arrival_summaries,
    expected_arrival_probs,
    holding_cost_arrivals,
    holding_cost_existing,
    pool_lattice,
    snapshot_lattice,
    transient_mesh,
)
from pollsys.lattice import default_step, write_mesh_csv

from conftest import asym_var_config, exp_config


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


def test_generator_rate_fn_cell():
    cfg = exp_config(N1=3, N2=3, rate_fn=lambda a1, a2: (1.0 + a1, 1.0))
    gen = build_generator(cfg)
    idx = gen.indexer
    assert gen.Q[idx.flatten(1, 0), idx.flatten(2, 0)] == 2.0


def test_generator_rejects_negative_rate_fn():
    cfg = exp_config(N1=3, N2=3,
                     rate_fn=lambda a1, a2: (1.0, -1.0 if (a1, a2) == (2, 1) else 1.0))
    with pytest.raises(ValueError, match=r"negative rates at \(2, 1\)"):
        build_generator(cfg)


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
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 3.0, 0.002)
    e0 = np.zeros(gen.size)
    e0[0] = 1.0
    assert np.array_equal(mesh.probs[0], e0)
    assert np.abs(mesh.probs.sum(axis=1) - 1.0).max() <= 1e-6


def test_mesh_poisson_product_oracle():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=6, N2=6)
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 0.5, 1e-4)
    idx = gen.indexer
    phi = mesh.probs[-1]
    assert phi[idx.flatten(1, 1)] == pytest.approx(
        poisson_product(1.0, 1.0, 0.5, 1, 1), abs=1e-3
    )
    assert poisson_product(1.0, 1.0, 0.5, 1, 1) == pytest.approx(0.09197, abs=1e-5)
    for a1 in range(4):
        for a2 in range(4):
            assert phi[idx.flatten(a1, a2)] == pytest.approx(
                poisson_product(1.0, 1.0, 0.5, a1, a2), abs=1e-3
            )


def test_mesh_absorbing_mass_at_corner():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=2, N2=2)
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 10.0, 0.002)
    corner = gen.indexer.flatten(2, 2)
    # oracle: both classes see >= 2 arrivals by t=10 with probability
    # (1 - P(Pois(10) <= 1))^2
    oracle = (1.0 - stats.poisson.cdf(1, 10.0)) ** 2
    assert oracle > 0.99
    assert mesh.probs[-1, corner] >= 0.99
    assert mesh.probs[-1, corner] == pytest.approx(oracle, abs=1e-3)


def test_mesh_step_stability_guard():
    cfg = exp_config(lambda1=5.0, lambda2=5.0, N1=3, N2=3)
    gen = build_generator(cfg)
    with pytest.raises(MeshStabilityError):
        transient_mesh(gen, 1.0, 0.5)


def test_unassigned_validity_error_monotone():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=3, N2=3,
                     truncation_mode="unassigned")
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 6.0, 0.002)
    eps2 = 1.0 - mesh.probs.sum(axis=1)
    assert np.all(np.diff(eps2) >= -1e-9)
    assert eps2[-1] > 0.5  # most mass has left the small window by t=6


def test_expected_arrival_probs_competing_exponentials():
    cfg = exp_config(lambda1=1.0, lambda2=1.0, N1=10, N2=10)
    gen = build_generator(cfg)
    dist = Exponential(1.0)
    mesh = transient_mesh(gen, dist.quantile(1 - 1e-9), 1e-3)
    vec = expected_arrival_probs(mesh, dist)
    idx = gen.indexer
    assert vec[idx.flatten(0, 0)] == pytest.approx(1 / 3, abs=1e-3)
    assert vec[idx.flatten(1, 1)] == pytest.approx(2 / 27, abs=1e-3)
    for a1 in range(5):
        for a2 in range(5):
            if a1 + a2 <= 5:
                assert vec[idx.flatten(a1, a2)] == pytest.approx(
                    competing_exponential_prob(1.0, 1.0, 1.0, a1, a2), abs=1e-3
                )


def test_expected_arrival_probs_zero_duration():
    cfg = exp_config(N1=3, N2=3)
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 1.0, 0.001)
    vec = expected_arrival_probs(mesh, Deterministic(0.0))
    e0 = np.zeros(gen.size)
    e0[0] = 1.0
    assert np.allclose(vec, e0)


def test_expected_arrival_probs_coverage_error():
    cfg = exp_config(N1=3, N2=3)
    gen = build_generator(cfg)
    mesh = transient_mesh(gen, 0.5, 0.001)
    with pytest.raises(MeshCoverageError):
        expected_arrival_probs(mesh, Exponential(1.0))


def test_discounted_probs_dominated_by_plain():
    cfg = exp_config(lambda1=0.8, lambda2=0.8, N1=8, N2=8)
    gen = build_generator(cfg)
    dist = Gamma(2, 0.5)
    mesh = transient_mesh(gen, dist.quantile(1 - 1e-9), 0.002)
    plain = expected_arrival_probs(mesh, dist)
    disc = expected_arrival_probs(mesh, dist, beta=0.05)
    assert np.all(disc <= plain + 1e-15)
    assert plain.sum() == pytest.approx(1.0, abs=2e-4)


def test_truncation_structure_identities():
    """Absorbing == pooled true model; unassigned == snapshot of true model."""
    lam1 = lam2 = 1.0
    dist = Exponential(1.0)
    t_end = dist.quantile(1 - 1e-9)
    dt = 0.002
    small, big = (3, 3), (12, 12)

    vecs = {}
    for mode, dims in (
        ("absorbing", small),
        ("unassigned", small),
        ("unassigned", big),
    ):
        cfg = exp_config(lambda1=lam1, lambda2=lam2, N1=dims[0], N2=dims[1],
                         truncation_mode=mode)
        mesh = transient_mesh(build_generator(cfg), t_end, dt)
        vecs[(mode, dims)] = expected_arrival_probs(mesh, dist)

    pooled = pool_lattice(vecs[("unassigned", big)], big, small)
    snap = snapshot_lattice(vecs[("unassigned", big)], big, small)
    assert np.abs(vecs[("absorbing", small)] - pooled).max() <= 1e-3
    assert np.abs(vecs[("unassigned", small)] - snap).max() <= 1e-6


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

    upper = (
        f_e.value if isinstance(f_e, Deterministic) else f_e.quantile(1 - 1e-12)
    )
    if isinstance(f_e, Deterministic):
        return inner(upper)
    val, _ = integrate.quad(lambda t: float(f_e.pdf(t)) * inner(t), 0, upper, limit=300)
    return val


def test_holding_cost_arrivals_closed_forms():
    cfg = asym_var_config()
    for f_e in (Gamma(30, 4 / 30), Gamma(1, 0.4), Exponential(2.0),
                Deterministic(3.0)):
        got = holding_cost_arrivals(None, f_e, cfg)
        want = quad_arrival_cost(f_e, cfg.c1 * cfg.lambda1 + cfg.c2 * cfg.lambda2,
                                 cfg.beta)
        assert got == pytest.approx(want, rel=1e-9)


def test_holding_cost_arrivals_zero_rates():
    cfg = exp_config(lambda1=0.0, lambda2=0.0)
    assert holding_cost_arrivals(None, Gamma(3, 1.0), cfg) == 0.0
    assert holding_cost_arrivals(None, Deterministic(5.0), cfg) == 0.0


def test_holding_cost_arrivals_constant_rate_fn_matches_closed_form():
    # the mesh path with a constant rate function is the general integral;
    # the homogeneous closed form is its oracle
    base = asym_var_config(N1=25, N2=25)
    cfg = asym_var_config(N1=25, N2=25, rate_fn=lambda a1, a2: (0.8, 0.8))
    gen = build_generator(cfg)
    for f_e in (Gamma(30, 4 / 30), Gamma(1, 0.4)):
        t_end = f_e.quantile(1 - 1e-9)
        mesh = transient_mesh(gen, t_end, default_step(gen, t_end))
        got = holding_cost_arrivals(mesh, f_e, cfg)
        want = holding_cost_arrivals(None, f_e, base)
        assert got == pytest.approx(want, rel=5e-3)


def test_build_arrival_summaries_bundle(asym_cfg):
    summaries = build_arrival_summaries(asym_cfg)
    assert set(summaries) == {"serve1", "serve2", "switch12", "switch21"}
    for s in summaries.values():
        assert s.P.sum() == pytest.approx(1.0, abs=2e-4)
        assert np.all(s.P_beta <= s.P + 1e-15)
        assert s.C_H >= 0 and s.C_I >= 0
        assert s.tail_mass <= 1e-8


def test_write_mesh_csv(tmp_path):
    cfg = exp_config(N1=1, N2=1)
    mesh = transient_mesh(build_generator(cfg), 0.01, 0.005)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(mesh, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,idx,n1,n2,phi"
    assert len(lines) == 1 + len(mesh.times) * 4
