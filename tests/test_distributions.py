import math

import numpy as np
import pytest
from scipy import integrate, stats

from pollsys import Deterministic, DurationDist, Exponential, Gamma


@pytest.mark.parametrize("dist", [
    Exponential(2.5),
    Gamma(1, 0.4),
    Gamma(30, 4 / 30),
    Gamma(0.5, 2.0),
])
def test_pdf_integrates_to_one(dist):
    upper = dist.quantile(1 - 1e-12)
    val, _ = integrate.quad(lambda t: float(dist.pdf(t)), 0, upper, limit=300)
    assert abs(val - 1.0) < 1e-8


@pytest.mark.parametrize("dist", [Exponential(3.0), Gamma(2.5, 0.7), Deterministic(1.3)])
def test_quantile_monotone_and_inverts_cdf(dist, rng):
    ps = np.sort(rng.uniform(1e-6, 1 - 1e-6, size=50))
    qs = [dist.quantile(p) for p in ps]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    if not isinstance(dist, Deterministic):
        for p, q in zip(ps, qs):
            assert abs(float(dist.cdf(q)) - p) < 1e-9


def test_gamma_quantile_matches_reference():
    d = Gamma(30, 4 / 30)
    for p in (0.01, 0.25, 0.5, 0.9, 1 - 1e-9):
        assert d.quantile(p) == pytest.approx(stats.gamma.ppf(p, 30, scale=4 / 30), abs=1e-9)


def test_gamma_moments_match_samples(rng):
    # mean k*theta, variance k*theta^2, against 1e6 draws
    d = Gamma(30, 4 / 30)
    draws = rng.gamma(d.shape, d.scale, size=1_000_000)
    assert d.mean() == pytest.approx(draws.mean(), rel=0.01)
    assert d.var() == pytest.approx(draws.var(), rel=0.01)


def test_exponential_basics():
    d = Exponential(2.0)
    assert d.mean() == 0.5
    assert d.var() == 0.25
    assert d.quantile(0.5) == pytest.approx(math.log(2) / 2)
    assert d.discount_factor(0.05) == pytest.approx(2.0 / 2.05)
    assert d.discounted_mean(0.05) == pytest.approx(2.0 / 2.05**2)


def test_deterministic_point_mass():
    d = Deterministic(3.0)
    assert d.mean() == 3.0 and d.var() == 0.0
    assert d.quantile(0.001) == 3.0 and d.quantile(0.999) == 3.0
    assert float(d.cdf(2.999)) == 0.0 and float(d.cdf(3.0)) == 1.0
    assert d.discount_factor(0.1) == pytest.approx(math.exp(-0.3))
    with pytest.raises(ValueError):
        d.pdf(1.0)


def test_discounting_moments_match_quadrature():
    beta = 0.07
    for d in (Exponential(1.7), Gamma(3.2, 0.6)):
        upper = d.quantile(1 - 1e-13)
        df, _ = integrate.quad(lambda t: float(d.pdf(t)) * math.exp(-beta * t), 0, upper)
        dm, _ = integrate.quad(lambda t: float(d.pdf(t)) * t * math.exp(-beta * t), 0, upper)
        assert d.discount_factor(beta) == pytest.approx(df, abs=1e-10)
        assert d.discounted_mean(beta) == pytest.approx(dm, abs=1e-10)


def test_json_round_trip():
    for d in (Exponential(2.0), Gamma(30, 0.13333), Deterministic(0.0)):
        assert DurationDist.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        DurationDist.from_json({"kind": "weibull", "shape": 1})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Gamma(-1, 1)
    with pytest.raises(ValueError):
        Deterministic(-0.1)


@pytest.mark.parametrize("dist", [
    Exponential(2.5),
    Gamma(1, 0.4),
    Gamma(30, 4 / 30),
    Gamma(0.5, 2.0),
    Deterministic(1.3),
])
def test_block_sample_equals_sequential_draws(dist):
    # a block of K values is K single draws, and the stream goes on unchanged
    key = 20240810
    block = np.random.Generator(np.random.Philox(key=key))
    single = np.random.Generator(np.random.Philox(key=key))
    got = dist.sample(block, 37)
    assert got.shape == (37,) and got.dtype == float
    assert np.array_equal(got, [dist.sample(single) for _ in range(37)])
    assert np.array_equal(dist.sample(block, 5), [dist.sample(single) for _ in range(5)])
    assert dist.sample(block) == dist.sample(single)
