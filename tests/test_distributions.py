import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from pollsys import Deterministic, DurationDist, Exponential, Gamma

from conftest import scipy_pdf


def test_gamma_moments_match_samples(rng):
    # mean k*theta against 1e6 draws
    d = Gamma(30, 4 / 30)
    draws = rng.gamma(d.shape, d.scale, size=1_000_000)
    assert d.mean() == pytest.approx(draws.mean(), rel=0.01)


def test_exponential_basics():
    d = Exponential(2.0)
    assert d.mean() == 0.5
    assert d.discount_factor(0.05) == pytest.approx(2.0 / 2.05)
    assert d.discounted_mean(0.05) == pytest.approx(2.0 / 2.05**2)


def test_deterministic_point_mass():
    d = Deterministic(3.0)
    assert d.mean() == 3.0
    assert d.discount_factor(0.1) == pytest.approx(math.exp(-0.3))


def test_discounting_moments_match_quadrature():
    beta = 0.07
    for d in (Exponential(1.7), Gamma(3.2, 0.6)):
        pdf = scipy_pdf(d)
        df, _ = integrate.quad(lambda t: pdf(t) * math.exp(-beta * t), 0, np.inf)
        dm, _ = integrate.quad(lambda t: pdf(t) * t * math.exp(-beta * t), 0, np.inf)
        assert d.discount_factor(beta) == pytest.approx(df, abs=1e-10)
        assert d.discounted_mean(beta) == pytest.approx(dm, abs=1e-10)


@pytest.mark.parametrize("dist", [
    Exponential(2.5),
    Gamma(1, 0.4),
    Gamma(30, 4 / 30),
    Gamma(0.5, 2.0),
    Deterministic(1.3),
    Deterministic(0.0),
])
@pytest.mark.parametrize("rate", [0.0, 0.7, 3.0])
def test_poisson_mixture_against_scipy(dist, rate):
    # the count of rate-r Poisson events in one duration: negative binomial
    # for gamma durations (Greenwood & Yule, 1920), Poisson for a point mass
    k = np.arange(200)
    beta = 0.05
    if isinstance(dist, Deterministic):
        want = stats.poisson.pmf(k, rate * dist.value)
        disc = want * math.exp(-beta * dist.value)
    else:
        shape, scale = (1.0, 1 / dist.rate) if isinstance(dist, Exponential) else (
            dist.shape, dist.scale)
        want = stats.nbinom.pmf(k, shape, 1 / (1 + rate * scale))
        disc = stats.nbinom.pmf(k, shape, 1 / (1 + (rate + beta) * scale)) * (
            rate / (rate + beta)) ** k
    assert np.abs(dist.poisson_mixture(rate, k) - want).max() <= 1e-14
    assert np.abs(dist.poisson_mixture(rate, k, beta) - disc).max() <= 1e-14
    assert dist.poisson_mixture(rate, k, beta).sum() == pytest.approx(
        dist.discount_factor(beta), abs=1e-12)
    # P(N >= k) is the mass beyond the first k terms
    tail = dist.poisson_tail(rate, k[1:])
    assert np.abs(tail - (1.0 - np.cumsum(want)[:-1])).max() <= 1e-12


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


@pytest.mark.parametrize("make, message", [
    (lambda: Exponential(math.inf), "exponential rate must be a finite number > 0, got inf"),
    (lambda: Gamma("30", 0.1), "gamma shape/scale must be finite numbers > 0, got '30', 0.1"),
    (lambda: Gamma(30, math.inf), "gamma shape/scale must be finite numbers > 0, got 30, inf"),
    (lambda: Gamma(math.nan, 0.1), "gamma shape/scale must be finite numbers > 0, got nan, 0.1"),
    (lambda: Deterministic(math.inf), "deterministic duration must be a finite number >= 0, "
                                      "got inf"),
    (lambda: Deterministic(None), "deterministic duration must be a finite number >= 0, "
                                  "got None"),
])
def test_parameters_must_be_finite_numbers(make, message):
    """An infinite duration would make the arrival lattice's term count grow
    without bound, and a string or None fails later without the name."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


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
