"""Event-duration distributions for service and switch-over processes.

Three families are supported: exponential, gamma (shape/scale) and a
deterministic point mass.  All times are in the same abstract unit as the
arrival rates.  Every distribution exposes the handful of functionals the
model builders need: density, mean, variance, the two discounting moments
E[exp(-b*t)] and E[t*exp(-b*t)], and the closed-form pmf and tail of the
number of Poisson events within one duration (the mixed Poisson law: a
negative binomial for gamma durations, a Poisson for a point mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


class DurationDist:
    """Base class for event-duration distributions."""

    kind = "base"

    def mean(self) -> float:
        raise NotImplementedError

    def var(self) -> float:
        raise NotImplementedError

    def pdf(self, t):
        raise NotImplementedError

    def discount_factor(self, beta: float) -> float:
        """E[exp(-beta * t)] for t drawn from this distribution."""
        raise NotImplementedError

    def discounted_mean(self, beta: float) -> float:
        """E[t * exp(-beta * t)] for t drawn from this distribution."""
        raise NotImplementedError

    def poisson_mixture(self, rate: float, k, beta: float = 0.0) -> np.ndarray:
        """E[exp(-beta t) Pois(k; rate t)] at the integers ``k``: the pmf of the
        number of events of a rate-``rate`` Poisson process within one
        duration t, discounted over the duration when beta > 0."""
        raise NotImplementedError

    def poisson_tail(self, rate: float, k) -> np.ndarray:
        """P(at least k events of a rate-``rate`` Poisson process within one
        duration), at the integers ``k`` >= 1."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """One draw, or an array of ``size`` draws equal to as many single
        draws from the same generator."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(doc: dict) -> "DurationDist":
        kind = doc.get("kind")
        if kind == "exponential":
            return Exponential(rate=doc["rate"])
        if kind == "gamma":
            return Gamma(shape=doc["shape"], scale=doc["scale"])
        if kind == "deterministic":
            return Deterministic(value=doc["value"])
        raise ValueError(f"unknown duration kind: {kind!r}")


@dataclass(frozen=True)
class Exponential(DurationDist):
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def var(self):
        return 1.0 / self.rate**2

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.rate * np.exp(-self.rate * t), 0.0)

    def discount_factor(self, beta):
        return self.rate / (self.rate + beta)

    def discounted_mean(self, beta):
        return self.rate / (self.rate + beta) ** 2

    def poisson_mixture(self, rate, k, beta=0.0):
        return Gamma(1.0, 1.0 / self.rate).poisson_mixture(rate, k, beta)

    def poisson_tail(self, rate, k):
        return Gamma(1.0, 1.0 / self.rate).poisson_tail(rate, k)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def to_json(self):
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Gamma(DurationDist):
    shape: float
    scale: float
    kind = "gamma"

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError(f"gamma shape/scale must be > 0, got {self.shape}, {self.scale}")

    def mean(self):
        return self.shape * self.scale

    def var(self):
        return self.shape * self.scale**2

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        x = t[pos] / self.scale
        logp = (
            (self.shape - 1.0) * np.log(x)
            - x
            - special.gammaln(self.shape)
            - math.log(self.scale)
        )
        out[pos] = np.exp(logp)
        if self.shape == 1.0:
            out = np.where(t == 0, 1.0 / self.scale, out)
        return out

    def discount_factor(self, beta):
        return (1.0 + beta * self.scale) ** (-self.shape)

    def discounted_mean(self, beta):
        return self.shape * self.scale * (1.0 + beta * self.scale) ** (-(self.shape + 1.0))

    def poisson_mixture(self, rate, k, beta=0.0):
        # negative binomial: gamma(k+s)/(k! gamma(s)) (rate th)^k / (1 + (rate+beta) th)^(k+s)
        k = np.asarray(k, dtype=float)
        s, th = self.shape, self.scale
        return np.exp(special.gammaln(k + s) - special.gammaln(k + 1.0) - special.gammaln(s)
                      + special.xlogy(k, rate * th) - (k + s) * math.log1p((rate + beta) * th))

    def poisson_tail(self, rate, k):
        q = rate * self.scale / (1.0 + rate * self.scale)
        return special.betainc(np.asarray(k, dtype=float), self.shape, q)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    def to_json(self):
        return {"kind": "gamma", "shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class Deterministic(DurationDist):
    value: float
    kind = "deterministic"

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"deterministic duration must be >= 0, got {self.value}")

    def mean(self):
        return self.value

    def var(self):
        return 0.0

    def pdf(self, t):
        raise ValueError("point mass has no density; integrate by point evaluation instead")

    def discount_factor(self, beta):
        return math.exp(-beta * self.value)

    def discounted_mean(self, beta):
        return self.value * math.exp(-beta * self.value)

    def poisson_mixture(self, rate, k, beta=0.0):
        k = np.asarray(k, dtype=float)
        m = rate * self.value
        return np.exp(special.xlogy(k, m) - m - special.gammaln(k + 1.0) - beta * self.value)

    def poisson_tail(self, rate, k):
        return special.gammainc(np.asarray(k, dtype=float), rate * self.value)

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, float(self.value))

    def to_json(self):
        return {"kind": "deterministic", "value": self.value}
