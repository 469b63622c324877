"""Event-duration distributions for service and switch-over processes.

Three families are supported: exponential, gamma (shape/scale) and a
deterministic point mass, each parameter a finite real number.  All
times are in the same abstract unit as the arrival rates.  Every
distribution exposes the handful of functionals the model builders need:
density, mean, variance, the two discounting moments E[exp(-b*t)] and
E[t*exp(-b*t)], and the closed-form pmf and tail of the number of
Poisson events within one duration (the mixed Poisson law: a negative
binomial for gamma durations, a Poisson for a point mass).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


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
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @staticmethod
    def from_json(doc) -> "DurationDist":
        """The duration of a `to_json` document; a ValueError names a document
        that is not an object, an unknown kind, or parameters not the kind's."""
        if not isinstance(doc, dict):
            raise ValueError(f"a duration must be an object with a kind, got {doc!r}")
        kinds = {cls.kind: cls for cls in (Exponential, Gamma, Deterministic)}
        kind = doc.get("kind")
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown duration kind {kind!r}, expected one of {sorted(kinds)}")
        names = [f.name for f in fields(cls)]
        params = {key: value for key, value in doc.items() if key != "kind"}
        if sorted(params) != sorted(names):
            article = "an" if kind[0] in "aeiou" else "a"
            raise ValueError(f"{article} {kind} duration takes {names}, got {list(params)}")
        return cls(**params)


@dataclass(frozen=True)
class Exponential(DurationDist):
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not (isinstance(self.rate, numbers.Real) and 0 < self.rate < math.inf):
            raise ValueError(f"exponential rate must be a finite number > 0, got {self.rate!r}")

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


@dataclass(frozen=True)
class Gamma(DurationDist):
    shape: float
    scale: float
    kind = "gamma"

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) and 0 < v < math.inf
                   for v in (self.shape, self.scale)):
            raise ValueError("gamma shape/scale must be finite numbers > 0, "
                             f"got {self.shape!r}, {self.scale!r}")

    def mean(self):
        return self.shape * self.scale

    def var(self):
        return self.shape * self.scale**2

    def pdf(self, t):
        from scipy import special

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
        from scipy import special

        k = np.asarray(k, dtype=float)
        s, th = self.shape, self.scale
        return np.exp(special.gammaln(k + s) - special.gammaln(k + 1.0) - special.gammaln(s)
                      + special.xlogy(k, rate * th) - (k + s) * math.log1p((rate + beta) * th))

    def poisson_tail(self, rate, k):
        from scipy import special

        q = rate * self.scale / (1.0 + rate * self.scale)
        return special.betainc(np.asarray(k, dtype=float), self.shape, q)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)


@dataclass(frozen=True)
class Deterministic(DurationDist):
    value: float
    kind = "deterministic"

    def __post_init__(self):
        if not (isinstance(self.value, numbers.Real) and 0 <= self.value < math.inf):
            raise ValueError(f"deterministic duration must be a finite number >= 0, "
                             f"got {self.value!r}")

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
        from scipy import special

        k = np.asarray(k, dtype=float)
        m = rate * self.value
        return np.exp(special.xlogy(k, m) - m - special.gammaln(k + 1.0) - beta * self.value)

    def poisson_tail(self, rate, k):
        from scipy import special

        return special.gammainc(np.asarray(k, dtype=float), rate * self.value)

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, float(self.value))
