"""Hypothesis tests for comparing sampled performance distributions.

One-sample Student's t, Welch's unequal-variance t, the Mann-Whitney U test,
D'Agostino's k^2 normality test and the Pearson correlation coefficient.
Student-t and chi-square tail probabilities are evaluated through the
regularised incomplete beta/gamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def student_t_cdf(x: float, df: float) -> float:
    """CDF of Student's t via the regularised incomplete beta function."""
    from scipy import special

    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x == 0:
        return 0.5
    tail = 0.5 * special.betainc(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0 else tail


def chi2_sf(x: float, df: float) -> float:
    """Survival function of chi-square via the regularised incomplete gamma."""
    from scipy import special

    if x < 0:
        return 1.0
    return float(special.gammaincc(df / 2.0, x / 2.0))


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class TestResult:
    """A test's statistic and its p-values under the three alternatives.

    ``p_two_sided`` is the p-value against a difference either way,
    ``p_less`` against the first sample (its mean, for the t-tests) being
    smaller than the second sample or ``mu0``, and ``p_greater`` against
    it being larger.  ``df`` is None for the rank test; the normality test
    reports its one p-value in all three.
    """

    statistic: float
    df: Optional[float]
    p_two_sided: float
    p_less: float
    p_greater: float
    details: dict = field(default_factory=dict)


def _central_moments(X: np.ndarray):
    """The second, third and fourth central moments (denominator N)."""
    d = X - X.mean()
    return tuple(float(np.mean(d**k)) for k in (2, 3, 4))


def sample_skewness(X) -> float:
    m2, m3, _ = _central_moments(np.asarray(X, dtype=float))
    return m3 / m2**1.5


def sample_kurtosis_excess(X) -> float:
    m2, _, m4 = _central_moments(np.asarray(X, dtype=float))
    return m4 / m2**2 - 3.0


def _t_result(t: float, df: float) -> TestResult:
    F = float(student_t_cdf(t, df))
    return TestResult(statistic=float(t), df=float(df),
                      p_two_sided=min(2.0 * min(F, 1.0 - F), 1.0),
                      p_less=F, p_greater=1.0 - F)


def t_test_one_sample(X, mu0: float) -> TestResult:
    """Test whether the sample mean equals ``mu0``."""
    X = np.asarray(X, dtype=float)
    N = len(X)
    if N < 2:
        raise ValueError("need at least two observations")
    sigma = X.std(ddof=1)
    if sigma == 0:
        raise ValueError("degenerate sample: zero variance")
    return _t_result((X.mean() - mu0) * math.sqrt(N) / sigma, N - 1)


def welch_t_test(X, Y) -> TestResult:
    """Test equality of two means without assuming equal variances."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if len(X) < 2 or len(Y) < 2:
        raise ValueError("need at least two observations per sample")
    vx, vy = X.std(ddof=1) ** 2, Y.std(ddof=1) ** 2
    if vx == 0 and vy == 0:
        raise ValueError("degenerate samples: both variances are zero")
    sx2, sy2 = vx / len(X), vy / len(Y)
    t = (X.mean() - Y.mean()) / math.sqrt(sx2 + sy2)
    df = (sx2 + sy2) ** 2 / (
        sx2**2 / (len(X) - 1) + sy2**2 / (len(Y) - 1)
    )
    return _t_result(t, df)


def _u_exact_cdf(n: int, m: int, u: float) -> float:
    """P(U <= u) under the null by full enumeration (tie-free samples).

    f(i, j, v) counts interleavings of i X's and j Y's with statistic v:
    the largest remaining element is either an X (beating all j remaining
    Y's) or a Y, so f(i, j, v) = f(i-1, j, v-j) + f(i, j-1, v).
    """
    from scipy import special

    total_u = n * m
    prev = np.zeros((m + 1, total_u + 1))
    prev[:, 0] = 1.0  # zero X's left: statistic is 0
    for _ in range(1, n + 1):
        cur = np.zeros_like(prev)
        cur[0, 0] = 1.0
        for j in range(1, m + 1):
            cur[j, j:] = prev[j, : total_u + 1 - j]
            cur[j, :] += cur[j - 1, :]
        prev = cur
    counts = prev[m] / special.comb(n + m, n)
    k = int(math.floor(u + 1e-9))
    return float(counts[: k + 1].sum())


def mann_whitney_u(X, Y) -> TestResult:
    """Test whether two samples are stochastically equal.

    The reported statistic is min(U(X,Y), U(Y,X)); the one-sided p-values
    are oriented by U(X,Y), so ``p_less`` is small when X tends to be the
    smaller sample.  Small tie-free samples (n + m <= 20) use the exact null
    distribution, everything else the normal approximation with continuity
    and tie corrections.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, m = len(X), len(Y)
    if n == 0 or m == 0:
        raise ValueError("samples must be non-empty")
    # rank-sum form of U(X, Y): the average rank of a run of c equal values
    # ending at rank r is r - (c - 1) / 2, a half-integer, so U is exact
    joined = np.concatenate([X, Y])
    values, inverse, tie_counts = np.unique(joined, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[inverse]
    u_xy = float(ranks[:n].sum() - n * (n + 1) / 2.0)
    u_yx = n * m - u_xy
    has_ties = len(values) < len(joined)

    if n + m <= 20 and not has_ties:
        p_less = _u_exact_cdf(n, m, u_xy)
        p_greater = _u_exact_cdf(n, m, u_yx)
    else:
        mean_u = n * m / 2.0
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / ((n + m) * (n + m - 1.0))
        var_u = n * m / 12.0 * ((n + m + 1.0) - tie_term)
        if var_u <= 0:
            raise ValueError("degenerate samples: all values tied")
        sd = math.sqrt(var_u)
        p_less = normal_cdf((u_xy - mean_u + 0.5) / sd)
        p_greater = normal_cdf((u_yx - mean_u + 0.5) / sd)
    return TestResult(statistic=float(min(u_xy, u_yx)), df=None,
                      p_two_sided=min(2.0 * min(p_less, p_greater), 1.0),
                      p_less=p_less, p_greater=p_greater,
                      details={"u_xy": u_xy, "u_yx": u_yx, "ties": bool(has_ties)})


def dagostino_k2(X) -> TestResult:
    """D'Agostino's k^2 omnibus normality test.

    Combines standardised transforms of the sample skewness and kurtosis;
    the statistic is chi-square with 2 degrees of freedom under normality.
    """
    X = np.asarray(X, dtype=float)
    N = len(X)
    if N < 20:
        raise ValueError("normality test needs at least 20 observations")
    m2, m3, m4 = _central_moments(X)
    if m2 == 0:
        raise ValueError("degenerate sample: zero variance")
    g1 = m3 / m2**1.5
    b2 = (m4 / m2**2 - 3.0) + 3.0  # the excess kurtosis plus 3, bit for bit

    # skewness transform
    y = g1 * math.sqrt((N + 1.0) * (N + 3.0) / (6.0 * (N - 2.0)))
    beta2 = (
        3.0 * (N * N + 27.0 * N - 70.0) * (N + 1.0) * (N + 3.0)
        / ((N - 2.0) * (N + 5.0) * (N + 7.0) * (N + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z1 = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))

    # kurtosis transform
    eb2 = 3.0 * (N - 1.0) / (N + 1.0)
    vb2 = 24.0 * N * (N - 2.0) * (N - 3.0) / ((N + 1.0) ** 2 * (N + 3.0) * (N + 5.0))
    xk = (b2 - eb2) / math.sqrt(vb2)
    sqrt_b1 = (
        6.0 * (N * N - 5.0 * N + 2.0) / ((N + 7.0) * (N + 9.0))
        * math.sqrt(6.0 * (N + 3.0) * (N + 5.0) / (N * (N - 2.0) * (N - 3.0)))
    )
    a = 6.0 + 8.0 / sqrt_b1 * (2.0 / sqrt_b1 + math.sqrt(1.0 + 4.0 / sqrt_b1**2))
    term = (1.0 - 2.0 / a) / (1.0 + xk * math.sqrt(2.0 / (a - 4.0)))
    z2 = ((1.0 - 2.0 / (9.0 * a)) - np.cbrt(term)) * math.sqrt(4.5 * a)

    k2 = z1 * z1 + z2 * z2
    p = chi2_sf(k2, 2.0)
    return TestResult(statistic=float(k2), df=2.0, p_two_sided=p, p_less=p, p_greater=p,
                      details={"z_skew": float(z1), "z_kurt": float(z2)})


def pearson_r(X, Y) -> float:
    """Pearson correlation coefficient of two equally long samples."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if len(X) != len(Y) or len(X) < 2:
        raise ValueError("samples must have equal length >= 2")
    dx = X - X.mean()
    dy = Y - Y.mean()
    sx = float(np.sum(dx * dx))
    sy = float(np.sum(dy * dy))
    if sx == 0 or sy == 0:
        raise ValueError("constant sample has no correlation")
    return float(np.sum(dx * dy) / math.sqrt(sx * sy))
