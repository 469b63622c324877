import math

import numpy as np
import pytest
from scipy import stats as sps

from pollsys import (
    dagostino_k2,
    mann_whitney_u,
    pearson_r,
    t_test_one_sample,
    welch_t_test,
)
from pollsys.stats import chi2_sf, normal_cdf, student_t_cdf


def test_student_t_cdf_against_reference(rng):
    for df in (1, 2, 6, 30, 199.5):
        for x in rng.normal(0, 3, size=20):
            assert student_t_cdf(float(x), df) == pytest.approx(
                sps.t.cdf(x, df), abs=1e-12
            )


def test_chi2_sf_against_reference(rng):
    for df in (1, 2, 5):
        for x in rng.uniform(0, 20, size=20):
            assert chi2_sf(float(x), df) == pytest.approx(sps.chi2.sf(x, df), abs=1e-12)


def test_t_test_centred_sample():
    res = t_test_one_sample([1.0, 2.0, 3.0], 2.0)
    assert res.statistic == 0.0
    assert res.p_two_sided == pytest.approx(1.0)


def test_t_test_hand_value():
    res = t_test_one_sample([1.0, 2.0, 3.0], 0.0)
    assert res.statistic == pytest.approx(2 * math.sqrt(3), rel=1e-12)
    assert res.df == 2
    assert res.p_two_sided == pytest.approx(0.0742, abs=1e-4)
    assert res.p_less + res.p_greater == pytest.approx(1.0)


def test_t_test_rejects_constant_sample():
    with pytest.raises(ValueError):
        t_test_one_sample([2.0, 2.0, 2.0], 0.0)


def test_welch_identical_samples():
    x = np.arange(10.0)
    res = welch_t_test(x, x.copy())
    assert res.statistic == 0.0
    assert res.p_two_sided == pytest.approx(1.0)
    assert res.p_two_sided > 0.05


def test_welch_hand_value():
    res = welch_t_test([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0])
    assert res.statistic == pytest.approx(-2.1909, abs=1e-4)
    assert res.df == pytest.approx(6.0, abs=1e-12)
    ref = sps.ttest_ind([1, 2, 3, 4], [3, 4, 5, 6], equal_var=False)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert res.p_two_sided == pytest.approx(ref.pvalue, rel=1e-10)


def test_welch_reduces_to_pooled_t(rng):
    # equal sizes and near-equal variances: Welch == classic two-sample t
    for _ in range(10):
        x = rng.normal(0, 1, size=40)
        y = rng.normal(0.3, 1, size=40)
        welch = welch_t_test(x, y)
        pooled = sps.ttest_ind(x, y, equal_var=True)
        assert welch.statistic == pytest.approx(pooled.statistic, abs=1e-10)


def test_welch_matches_reference_unequal(rng):
    x = rng.normal(0, 1, size=50)
    y = rng.normal(0.2, 3, size=35)
    res = welch_t_test(x, y)
    ref = sps.ttest_ind(x, y, equal_var=False, alternative="less")
    assert res.p_less == pytest.approx(ref.pvalue, rel=1e-9)


def test_mann_whitney_symmetric_ties():
    res = mann_whitney_u([1.0, 2.0], [1.0, 2.0])
    assert res.details["u_xy"] == 2.0
    assert res.details["u_yx"] == 2.0
    assert res.statistic == 2.0


def test_mann_whitney_complementarity(rng):
    x = rng.normal(0, 1, size=15)
    y = rng.normal(1, 1, size=11)
    res = mann_whitney_u(x, y)
    assert res.details["u_xy"] + res.details["u_yx"] == pytest.approx(15 * 11)


def test_mann_whitney_exact_against_reference(rng):
    x = rng.normal(0, 1, size=8)
    y = rng.normal(0.5, 1, size=9)
    res = mann_whitney_u(x, y)
    ref = sps.mannwhitneyu(x, y, alternative="less", method="exact")
    assert res.details["u_xy"] == pytest.approx(ref.statistic)
    assert res.p_less == pytest.approx(ref.pvalue, rel=1e-12)


def test_mann_whitney_normal_approx_against_reference(rng):
    x = rng.normal(0, 1, size=300)
    y = rng.normal(0.15, 1, size=280)
    res = mann_whitney_u(x, y)
    ref = sps.mannwhitneyu(x, y, alternative="less", method="asymptotic")
    assert res.p_less == pytest.approx(ref.pvalue, rel=1e-6)


@pytest.mark.parametrize("n, m", [(30, 40), (120, 100), (1, 7)])
def test_mann_whitney_u_matches_double_sum(rng, n, m):
    """U from the average ranks equals the double sum with half weights on
    ties, exactly, on tie-heavy samples on both sides of n m = 10000."""
    for _ in range(20):
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=m).astype(float) + rng.choice([0.0, 0.5], size=m)
        want = sum(float(np.sum(v > y) + 0.5 * np.sum(v == y)) for v in x)
        res = mann_whitney_u(x, y)
        assert res.details["u_xy"] == want
        assert res.details["u_yx"] == n * m - want
        assert res.details["ties"] == (len(np.unique(np.concatenate([x, y]))) < n + m)


def test_mann_whitney_empty_sample():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


def test_dagostino_against_reference(rng):
    x = rng.normal(0, 1, size=500)
    res = dagostino_k2(x)
    ref_stat, ref_p = sps.normaltest(x)
    assert res.statistic == pytest.approx(ref_stat, rel=1e-10)
    assert res.p_two_sided == pytest.approx(ref_p, rel=1e-10)
    assert res.details["z_skew"] == pytest.approx(sps.skewtest(x).statistic, rel=1e-10)
    assert res.details["z_kurt"] == pytest.approx(sps.kurtosistest(x).statistic,
                                                  rel=1e-10)


def test_dagostino_calibrated_under_null(rng):
    rejections = 0
    for _ in range(100):
        x = rng.normal(0, 1, size=10000)
        if dagostino_k2(x).p_two_sided <= 0.05:
            rejections += 1
    assert rejections <= 10  # at least 90% fail to reject


def test_dagostino_k2_mean_is_chi2_mean(rng):
    vals = [dagostino_k2(rng.normal(0, 1, size=10000)).statistic
            for _ in range(500)]
    assert 1.8 <= np.mean(vals) <= 2.2


def test_dagostino_rejects_exponential(rng):
    x = rng.exponential(1.0, size=10000)
    res = dagostino_k2(x)
    assert res.p_two_sided < 1e-6


def test_dagostino_preconditions():
    with pytest.raises(ValueError):
        dagostino_k2(np.ones(30))
    with pytest.raises(ValueError):
        dagostino_k2(np.arange(10.0))


def test_pearson_affine_and_constant():
    x = np.arange(10.0)
    assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_r(x, -x) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        pearson_r(x, np.ones(10))
    with pytest.raises(ValueError):
        pearson_r(x, x[:5])


def test_pearson_matches_reference(rng):
    x = rng.normal(0, 1, size=200)
    y = 0.4 * x + rng.normal(0, 1, size=200)
    assert pearson_r(x, y) == pytest.approx(sps.pearsonr(x, y).statistic, rel=1e-12)


def test_two_sided_is_twice_smaller_tail(rng):
    x = rng.normal(0.2, 1, size=25)
    res = t_test_one_sample(x, 0.0)
    assert res.p_two_sided == pytest.approx(2 * min(res.p_less, res.p_greater))


P_FIELDS = {"two-sided": "p_two_sided", "less": "p_less", "greater": "p_greater"}


@pytest.mark.parametrize("alternative", list(P_FIELDS))
def test_every_p_value_matches_reference(rng, alternative):
    """Each test's p-value under an alternative, read by name, equals
    scipy's under the same alternative: Mann-Whitney exact (8 and 9) and
    asymptotic (300 and 280)."""
    name = P_FIELDS[alternative]
    for _ in range(10):
        x = rng.normal(0, 1, size=40)
        y = rng.normal(0.3, 2, size=30)
        ref = sps.ttest_1samp(x, 0.1, alternative=alternative).pvalue
        assert getattr(t_test_one_sample(x, 0.1), name) == pytest.approx(ref, rel=1e-10)
        ref = sps.ttest_ind(x, y, equal_var=False, alternative=alternative).pvalue
        assert getattr(welch_t_test(x, y), name) == pytest.approx(ref, rel=1e-10)
        for n, m, method in ((8, 9, "exact"), (300, 280, "asymptotic")):
            x = rng.normal(0, 1, size=n)
            y = rng.normal(0.15, 1, size=m)
            ref = sps.mannwhitneyu(x, y, alternative=alternative, method=method).pvalue
            assert getattr(mann_whitney_u(x, y), name) == pytest.approx(ref, rel=1e-10)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
