"""Reliability formulas, the F-test, and the person-space geometry."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from splitrel import (
    ExamineeScores,
    RangeError,
    ScoreMatrix,
    ShapeError,
    SubTestScores,
    TooSmall,
    ZeroVariance,
    classical_reliability,
    descriptive_stats,
    error_variance,
    f_test_equal_variance,
    seed_allocation,
    split,
    split_half_correlation,
    item_totals,
    sub_test_scores,
    true_score_geometry,
)


def stats_for(s: SubTestScores, n_items: int):
    return descriptive_stats(ExamineeScores(s.combined()), n_items)


def test_sub_test_scores_sum_columns():
    m = ScoreMatrix([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 0]])
    a = seed_allocation(item_totals(m))
    s = sub_test_scores(m, a)
    g, h = list(a.g_items), list(a.h_items)
    assert np.array_equal(s.g, np.asarray(m.entries)[:, g].sum(axis=1))
    assert np.array_equal(s.h, np.asarray(m.entries)[:, h].sum(axis=1))
    assert np.array_equal(s.combined(), s.g.astype(np.int64) + s.h)


def test_error_variance_is_exact_mean_squared_gap():
    s = SubTestScores(g=[3, 1, 4], h=[2, 2, 0])
    # (1 + 1 + 16) / 3
    assert error_variance(s) == pytest.approx(6.0)


def test_error_variance_matches_norm_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.integers(0, 30, size=50)
        h = rng.integers(0, 30, size=50)
        s = SubTestScores(g=g, h=h)
        direct = float(np.mean((g - h) ** 2))
        norms = (
            float(g @ g) + float(h @ h) - 2.0 * float(g @ h)
        ) / 50.0
        assert error_variance(s) == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(norms, rel=1e-12)


def test_split_half_correlation_matches_numpy():
    rng = np.random.default_rng(22)
    g = rng.integers(0, 25, size=80)
    h = (0.7 * g + rng.normal(0, 3, size=80)).clip(0).astype(int)
    s = SubTestScores(g=g, h=h)
    assert split_half_correlation(s) == pytest.approx(
        float(np.corrcoef(g, h)[0, 1]), rel=1e-12
    )


def test_split_half_correlation_nan_on_constant_half():
    s = SubTestScores(g=[2, 2, 2], h=[1, 2, 3])
    assert math.isnan(split_half_correlation(s))


def f_sf_by_integration(f: float, nu: float) -> float:
    """P(F >= f) for F(nu, nu), integrating the density directly."""
    def density(x):
        return (
            math.gamma(nu)
            / (math.gamma(nu / 2) ** 2)
            * x ** (nu / 2 - 1)
            / (1 + x) ** nu
        )
    val, _ = integrate.quad(density, f, np.inf, limit=200)
    return val


def test_f_test_against_integrated_density():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(5, 40))
        g = rng.integers(0, 20, size=n)
        h = rng.integers(0, 20, size=n)
        if np.var(g) == 0 or np.var(h) == 0:
            continue
        s = SubTestScores(g=g, h=h)
        f, p = f_test_equal_variance(s)
        vg = float(np.var(g, ddof=1))
        vh = float(np.var(h, ddof=1))
        assert f == pytest.approx(max(vg, vh) / min(vg, vh), rel=1e-12)
        expect = min(1.0, 2.0 * f_sf_by_integration(f, n - 1))
        assert p == pytest.approx(expect, rel=1e-8, abs=1e-12)


def test_f_test_is_two_sided_and_capped():
    s = SubTestScores(g=[1, 2, 3, 4, 5], h=[1, 2, 3, 4, 5])
    f, p = f_test_equal_variance(s)
    assert f == pytest.approx(1.0)
    assert p == pytest.approx(1.0)


def test_f_test_requires_three_examinees_and_variance():
    with pytest.raises(TooSmall):
        f_test_equal_variance(SubTestScores(g=[1, 2], h=[0, 1]))
    with pytest.raises(ZeroVariance):
        f_test_equal_variance(SubTestScores(g=[2, 2, 2], h=[0, 1, 2]))


def test_true_score_geometry_identities():
    st = descriptive_stats(ExamineeScores([4, 7, 2, 9, 5]), 12)
    geo = true_score_geometry(st, 0.8)
    assert geo.S_T_sq == pytest.approx(0.8 * st.variance, rel=1e-12)
    # ||T||^2 = N (mean^2 + S_T^2) since T shares the observed mean
    assert geo.norm_T**2 == pytest.approx(
        st.N * (st.mean**2 + geo.S_T_sq), rel=1e-12
    )
    assert geo.cos_theta_T == pytest.approx(
        st.mean * math.sqrt(st.N) / geo.norm_T, rel=1e-12
    )


def test_true_score_geometry_rejects_out_of_range():
    st = descriptive_stats(ExamineeScores([4, 7, 2, 9, 5]), 12)
    for bad in (-0.1, 1.1):
        with pytest.raises(RangeError):
            true_score_geometry(st, bad)


def test_true_score_geometry_near_ceiling_long_test():
    # 1 - cos^2(theta_T) cancels here; the variance route once raised a
    # false ArithmeticError, the mean route agrees to rounding
    st = descriptive_stats(ExamineeScores([5000, 5000, 4999] * 10), 5000)
    geo = true_score_geometry(st, 0.5)
    assert geo.S_T_sq == 0.5 * st.variance
    assert geo.norm_T * geo.cos_theta_T / math.sqrt(st.N) == pytest.approx(st.mean, rel=1e-12)


def test_import_leaves_scipy_special_out():
    # scipy.special is imported by the F-test on first use, not by the package
    code = "import sys, splitrel, splitrel.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_classical_reliability_on_hand_vectors():
    g = np.array([5, 3, 4, 1])
    h = np.array([4, 3, 3, 2])
    s = SubTestScores(g=g, h=h)
    st = stats_for(s, 10)
    rep = classical_reliability(s, st)
    x = g + h
    s_x_sq = float(np.var(x))
    s_e_sq = float(np.mean((g - h) ** 2))
    assert rep.error_variance == pytest.approx(s_e_sq, rel=1e-12)
    assert rep.r_tt == pytest.approx(1 - s_e_sq / s_x_sq, rel=1e-12)
    assert rep.r_gh == pytest.approx(float(np.corrcoef(g, h)[0, 1]), rel=1e-12)
    assert rep.S_T_sq == pytest.approx(rep.r_tt * s_x_sq, rel=1e-12)
    assert rep.r_XT == pytest.approx(math.sqrt(rep.r_tt), rel=1e-12)


def test_variance_partition_is_exact():
    # S_X^2 = S_T^2 + S_E^2 under the reliability definition in use
    rng = np.random.default_rng(24)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        g = rng.integers(0, 26, size=n)
        h = rng.integers(0, 26, size=n)
        s = SubTestScores(g=g, h=h)
        st = stats_for(s, 52)
        if st.variance == 0:
            continue
        rep = classical_reliability(s, st)
        assert rep.S_T_sq + rep.error_variance == pytest.approx(
            st.variance, rel=1e-12
        )


def test_equal_norm_variant_differs_by_norm_gap_identity():
    rng = np.random.default_rng(25)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        g = rng.integers(0, 26, size=n)
        h = rng.integers(0, 26, size=n)
        s = SubTestScores(g=g, h=h)
        st = stats_for(s, 52)
        if st.variance == 0:
            continue
        rep = classical_reliability(s, st)
        gap = (np.linalg.norm(g) - np.linalg.norm(h)) ** 2 / (n * st.variance)
        assert rep.r_tt_equal_norm - rep.r_tt == pytest.approx(gap, abs=1e-10)
        assert rep.r_tt_equal_norm >= rep.r_tt - 1e-12


def test_negative_reliability_is_reported_not_hidden():
    # anti-correlated halves push the error variance past the total
    g = np.array([9, 0, 9, 0, 8, 1])
    h = np.array([0, 9, 0, 9, 0, 7])
    s = SubTestScores(g=g, h=h)
    rep = classical_reliability(s, stats_for(s, 18))
    assert rep.r_tt < 0
    assert any("negative" in w for w in rep.warnings)
    assert rep.r_XT == 0.0


def test_constant_half_degrades_r_gh_with_warning():
    g = np.array([3, 3, 3, 3])
    h = np.array([1, 2, 4, 5])
    s = SubTestScores(g=g, h=h)
    rep = classical_reliability(s, stats_for(s, 10))
    assert math.isnan(rep.r_gh)
    assert rep.warnings


def test_zero_total_variance_raises():
    g = np.array([2, 2, 2])
    h = np.array([3, 3, 3])
    s = SubTestScores(g=g, h=h)
    with pytest.raises(ZeroVariance):
        classical_reliability(s, stats_for(s, 10))


def test_reliability_report_shape_mismatch():
    s = SubTestScores(g=[1, 2, 3], h=[2, 2, 2])
    st = descriptive_stats(ExamineeScores([3, 4]), 10)
    with pytest.raises(ShapeError):
        classical_reliability(s, st)


def test_f_note_marks_observed_variance_approximation():
    s = SubTestScores(g=[5, 3, 4, 1], h=[4, 3, 3, 2])
    rep = classical_reliability(s, stats_for(s, 10))
    assert "observed" in rep.f_test_note
    d = rep.to_dict()
    assert d["f_test_note"] == rep.f_test_note


def test_report_matches_full_split_pipeline(table2_matrix):
    res = split(table2_matrix)
    s = sub_test_scores(table2_matrix, res.assignment)
    st = stats_for(s, 50)
    rep = classical_reliability(s, st)
    x = s.combined()
    assert st.mean == pytest.approx(float(np.mean(x)))
    assert 0.0 <= rep.r_tt <= 1.0
    assert rep.f_stat >= 1.0
