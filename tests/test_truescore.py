"""True-score regression tables, estimator comparison, percentile ranks."""

import csv
import io
import math

import numpy as np
import pytest

from splitrel import (
    DomainViolation,
    ExamineeScores,
    RangeError,
    ShapeError,
    TrueScoreTable,
    ZeroVariance,
    compare_estimators,
    descriptive_stats,
    estimate_true_scores,
    percentile_rank,
)
from splitrel.cli import _csv


def make_stats(values, n_items):
    return descriptive_stats(ExamineeScores(values), n_items)


def rows(table):
    """The table's row dicts, as its JSON report lists them."""
    return table.to_dict()["rows"].tolist()


def test_regression_line_matches_hand_computation():
    x = [10, 14, 6, 10]
    st = make_stats(x, 20)  # mean 10, variance 8
    table = estimate_true_scores(ExamineeScores(x), st, 0.75, "classical")
    assert table.beta1 == pytest.approx(0.75)
    assert table.alpha1 == pytest.approx(2.5)
    assert table.S_E == pytest.approx(math.sqrt(0.25 * 8.0))
    assert table.estimate.tolist() == pytest.approx([10.0, 13.0, 7.0, 10.0])
    # shrinkage: every estimate sits between the score and the mean
    for row in rows(table):
        lo, hi = sorted((row["observed"], st.mean))
        assert lo - 1e-12 <= row["estimate"] <= hi + 1e-12


def test_interval_is_plus_minus_one_error_sd():
    x = [3, 9, 6, 6]
    st = make_stats(x, 12)
    table = estimate_true_scores(ExamineeScores(x), st, 0.5, "split_half")
    for row in rows(table):
        assert row["high"] - row["estimate"] == pytest.approx(table.S_E)
        assert row["estimate"] - row["low"] == pytest.approx(table.S_E)


def test_prediction_error_diagnostics():
    x = [2, 8, 5, 5]
    st = make_stats(x, 10)
    r = 0.6
    table = estimate_true_scores(ExamineeScores(x), st, r, "classical")
    assert table.prediction_error_variance == pytest.approx((1 - r) ** 2 * st.variance)
    assert table.prediction_error_gap == pytest.approx(r * (1 - r) * st.variance)
    # S_E^2 = prediction_error_variance + gap
    assert table.S_E**2 == pytest.approx(
        table.prediction_error_variance + table.prediction_error_gap
    )
    for row in rows(table):
        assert row["prediction_error"] == pytest.approx(
            abs(row["observed"] - st.mean) * (1 - r)
        )


def test_out_of_range_estimates_flagged_not_clamped():
    # r = 1 keeps estimates at the raw scores, so a score beyond the
    # declared item count must come out flagged and unmodified
    x = [9, 1, 5, 5]
    st = make_stats(x, 8)
    table = estimate_true_scores(ExamineeScores(x), st, 1.0, "classical")
    flagged = [row for row in rows(table) if row["out_of_range"]]
    assert [row["observed"] for row in flagged] == [9]
    assert flagged[0]["estimate"] == pytest.approx(9.0)
    assert table.warnings and "outside" in table.warnings[0]


def test_reliability_bounds_enforced():
    x = [2, 4, 6]
    st = make_stats(x, 8)
    for bad in (-0.01, 1.01):
        with pytest.raises(RangeError):
            estimate_true_scores(ExamineeScores(x), st, bad, "classical")
    with pytest.raises(RangeError):
        estimate_true_scores(ExamineeScores(x), st, 0.5, "bootstrap")


def test_zero_variance_rejected():
    x = [4, 4, 4]
    st = make_stats(x, 8)
    with pytest.raises(ZeroVariance):
        estimate_true_scores(ExamineeScores(x), st, 0.5, "classical")


def test_ids_default_and_mismatch():
    x = [2, 4, 6]
    st = make_stats(x, 8)
    # row i of each table is examinee i
    table = estimate_true_scores(ExamineeScores(x), st, 0.5, "classical")
    assert [row["observed"] for row in rows(table)] == x
    comparison = compare_estimators(ExamineeScores(x), st, 0.5, 0.6)
    assert [row["observed"] for row in rows(comparison)] == x
    with pytest.raises(ShapeError, match="stats describe 3 examinees but scores have 2"):
        estimate_true_scores(ExamineeScores([2, 4]), st, 0.5, "classical")


def test_to_csv_round_trips():
    x = [3, 9, 6, 6]
    st = make_stats(x, 12)
    table = estimate_true_scores(ExamineeScores(x), st, 0.5, "classical")
    text = "".join(_csv(table.row_block()))
    lines = list(csv.DictReader(io.StringIO(text)))
    # line i is examinee i
    assert [int(line["observed"]) for line in lines] == x
    assert float(lines[1]["estimate"]) == pytest.approx(table.estimate[1])


@pytest.mark.parametrize(
    "observed, error",
    [([3, -1], DomainViolation), ([3.0, 1.0], DomainViolation), ([], ShapeError)],
)
def test_a_table_takes_only_nonnegative_integer_observed_scores(observed, error):
    n_rows = len(observed)
    zeros = np.zeros(n_rows)
    with pytest.raises(error, match="observed scores must be"):
        TrueScoreTable(
            observed=np.array(observed),
            estimate=zeros, low=zeros, high=zeros, prediction_error=zeros,
            out_of_range=zeros.astype(bool),
            alpha1=0.0, beta1=0.5, S_E=0.5, reliability_kind="classical",
            prediction_error_variance=0.25, prediction_error_gap=0.0, n_items=4,
            warnings=(),
        )


def test_percentile_rank_is_empirical_cdf():
    x = [10, 14, 6, 10]
    st = make_stats(x, 20)
    table = estimate_true_scores(ExamineeScores(x), st, 0.75, "classical")
    # estimates 10, 13, 7, 10
    assert percentile_rank(table, 13.0) == pytest.approx(100.0)
    assert percentile_rank(table, 10.0) == pytest.approx(75.0)
    assert percentile_rank(table, 6.9) == pytest.approx(0.0)
    assert percentile_rank(table, 7.0) == pytest.approx(25.0)


def test_compare_estimators_sign_law_on_shifted_halves():
    # r_gh > r_tt: every difference must carry the sign of (X - mean)
    x = [4, 12, 8, 4, 12]
    st = make_stats(x, 16)
    comp = compare_estimators(ExamineeScores(x), st, r_tt=0.6, r_gh=0.9)
    for row in rows(comp):
        dev = row["observed"] - st.mean
        expected = (dev > 0) - (dev < 0)
        assert row["sign"] == expected
        assert row["difference"] == pytest.approx(0.3 * dev)
    assert comp.warnings == ()


def test_compare_estimators_flags_reversed_direction():
    x = [4, 12, 8]
    st = make_stats(x, 16)
    comp = compare_estimators(ExamineeScores(x), st, r_tt=0.9, r_gh=0.6)
    assert any("reversed" in w for w in comp.warnings)
    for row in rows(comp):
        dev = row["observed"] - st.mean
        assert row["sign"] == -((dev > 0) - (dev < 0))


def test_compare_estimators_mean_scorer_has_zero_sign():
    x = [4, 12, 8]
    st = make_stats(x, 16)
    comp = compare_estimators(ExamineeScores(x), st, r_tt=0.5, r_gh=0.8)
    middle = rows(comp)[2]
    assert middle["observed"] == 8 and middle["sign"] == 0
    assert middle["difference"] == pytest.approx(0.0)


def test_compare_matches_direct_table_subtraction():
    rng = np.random.default_rng(31)
    x = [int(v) for v in rng.integers(0, 30, size=40)]
    st = make_stats(x, 30)
    r_tt, r_gh = 0.62, 0.88
    classical = estimate_true_scores(ExamineeScores(x), st, r_tt, "classical")
    halfwise = estimate_true_scores(ExamineeScores(x), st, r_gh, "split_half")
    comp = compare_estimators(ExamineeScores(x), st, r_tt, r_gh)
    assert comp.difference == pytest.approx(halfwise.estimate - classical.estimate, abs=1e-9)


def _sign(v):
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("r_tt,r_gh", [(0.8307, 0.9113), (0.7741, 0.6172)])
def test_columns_equal_the_row_formulas_exactly(r_tt, r_gh):
    # the row-by-row formulas the columns replaced, in Python floats
    rng = np.random.default_rng(20000)
    x = rng.binomial(50, rng.random(20000))
    st = make_stats(x, 50)
    scores = x.tolist()
    table = estimate_true_scores(ExamineeScores(x), st, r_tt, "classical")
    comp = compare_estimators(ExamineeScores(x), st, r_tt, r_gh)

    alpha1 = st.mean * (1.0 - r_tt)
    s_e = math.sqrt((1.0 - r_tt) * st.variance)
    estimate = [alpha1 + r_tt * score for score in scores]
    assert table.estimate.tolist() == estimate
    assert table.low.tolist() == [est - s_e for est in estimate]
    assert table.high.tolist() == [est + s_e for est in estimate]
    assert table.prediction_error.tolist() == [
        abs(score - st.mean) * (1.0 - r_tt) for score in scores
    ]
    assert table.out_of_range.tolist() == [est < 0.0 or est > 50 for est in estimate]

    spread = r_gh - r_tt
    total = sum(scores)
    assert comp.difference.tolist() == [(score - st.mean) * spread for score in scores]
    assert comp.sign.tolist() == [
        _sign(len(scores) * score - total) * _sign(spread) for score in scores
    ]

    for t in (estimate[0], st.mean, -1.0, 51.0):
        count = sum(1 for est in estimate if est <= t)
        assert percentile_rank(table, t) == 100.0 * count / len(scores)
