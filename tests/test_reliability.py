"""Reliability formulas, the F-test, and the person-space geometry."""

import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from splitrel import (
    Assignment,
    DomainViolation,
    ExamineeScores,
    RangeError,
    ScoreMatrix,
    ShapeError,
    SubTestScores,
    TooSmall,
    ZeroVariance,
    classical_reliability,
    descriptive_stats,
    f_test_equal_variance,
    seed_allocation,
    split,
    split_half_correlation,
    item_totals,
    sub_test_scores,
    true_score_geometry,
)
from splitrel import reliability
from splitrel.cli import main
from splitrel.reliability import _f_p_value


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


def gathered_halves(m, a):
    """The int64 column-gather reference for ``sub_test_scores``."""
    entries = m.entries.astype(np.int64)
    return entries[:, list(a.g_items)].sum(axis=1), entries[:, list(a.h_items)].sum(axis=1)


def random_split(rng, n_examinees, n_items):
    m = ScoreMatrix(rng.random((n_examinees, n_items)) < rng.random(n_items))
    order = rng.permutation(n_items)
    half = n_items // 2
    dropped = int(order[-1]) if n_items % 2 else None
    return m, Assignment(order[:half], order[half : 2 * half], dropped)


@pytest.mark.parametrize(
    "n_examinees, n_items",
    [(1023, 7), (1024, 8), (1025, 401), (1025, 2), (3, 2999), (2100, 3000)],
)
def test_blas_half_scores_equal_the_int64_gathers(n_examinees, n_items):
    # row counts on both sides of the 1024-row block, odd n with a dropped item
    rng = np.random.default_rng(n_examinees * 7919 + n_items)
    m, a = random_split(rng, n_examinees, n_items)
    s = sub_test_scores(m, a)
    g, h = gathered_halves(m, a)
    assert s.g.dtype == s.h.dtype == np.int64
    assert np.array_equal(s.g, g) and np.array_equal(s.h, h)


def test_float64_half_scores_equal_the_int64_gathers(monkeypatch):
    # above the float32 exactness threshold the products run in float64
    monkeypatch.setattr(reliability, "_FLOAT32_EXACT_ITEMS", 1)
    rng = np.random.default_rng(5)
    for n_examinees, n_items in ((1025, 401), (1023, 30), (4, 3)):
        m, a = random_split(rng, n_examinees, n_items)
        s = sub_test_scores(m, a)
        g, h = gathered_halves(m, a)
        assert s.g.dtype == s.h.dtype == np.int64
        assert np.array_equal(s.g, g) and np.array_equal(s.h, h)


HALF_SCORE_DIGEST = """
import hashlib
import numpy as np
from splitrel import Assignment, ScoreMatrix, sub_test_scores

rng = np.random.default_rng(17)
m = ScoreMatrix(rng.random((20000, 401)) < rng.random(401))
order = rng.permutation(401)
s = sub_test_scores(m, Assignment(order[:200], order[200:400], int(order[400])))
print(hashlib.sha256(s.g.tobytes() + s.h.tobytes()).hexdigest())
"""


def test_half_scores_do_not_depend_on_the_blas_thread_count():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    digests = [
        subprocess.run(
            [sys.executable, "-c", HALF_SCORE_DIGEST],
            env=threads, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for threads in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


@pytest.mark.parametrize(
    "g, h, error",
    [
        ([[1, 2], [3, 4]], [[1, 2], [3, 4]], ShapeError),  # a 2-D half
        ([1, 2, 3], [1, 2], ShapeError),  # halves of different lengths
        ([1, -2, 3], [1, 2, 3], DomainViolation),  # a negative score
        ([1, 2, 3], [1.0, 2.0, 3.0], DomainViolation),  # a float half
        ([], [], TooSmall),
        ([1], [2], TooSmall),
    ],
)
def test_sub_test_scores_rejections(g, h, error):
    with pytest.raises(error):
        SubTestScores(g=g, h=h)


def test_error_variance_is_exact_mean_squared_gap():
    s = SubTestScores(g=[3, 1, 4], h=[2, 2, 0])
    # (1 + 1 + 16) / 3
    assert classical_reliability(s, stats_for(s, 8)).error_variance == pytest.approx(6.0)


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
        report = classical_reliability(s, stats_for(s, 60))
        assert report.error_variance == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(norms, rel=1e-12)


def test_one_report_forms_the_half_moments_once(monkeypatch):
    # Σg², Σh² and Σgh are three dot products, shared by r_tt, the
    # split-half correlation and the F-test
    rng = np.random.default_rng(23)
    s = SubTestScores(g=rng.integers(0, 20, size=60), h=rng.integers(0, 20, size=60))
    stats = stats_for(s, 40)
    calls = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *args: calls.append(1) or dot(*args))
    report = classical_reliability(s, stats)
    assert len(calls) == 3
    assert report.r_gh == split_half_correlation(s)
    assert report.f_stat == f_test_equal_variance(s)[0]
    assert len(calls) == 3


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


# N from 3 to 5e5; F - 1 on a log grid from 1e-9, plus F at fixed depths
# a * log(4x(1-x)) of the upper tail, down to p near 1e-300
GRID_N = (3, 4, 5, 6, 7, 10, 15, 20, 30, 41, 60, 100, 333, 1000, 5000, 20000,
          100000, 500000)
GRID_F_MINUS_1 = [10.0 ** (k / 4) for k in range(-36, 5)] + [10.0**k for k in range(2, 301, 4)]
GRID_TAIL_DEPTHS = (2.0, 20.0, 100.0, 300.0, 500.0, 650.0, 685.0)


def p_value_40_digits(f: float, nu: int):
    """min(1, 2 I_x(nu/2, nu/2)) at x = 1/(1+F), as I_{4F/(1+F)^2}(nu/2, 1/2)
    (DLMF 8.17): mpmath's (a, a) form does not converge for large nu near F = 1."""
    with mpmath.workdps(40):
        F = mpmath.mpf(f)
        z = 4 * F / (1 + F) ** 2
        return min(mpmath.mpf(1), mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, z, regularized=True))


@pytest.fixture(scope="module")
def p_value_grid():
    """(N, F, 40-digit p) for every grid case with p >= 1e-300."""
    cases = []
    for n in GRID_N:
        a = (n - 1) / 2
        tail = []
        for depth in GRID_TAIL_DEPTHS:
            d = math.sqrt(-math.expm1(-depth / a))
            if d < 1.0:
                tail.append((1.0 + d) / (1.0 - d))
        for f in sorted(set(tail)):
            ref = p_value_40_digits(f, n - 1)
            if ref >= 1e-300:
                cases.append((n, f, ref))
        for f in (1.0 + g for g in GRID_F_MINUS_1):
            ref = p_value_40_digits(f, n - 1)
            if ref < 1e-300:
                break  # p falls with F; mpmath can fail far below 1e-300
            cases.append((n, f, ref))
    return cases


def test_f_p_value_within_1e_12_of_40_digit_oracle(p_value_grid):
    worst = (0.0, None, None)
    for n, f, ref in p_value_grid:
        err = float(abs((_f_p_value(f, n - 1) - ref) / ref))
        worst = max(worst, (err, n, f))
    print(f"F-test p-value: {len(p_value_grid)} cases, worst relative error "
          f"{worst[0]:.3g} at N={worst[1]}, F={worst[2]!r}")
    assert worst[0] <= 1e-12, worst


def test_f_p_value_matches_scipy_betainc(p_value_grid):
    # scipy's own error on this grid reaches ~2e-12 (it rounds x = 1/(1+F)
    # first), hence the looser bound for this second oracle
    worst = (0.0, None, None)
    for n, f, _ in p_value_grid:
        a = (n - 1) / 2
        expect = min(1.0, 2.0 * float(special.betainc(a, a, 1.0 / (1.0 + f))))
        worst = max(worst, (abs(_f_p_value(f, n - 1) - expect) / expect, n, f))
    assert worst[0] <= 5e-12, worst


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 500000),
    f1=st.floats(1.0, 1e6),
    f2=st.floats(1.0, 1e6),
)
def test_f_p_value_is_a_falling_probability(n, f1, f2):
    lo, hi = sorted((f1, f2))
    p_lo, p_hi = _f_p_value(lo, n - 1), _f_p_value(hi, n - 1)
    assert 0.0 <= p_hi <= 1.0 and 0.0 <= p_lo <= 1.0
    assert _f_p_value(1.0, n - 1) == 1.0
    # p does not increase with F, up to the 1e-12 accuracy the oracle pins:
    # at adjacent floats the true change is below the rounding noise
    assert p_hi <= p_lo * (1.0 + 1e-12)


def test_unconverged_p_value_is_an_error_line(tmp_path, monkeypatch):
    rng = np.random.default_rng(32)
    entries = (rng.random((50, 10)) < rng.random((50, 1))).astype(int)
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in entries))
    monkeypatch.setattr(reliability, "_cf_term_cap", lambda a: 1)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["reliability", "--input", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[CrossCheckFailed]: "), lines


@st.composite
def binary_matrix_with_dropped_item(draw):
    """A 0/1 matrix with n <= 12 items and, for an odd n, the fixed dropped item."""
    n_items = draw(st.integers(2, 12))
    n_rows = draw(st.integers(2, 20))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_items, max_size=n_items),
                         min_size=n_rows, max_size=n_rows))
    dropped = draw(st.integers(0, n_items - 1)) if n_items % 2 else None
    return rows, dropped


@settings(max_examples=60, deadline=None)
@given(binary_matrix_with_dropped_item())
def test_r_tt_is_rulon_less_the_imbalance_and_averages_to_kr20(case):
    """Over every balanced split of the reduced test, with exact rationals
    taken straight from the matrix:
    r_tt = Rulon - (S/N)^2 / Var X, and mean r_tt = KR-20 - mean(S^2) / (N^2 Var X)."""
    rows, dropped = case
    items = [j for j in range(len(rows[0])) if j != dropped]
    k, N = len(items), len(rows)
    x = [sum(r[j] for j in items) for r in rows]
    var_x = Fraction(N * sum(v * v for v in x) - sum(x) ** 2, N * N)
    assume(var_x > 0)
    totals = [sum(r[j] for r in rows) for j in items]
    kr20 = Fraction(k, k - 1) * (1 - sum(Fraction(t * (N - t), N * N) for t in totals) / var_x)

    m = ScoreMatrix(rows)
    exact, computed, s_sq, bound = [], [], [], 0.0
    # item items[0] stays in g, so each unordered split is counted once
    for rest in itertools.combinations(items[1:], k // 2 - 1):
        g = (items[0], *rest)
        h = tuple(j for j in items if j not in g)
        diff = [sum(r[j] for j in g) - sum(r[j] for j in h) for r in rows]
        S = sum(diff)
        var_d = Fraction(N * sum(v * v for v in diff) - S * S, N * N)
        rulon = 1 - var_d / var_x
        exact.append(rulon - Fraction(S, N) ** 2 / var_x)
        s_sq.append(S * S)

        scores = sub_test_scores(m, Assignment(g, h, dropped))
        report = classical_reliability(scores, stats_for(scores, k))
        computed.append(report.r_tt)
        # r_tt = 1 - e/v: a few roundings in e and v, each scaled by e/v
        tol = 8 * sys.float_info.epsilon * (1.0 + report.error_variance / float(var_x))
        bound = max(bound, tol)
        assert abs(report.r_tt - exact[-1]) <= tol, (g, h)

    mean_exact = kr20 - Fraction(sum(s_sq), len(s_sq) * N * N) / var_x
    assert sum(exact) / len(exact) == mean_exact
    assert abs(math.fsum(computed) / len(computed) - mean_exact) <= bound


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


NO_SCIPY_RUN = """
import sys
from splitrel.cli import main
codes = [
    main(["reliability", "--input", "m.csv", "--output", "r.json"]),
    main(["truescore", "--input", "m.csv", "--output", "t.json"]),
    main(["battery", "--inputs", "m.csv", "k.csv", "--output", "b.json"]),
]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_load_no_scipy_module(tmp_path):
    # reliability, truescore and battery all reach the F-test; none may pull in scipy
    rng = np.random.default_rng(31)
    ability = rng.random((40, 1))
    for name, n_items in (("m.csv", 9), ("k.csv", 12)):
        entries = (rng.random((40, n_items)) < ability).astype(int)
        (tmp_path / name).write_text("".join(",".join(map(str, r)) + "\n" for r in entries))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[0, 0, 0] []", out.stderr


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
    assert list(d) == [f.name for f in dataclasses.fields(rep)]
    assert d["warnings"] == list(rep.warnings) and type(d["warnings"]) is list


def test_report_matches_full_split_pipeline(table2_matrix):
    res = split(table2_matrix)
    s = sub_test_scores(table2_matrix, res.assignment)
    st = stats_for(s, 50)
    rep = classical_reliability(s, st)
    x = s.combined()
    assert st.mean == pytest.approx(float(np.mean(x)))
    assert 0.0 <= rep.r_tt <= 1.0
    assert rep.f_stat >= 1.0
