"""Acceptance suite: eight numbered criteria, one summary line each.

Each test records its clause outcomes with the shared recorder before
asserting, so the terminal summary always prints a line per criterion.

Three criteria state reference values that need reading against the
method's own definitions:

* Criterion 2 states the minimum-variance weights of the two-test
  example as (0.7028, 0.2972). For a 2x2 D the rule W = D^-1 e /
  (e' D^-1 e) has the closed form W ~ (D22 - D12, D11 - D12) =
  (1.6000, 3.7834), i.e. (0.29721, 0.70279): 0.2972 belongs to the
  higher-variance test 0 and 0.7028 to test 1, the stated tuple in
  reverse order. The clause checks each stated value on its own test and
  the weights against the closed form.
* Criterion 4's long-test clause (N = 1000, n = 1000) is checked
  against the reliability the simulator's D3 model implies for the
  abilities drawn under the same seed, n Var(p) / (n Var(p) + E[p(1-p)]),
  which rises with n (0.99493 at seed 2026).
* Criterion 5 checks the greedy same-row swap search against an
  exact oracle over every same-row flip of the seeded rows: the
  result keeps the seed rows, never undercuts that oracle and is a
  local optimum. The share of instances that also reach the global
  optimum is reported, not gated: the same-row search cannot reach more
  than the same-row ceiling (64 of 100 on the pinned batch).

Criterion 6 pins the refinement's cost by counting candidate
evaluations, which is exact, and keeps one timed length-scaling band.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from splitrel import (
    CovMatrix,
    ExamineeScores,
    ItemScores,
    ScoreMatrix,
    SubTestScores,
    WeightVector,
    classical_reliability,
    compare_estimators,
    descriptive_stats,
    generate,
    optimal_weights,
    seed_allocation,
    SimModel,
    split,
    splitter,
    sub_test_scores,
    swap_refine,
    weighted_reliability,
)
from splitrel.battery import BatteryInput, ComponentTest

from conftest import (
    TABLE2_N,
    TABLE2_TOTALS,
    balanced_optimum,
    column_fill,
    reference_probabilities,
    same_row_optimum,
)

D_EXAMPLE = np.array([[6.2405, 2.4571], [2.4571, 4.0571]])
R_EXAMPLE = (0.6571, 0.3488)


def reliability_pipeline(kind, N, n, seed):
    m = generate(SimModel(kind, N, n, seed))
    res = split(m)
    sc = sub_test_scores(m, res.assignment)
    st = descriptive_stats(ExamineeScores(sc.combined()), n)
    return classical_reliability(sc, st)


def test_criterion_1_published_totals_split(criterion):
    start = time.perf_counter()
    m = column_fill([TABLE2_TOTALS[j] for j in sorted(TABLE2_TOTALS)], TABLE2_N)
    res = split(m)
    elapsed = time.perf_counter() - start
    ok_sums = res.sum_g == 5011 and res.sum_h == 5011 and res.abs_S == 0
    ok_time = elapsed < 1.0
    criterion(1, f"sum_g = sum_h = 5011, abs_S = 0 (got {res.sum_g}/{res.sum_h})", ok_sums)
    criterion(1, f"runtime {elapsed:.3f} s < 1 s", ok_time)
    assert ok_sums
    assert ok_time


def test_criterion_2_optimal_weights_as_stated(criterion):
    wv = optimal_weights(CovMatrix(D_EXAMPLE))
    got = tuple(round(v, 5) for v in wv.w)
    # W = D^-1 e / (e' D^-1 e) for a 2x2 D, by hand: D^-1 e is proportional
    # to (D22 - D12, D11 - D12), here (1.6000, 3.7834)
    (d11, d12), (_, d22) = D_EXAMPLE.tolist()
    z = (d22 - d12, d11 - d12)
    closed = (z[0] / (z[0] + z[1]), z[1] / (z[0] + z[1]))
    ok_stated = abs(wv.w[0] - 0.2972) <= 5e-4 and abs(wv.w[1] - 0.7028) <= 5e-4
    ok_closed = all(abs(w - c) <= 1e-12 for w, c in zip(wv.w, closed))
    criterion(
        2,
        f"optimal_weights: 0.2972 on test 0 (S^2 = 6.2405), 0.7028 on test 1 "
        f"+-0.0005; got {got}",
        ok_stated,
    )
    criterion(
        2,
        f"optimal_weights = closed form (D22-D12, D11-D12)/(D11+D22-2*D12) "
        f"= ({closed[0]:.5f}, {closed[1]:.5f}) at 1e-12",
        ok_closed,
    )
    assert ok_stated, (
        f"optimal_weights returned {got}. The criterion lists the weights as "
        "(0.7028, 0.2972), which is the minimum-variance solution in reverse "
        "order: W ~ (D22 - D12, D11 - D12) = (1.6000, 3.7834) puts 0.2972 on "
        "the higher-variance test 0 and 0.7028 on test 1, and the minimality "
        "and equi-covariance checks of criterion 7 hold only for that order."
    )
    assert ok_closed, (
        f"optimal_weights returned {tuple(wv.w)}, not the closed form "
        f"{closed} of W = D^-1 e / (e' D^-1 e) for a 2x2 D."
    )


def test_criterion_2_weighted_reliability_at_stated_weights(criterion):
    start = time.perf_counter()
    scores = [ExamineeScores([0, 1]) for _ in range(2)]
    battery = BatteryInput(
        tests=tuple(
            ComponentTest(scores=s, S_X_sq=float(D_EXAMPLE[i, i]), r_tt=R_EXAMPLE[i])
            for i, s in enumerate(scores)
        )
    )
    stated = WeightVector(w=(0.7028, 0.2972), lam=float("nan"), method="lagrange")
    rep = weighted_reliability(battery, CovMatrix(D_EXAMPLE), stated)
    elapsed = time.perf_counter() - start
    ok_value = abs(rep.r_battery - 0.7112) <= 1e-3
    ok_time = elapsed < 1.0
    criterion(
        2,
        f"weighted_reliability at the stated weights = 0.7112 +-0.001 "
        f"(got {rep.r_battery:.6f}; honest optimal chain gives 0.582876)",
        ok_value,
    )
    criterion(2, f"runtime {elapsed:.3f} s < 1 s", ok_time)
    assert ok_value
    assert ok_time


def test_criterion_3_model_table_reproduction(criterion):
    start = time.perf_counter()
    seeds = range(100, 110)
    means = {
        kind: float(np.mean([reliability_pipeline(kind, 999, 50, s).r_tt for s in seeds]))
        for kind in ("D1", "D2", "D3", "D4")
    }
    elapsed = time.perf_counter() - start
    ok_d1 = abs(means["D1"] - 0.9662) <= 0.03
    ok_d3 = abs(means["D3"] - 0.8994) <= 0.03
    ok_d2 = abs(means["D2"]) < 0.10
    ok_d4 = abs(means["D4"]) < 0.10
    ok_time = elapsed < 30.0
    criterion(3, f"mean r_tt D1 {means['D1']:.4f} within 0.9662 +-0.03", ok_d1)
    criterion(3, f"mean r_tt D3 {means['D3']:.4f} within 0.8994 +-0.03", ok_d3)
    criterion(3, f"mean r_tt D2 {means['D2']:.4f} below 0.10", ok_d2)
    criterion(3, f"mean r_tt D4 {means['D4']:.4f} below 0.10", ok_d4)
    criterion(3, f"runtime {elapsed:.1f} s < 30 s", ok_time)
    assert ok_d1 and ok_d2 and ok_d3 and ok_d4
    assert ok_time


def test_criterion_4_large_scale_band(criterion):
    start = time.perf_counter()
    rep = reliability_pipeline("D3", 500_000, 50, 2026)
    elapsed = time.perf_counter() - start
    ok_band = 0.90 <= rep.r_tt <= 0.99
    ok_time = elapsed < 60.0
    criterion(4, f"N=5e5, n=50: r_tt {rep.r_tt:.4f} in [0.90, 0.99]", ok_band)
    criterion(4, f"end-to-end {elapsed:.1f} s < 60 s", ok_time)
    assert ok_band
    assert ok_time


def implied_reliability(p: np.ndarray, n: int) -> float:
    """Reliability of an n-item test whose examinee i passes each item with p[i].

    True score n*p_i, error variance n*p_i*(1-p_i) per examinee, so
    r = n Var(p) / (n Var(p) + E[p(1-p)]), which follows the Spearman-Brown
    length law and rises toward 1 with n.
    """
    true_var = n * float(np.var(p))
    return true_var / (true_var + float(np.mean(p * (1.0 - p))))


# Measured r_tt minus implied_reliability at N = n = 1000 over seeds 1..40
# and 2026: mean -8.0e-5, sd 2.3e-4, largest 6.5e-4. The tolerance is about
# four sd and a fifth of the smallest gap (4.9e-3) to the half-length value
# implied_reliability(p, n // 2), which an unstepped r_gh would land on.
LONG_TEST_TOL = 1e-3


def test_criterion_4_long_test_band(criterion):
    N = n = 1000
    rep = reliability_pipeline("D3", N, n, 2026)
    p = reference_probabilities("D3", N, n, 2026)[:, 0]
    implied = implied_reliability(p, n)
    half = implied_reliability(p, n // 2)
    ok = abs(rep.r_tt - implied) <= LONG_TEST_TOL
    criterion(
        4,
        f"N=1000, n=1000: r_tt {rep.r_tt:.5f} within {LONG_TEST_TOL:g} of the "
        f"D3-implied {implied:.5f} (half length {half:.5f})",
        ok,
    )
    assert ok, (
        f"r_tt = {rep.r_tt:.5f} for the 1000-item test, but the D3 abilities "
        f"drawn under seed 2026 imply n*Var(p) / (n*Var(p) + E[p(1-p)]) = "
        f"{implied:.5f}, and the implied value rises with n (half length: "
        f"{half:.5f}). Off by more than {LONG_TEST_TOL:g}, four times the "
        "seed-to-seed spread, the split or the length step-up is broken."
    )


def test_criterion_5_oracle_equivalence(criterion):
    rng = np.random.default_rng(20260817)
    equal = 0
    ceiling = 0
    below = 0
    off_rows = 0
    below_same_row = 0
    not_local = 0
    gaps = []
    for _ in range(100):
        tau = ItemScores(rng.integers(0, 51, size=10))
        seed = seed_allocation(tau)
        heur = swap_refine(seed, tau)
        scores = tau.as_ints()
        best = balanced_optimum(scores)
        same_row = same_row_optimum(
            scores[g] - scores[h] for g, h in zip(seed.g_items, seed.h_items)
        )
        gaps.append(heur.abs_S - best)
        equal += heur.abs_S == best
        ceiling += same_row == best
        below += heur.abs_S < best
        got = heur.assignment
        same_shape = got.n_rows == seed.n_rows and got.dropped_item == seed.dropped_item
        off_rows += not same_shape or any(
            {g, h} != {sg, sh}
            for g, h, sg, sh in zip(got.g_items, got.h_items, seed.g_items, seed.h_items)
        )
        below_same_row += heur.abs_S < same_row
        not_local += any(
            abs(heur.S - 2 * (g - h)) < heur.abs_S
            for g, h in zip(heur.g_scores, heur.h_scores)
        )
    median_gap = float(np.median(gaps))
    ok_rows = off_rows == 0
    ok_same_row = below_same_row == 0
    ok_local = not_local == 0
    ok_floor = below == 0
    ok_median = median_gap == 0
    criterion(5, f"result rows are seed rows ({off_rows} violations)", ok_rows)
    criterion(
        5,
        f"never below the same-row optimum ({below_same_row} violations)",
        ok_same_row,
    )
    criterion(
        5,
        f"no single row flip improves the result ({not_local} violations); "
        f"global optimum reached {equal}/100, same-row ceiling {ceiling}/100",
        ok_local,
    )
    criterion(5, f"never below the optimum ({below} violations)", ok_floor)
    criterion(5, f"median gap {median_gap:g} == 0", ok_median)
    assert ok_rows and ok_same_row and ok_local, (
        f"swap_refine left the documented search on {off_rows} instances, "
        f"undercut the exact same-row optimum on {below_same_row} and "
        f"stopped with an improving row flip left on {not_local}. The greedy "
        "search only flips the seed's rows, so its result is bounded by the "
        f"same-row optimum, which equals the global one on {ceiling} of 100 "
        "instances; it must end at a local optimum of that search."
    )
    assert ok_floor
    assert ok_median


def refine_seconds(taus, repeats=20, rounds=5):
    """Best per-call refinement time of each tau over ``rounds`` batches.

    Every round times all taus in turn, so a drift in host speed hits
    them alike instead of skewing one size against another.
    """
    best = [float("inf")] * len(taus)
    for _ in range(rounds):
        for i, tau in enumerate(taus):
            t0 = time.perf_counter()
            for _ in range(repeats):
                swap_refine(seed_allocation(tau), tau)
            best[i] = min(best[i], (time.perf_counter() - t0) / repeats)
    return best


def counted_split(monkeypatch, m):
    """split(m) with the number of candidate re-sums it evaluated."""
    calls = 0
    resum = splitter._resummed_s_with_swap

    def counting(diffs, k):
        nonlocal calls
        calls += 1
        return resum(diffs, k)

    with monkeypatch.context() as patch:
        patch.setattr(splitter, "_resummed_s_with_swap", counting)
        res = split(m)
    return res, calls


def test_criterion_6_refinement_cost_model(criterion, monkeypatch):
    # examinee count must not matter: N rows, N zero rows added, and the
    # matrix stacked on itself (every item total doubled)
    base = generate(SimModel("D3", 2000, 120, 31))
    entries = np.asarray(base.entries)
    padded = ScoreMatrix(np.vstack([entries, np.zeros_like(entries)]))
    stacked = ScoreMatrix(np.vstack([entries, entries]))
    res_n, calls_n = counted_split(monkeypatch, base)
    res_pad, calls_pad = counted_split(monkeypatch, padded)
    res_2x, calls_2x = counted_split(monkeypatch, stacked)
    ok_n_free = (
        calls_n == calls_pad == calls_2x > 0
        and res_pad == res_n
        and res_2x.assignment == res_n.assignment
        and res_2x.iterations == res_n.iterations
        and res_2x.history == tuple(2 * v for v in res_n.history)
        and res_2x.g_scores == tuple(2 * v for v in res_n.g_scores)
        and res_2x.h_scores == tuple(2 * v for v in res_n.h_scores)
    )
    criterion(
        6,
        f"candidate evaluations N / 2N zero-padded / 2N stacked "
        f"{calls_n}/{calls_pad}/{calls_2x} equal, same split",
        ok_n_free,
    )

    # each seed's n=100 and n=200 instances are timed side by side
    taus = [
        ItemScores(np.random.default_rng(seed).integers(0, 51, size=n_items))
        for seed in range(400, 412)
        for n_items in (100, 200)
    ]
    times = refine_seconds(taus)
    t100 = float(np.median(times[0::2]))
    t200 = float(np.median(times[1::2]))
    factor = t200 / t100
    ok_quad = 2.5 <= factor <= 6.0
    criterion(6, f"n=200 vs n=100 factor {factor:.2f} in [2.5, 6]", ok_quad)
    assert ok_n_free
    assert ok_quad


def test_criterion_7_invariant_suites(criterion):
    # mean-difference identity, exact rational arithmetic, 1000 splits
    rng = np.random.default_rng(17)
    exact = 0
    for _ in range(1000):
        n_ex = int(rng.integers(2, 12))
        n_items = int(rng.integers(2, 11)) * 2
        m = (rng.random((n_ex, n_items)) < rng.random()).astype(int)
        perm = rng.permutation(n_items)
        g, h = perm[: n_items // 2], perm[n_items // 2 :]
        mean_g = Fraction(int(m[:, g].sum()), n_ex)
        mean_h = Fraction(int(m[:, h].sum()), n_ex)
        abs_s = abs(int(m[:, g].sum()) - int(m[:, h].sum()))
        exact += abs(mean_g - mean_h) == Fraction(abs_s, n_ex)
    ok_means = exact == 1000
    criterion(7, f"mean-difference identity exact on {exact}/1000 random splits", ok_means)

    partition_ok = True
    for seed in range(300, 310):
        rep = reliability_pipeline("D3", 400, 30, seed)
        s_x_sq = rep.S_T_sq + rep.error_variance
        rep_total = rep.S_T_sq / rep.r_tt if rep.r_tt else s_x_sq
        partition_ok &= abs(s_x_sq - rep_total) <= 1e-9 * max(1.0, abs(rep_total))
    criterion(7, "S_X^2 = S_T^2 + S_E^2 at 1e-9", partition_ok)

    rng = np.random.default_rng(41)
    minimal_ok = True
    equicov_ok = True
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        d = CovMatrix(a @ a.T + 0.2 * np.eye(4))
        w = np.asarray(optimal_weights(d).w)
        v_opt = float(w @ d.d @ w)
        for _ in range(100):
            v = rng.random(4)
            v /= v.sum()
            minimal_ok &= v_opt <= float(v @ d.d @ v) + 1e-9
        dw = d.d @ w
        equicov_ok &= float(dw.max() - dw.min()) <= 1e-8 * max(1.0, float(abs(dw[0])))
    criterion(7, "optimal-weight minimality over simplex samples at 1e-9", minimal_ok)
    criterion(7, "equi-covariance of the optimum at 1e-8", equicov_ok)
    assert ok_means and partition_ok and minimal_ok and equicov_ok


def shifted_half_dataset(pattern):
    """Binary matrix where each h-half score is the g-half score plus one."""
    rows = []
    for k in pattern:
        row = [1] * k + [0] * (5 - k) + [1] * (k + 1) + [0] * (4 - k)
        rows.append(row)
    m = ScoreMatrix(rows)
    g = np.asarray(m.entries)[:, :5].sum(axis=1)
    h = np.asarray(m.entries)[:, 5:].sum(axis=1)
    return m, SubTestScores(g=g, h=h)


def test_criterion_8_sign_law_exact(criterion):
    pattern = [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
    _, s = shifted_half_dataset(pattern)
    st = descriptive_stats(ExamineeScores(s.combined()), 10)
    rep = classical_reliability(s, st)
    assert rep.r_gh == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= rep.r_tt < 1.0
    comp = compare_estimators(ExamineeScores(s.combined()), st, rep.r_tt, rep.r_gh)
    totals = [int(v) for v in s.combined()]
    total = sum(totals)
    n_ex = len(totals)
    all_exact = True
    for row, x in zip(comp.to_dict()["rows"].tolist(), totals):
        dev = n_ex * x - total
        expected = (dev > 0) - (dev < 0)
        all_exact &= row["sign"] == expected
        if expected != 0:
            all_exact &= (row["difference"] > 0) == (expected > 0)
        else:
            all_exact &= row["difference"] == 0.0
    criterion(
        8,
        f"sign law exact on a constructed r_gh=1 > r_tt={rep.r_tt:.3f} dataset "
        f"({len(pattern)} examinees)",
        all_exact,
    )
    assert all_exact

    # screened random family: keep instances where r_gh > r_tt holds
    rng = np.random.default_rng(81)
    qualifying = 0
    law_holds = True
    while qualifying < 5:
        g = rng.integers(0, 12, size=25)
        shift = int(rng.integers(1, 4))
        h = g + shift
        s = SubTestScores(g=g, h=h)
        st = descriptive_stats(ExamineeScores(s.combined()), 30)
        if st.variance == 0:
            continue
        rep = classical_reliability(s, st)
        if not rep.r_gh > rep.r_tt >= 0:
            continue
        qualifying += 1
        comp = compare_estimators(ExamineeScores(s.combined()), st, rep.r_tt, rep.r_gh)
        totals = [int(v) for v in s.combined()]
        total = sum(totals)
        for row, x in zip(comp.to_dict()["rows"].tolist(), totals):
            dev = len(totals) * x - total
            law_holds &= row["sign"] == (dev > 0) - (dev < 0)
    criterion(8, f"sign law exact on {qualifying} screened random datasets", law_holds)
    assert law_holds
