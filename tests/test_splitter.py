"""Splitting: seeding, greedy refinement, exact split oracles, and the exact identities."""

import bisect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitrel import (
    Assignment,
    ItemScores,
    RangeError,
    ScoreMatrix,
    examinee_totals,
    item_totals,
    product_refine,
    seed_allocation,
    split,
    swap_refine,
)

from conftest import (
    TABLE2_N,
    TABLE2_TOTALS,
    balanced_optimum,
    column_fill,
    same_row_optimum,
    table2_tau,
)


def optimal_abs_s_mitm(values):
    """Meet-in-the-middle minimum of |sum(g) - sum(h)| over equal halves.

    Independent of the bitset DP in ``conftest.balanced_optimum``: splits
    the items into two pools, tabulates (subset size, subset sum) for
    each pool, and joins size-complementary rows through bisection.
    """
    n = len(values)
    assert n % 2 == 0
    half, target = n // 2, sum(values)
    left, right = values[: n // 2], values[n // 2 :]

    def table(pool):
        by_size = {}
        for mask in range(1 << len(pool)):
            size = mask.bit_count()
            s = sum(v for i, v in enumerate(pool) if mask >> i & 1)
            by_size.setdefault(size, []).append(s)
        return {k: sorted(v) for k, v in by_size.items()}

    lt, rt = table(left), table(right)
    best = None
    for size_l, sums_l in lt.items():
        size_r = half - size_l
        if size_r not in rt:
            continue
        sums_r = rt[size_r]
        for sl in sums_l:
            # want 2*(sl + sr) close to target
            want = target / 2 - sl
            at = bisect.bisect_left(sums_r, want)
            for idx in (at - 1, at):
                if 0 <= idx < len(sums_r):
                    cand = abs(2 * (sl + sums_r[idx]) - target)
                    if best is None or cand < best:
                        best = cand
    return best


def test_seed_allocation_deals_in_abba_pattern():
    # sorted scores 9,7,5,3,2,1 deal to g,h,h,g then g,h,h,g again,
    # so g receives 9,3,2 (indices 1,0,5) and h receives 7,5,1
    tau = ItemScores([3, 9, 1, 7, 5, 2])
    a = seed_allocation(tau)
    assert a.g_items == (1, 0, 5)
    assert a.h_items == (3, 4, 2)
    assert a.dropped_item is None


def test_seed_allocation_breaks_ties_by_item_index():
    tau = ItemScores([4, 4, 4, 4])
    a = seed_allocation(tau)
    assert a.g_items == (0, 3)
    assert a.h_items == (1, 2)


def test_seed_allocation_drops_lowest_scored_item_when_odd():
    tau = ItemScores([5, 2, 8, 2, 6])
    a = seed_allocation(tau)
    # the later index wins the tie for lowest, per descending sort with
    # ascending-index tie break: order is 8,6,5,2(idx1),2(idx3)
    assert a.dropped_item == 3
    assert set(a.g_items) | set(a.h_items) == {0, 1, 2, 4}


def test_assignment_validation():
    with pytest.raises(Exception):
        Assignment(g_items=(0, 1), h_items=(1, 2), dropped_item=None)


def test_swap_refine_reaches_zero_on_published_totals():
    tau = table2_tau()
    res = swap_refine(seed_allocation(tau), tau)
    assert res.sum_g == res.sum_h == 5011
    assert res.abs_S == 0
    assert res.history[0] == 64
    assert res.history[-1] == 0
    assert res.criterion == "abs_S"


def test_swap_refine_history_strictly_improves():
    rng = np.random.default_rng(11)
    for _ in range(30):
        tau = ItemScores(rng.integers(0, 80, size=int(rng.integers(4, 40))))
        res = swap_refine(seed_allocation(tau), tau)
        hist = res.history
        assert all(hist[i] > hist[i + 1] for i in range(len(hist) - 1))
        assert res.abs_S == hist[-1]
        assert res.iterations == len(hist) - 1


def test_swap_refine_never_beats_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(60):
        tau = ItemScores(rng.integers(0, 51, size=10))
        assert swap_refine(seed_allocation(tau), tau).abs_S >= balanced_optimum(tau.as_ints())


def test_swap_refine_is_a_same_row_local_optimum_at_realistic_sizes():
    # up to 401 items with totals below 20000, as from 20000 examinees;
    # flips keep the parity of the seed's sum of row differences
    rng = np.random.default_rng(401)
    matched = 0
    for _ in range(200):
        tau = ItemScores(rng.integers(0, rng.integers(1, 20000), size=rng.integers(2, 402)))
        seed = seed_allocation(tau)
        scores = tau.as_ints()
        diffs = [scores[g] - scores[h] for g, h in zip(seed.g_items, seed.h_items)]
        res = swap_refine(seed, tau)
        best = same_row_optimum(diffs)
        assert res.abs_S >= best
        flips = zip(res.g_scores, res.h_scores)
        assert all(abs(res.S - 2 * (g - h)) >= res.abs_S for g, h in flips)
        assert res.abs_S % 2 == sum(diffs) % 2
        matched += res.abs_S == best
    # reported, not gated: greedy descent need not reach the same-row optimum
    print(f"same-row optimum reached on {matched}/200 instances")


def test_swap_refine_policies_agree_on_invariants():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tau = ItemScores(rng.integers(0, 51, size=12))
        single = swap_refine(seed_allocation(tau), tau, policy="single")
        batch = swap_refine(seed_allocation(tau), tau, policy="all")
        for res in (single, batch):
            assert res.abs_S == abs(res.S) == abs(res.sum_g - res.sum_h)
            hist = res.history
            assert all(hist[i] > hist[i + 1] for i in range(len(hist) - 1))


def test_swap_refine_max_iter_zero_keeps_seed():
    tau = table2_tau()
    res = swap_refine(seed_allocation(tau), tau, max_iter=0)
    assert res.iterations == 0
    assert res.abs_S == 64
    with pytest.raises(RangeError):
        swap_refine(seed_allocation(tau), tau, max_iter=-1)
    # a non-integral limit is refused, never truncated; numpy integers pass
    m = column_fill(TABLE2_TOTALS, TABLE2_N)
    for criterion in ("abs_S", "product"):
        for bad in (2.5, 1.0, "3"):
            with pytest.raises(RangeError, match="max_iter must be an integer"):
                split(m, criterion, max_iter=bad)
        assert split(m, criterion, max_iter=np.int64(0)).iterations == 0


def test_swap_refine_rejects_unknown_policy():
    tau = ItemScores([1, 2, 3, 4])
    with pytest.raises(RangeError):
        swap_refine(seed_allocation(tau), tau, policy="both")


def test_balanced_optimum_matches_meet_in_the_middle():
    rng = np.random.default_rng(14)
    draws = [rng.integers(0, 97, size=n) for n in (4, 6, 8, 10, 12, 16, 20) for _ in range(12)]
    # acceptance criterion 5's instances, drawn as it draws them
    rng = np.random.default_rng(20260817)
    draws += [rng.integers(0, 51, size=10) for _ in range(100)]
    for values in draws:
        vals = [int(v) for v in values]
        assert balanced_optimum(vals) == optimal_abs_s_mitm(vals)


def test_product_refine_reaches_zero_sum_on_published_totals():
    tau = table2_tau()
    res = product_refine(seed_allocation(tau), tau)
    assert res.criterion == "product"
    assert res.abs_S == 0
    assert res.sum_g == res.sum_h == 5011


def test_product_refine_weakly_improves_product():
    rng = np.random.default_rng(15)
    for _ in range(20):
        tau = ItemScores(rng.integers(0, 51, size=14))
        a = seed_allocation(tau)
        before = swap_refine(a, tau, max_iter=0)
        res = product_refine(a, tau)
        assert abs(res.S * res.S_sq) <= abs(before.S * before.S_sq)


def test_split_end_to_end_diagnostics_consistent(table2_matrix):
    res = split(table2_matrix)
    tau = item_totals(table2_matrix).as_ints()
    g_sum = sum(tau[j] for j in res.assignment.g_items)
    h_sum = sum(tau[j] for j in res.assignment.h_items)
    assert (res.sum_g, res.sum_h) == (g_sum, h_sum)
    assert res.S == g_sum - h_sum
    assert res.S_sq == sum(tau[j] ** 2 for j in res.assignment.g_items) - sum(
        tau[j] ** 2 for j in res.assignment.h_items
    )
    assert set(res.assignment.g_items) | set(res.assignment.h_items) == set(range(50))


def test_split_drops_one_item_for_odd_n():
    rng = np.random.default_rng(16)
    m = ScoreMatrix((rng.random((40, 9)) < 0.5).astype(int))
    res = split(m)
    tau = item_totals(m).as_ints()
    assert res.assignment.dropped_item is not None
    kept = set(res.assignment.g_items) | set(res.assignment.h_items)
    assert len(kept) == 8 and res.assignment.dropped_item not in kept
    assert tau[res.assignment.dropped_item] == min(tau)


def test_split_criterion_dispatch(table2_matrix):
    assert split(table2_matrix, criterion="product").criterion == "product"
    with pytest.raises(RangeError):
        split(table2_matrix, criterion="sum")


def test_split_result_to_dict_rows(table2_matrix):
    d = split(table2_matrix).to_dict()
    assert d["sum_g"] == d["sum_h"] == 5011
    rows = d["rows"].tolist()
    assert len(rows) == 25
    assert set(rows[0]) == {"g_item", "g_score", "h_item", "h_score", "difference"}
    assert sum(r["difference"] for r in rows) == d["S"]


def reference_rows(res):
    """The row dicts of ``res``, built one by one as ``to_dict`` once did."""
    a = res.assignment
    return [
        {"g_item": gi, "g_score": gs, "h_item": hi, "h_score": hs, "difference": gs - hs}
        for gi, gs, hi, hs in zip(a.g_items, res.g_scores, a.h_items, res.h_scores)
    ]


@settings(max_examples=150, deadline=None)
@given(
    entries=arrays(
        np.int8, st.tuples(st.integers(2, 8), st.integers(2, 13)), elements=st.integers(0, 1)
    ),
    criterion=st.sampled_from(["abs_S", "product"]),
    policy=st.sampled_from(["single", "all"]),
)
def test_split_sums_and_rows_follow_from_the_assignment(entries, criterion, policy):
    m = ScoreMatrix(entries)
    res = split(m, criterion, policy=policy)
    tau = item_totals(m).as_ints()
    g = [tau[j] for j in res.assignment.g_items]
    h = [tau[j] for j in res.assignment.h_items]
    assert (res.g_scores, res.h_scores) == (tuple(g), tuple(h))
    assert (res.sum_g, res.sum_h) == (sum(g), sum(h))
    assert res.S == sum(g) - sum(h)
    assert res.abs_S == abs(sum(g) - sum(h))
    assert res.S_sq == sum(v * v for v in g) - sum(v * v for v in h)
    d = res.to_dict()
    assert d["rows"].tolist() == reference_rows(res)
    assert [d[k] for k in ("sum_g", "sum_h", "S", "abs_S", "S_sq")] == [
        res.sum_g, res.sum_h, res.S, res.abs_S, res.S_sq
    ]


def test_mean_difference_identity_exact_on_random_splits():
    # |mean_g - mean_h| equals abs_S / N in exact rational arithmetic
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(1000):
        n_ex = int(rng.integers(2, 12))
        n_items = int(rng.integers(2, 11)) * 2
        m = (rng.random((n_ex, n_items)) < rng.random()).astype(int)
        perm = rng.permutation(n_items)
        g, h = perm[: n_items // 2], perm[n_items // 2 :]
        mean_g = Fraction(int(m[:, g].sum()), n_ex)
        mean_h = Fraction(int(m[:, h].sum()), n_ex)
        abs_s = abs(int(m[:, g].sum(axis=0).sum()) - int(m[:, h].sum(axis=0).sum()))
        assert abs(mean_g - mean_h) == Fraction(abs_s, n_ex)
        checked += 1
    assert checked == 1000


def test_refinement_ignores_examinee_count(table2_matrix):
    # identical item totals must give the identical split, whatever N is
    tau = item_totals(table2_matrix).as_ints()
    padded = column_fill(tau, 2 * TABLE2_N)
    a, b = split(table2_matrix), split(padded)
    assert a.assignment == b.assignment
    assert a.history == b.history
