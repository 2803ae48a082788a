"""Response simulation: the RNG protocol, the four models, and the
squared-sum gap bound evaluated with the generative probabilities."""

import dataclasses

import numpy as np
import pytest

from splitrel import (
    GENERATOR_ID,
    ExamineeScores,
    RangeError,
    SimModel,
    TooSmall,
    classical_reliability,
    descriptive_stats,
    generate,
    split,
    sub_test_scores,
)
from splitrel import simulate

from conftest import reference_probabilities


def reference_matrix(kind: str, N: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind in ("D1", "D3"):
        draws = N
    else:
        draws = n
    if kind in ("D1", "D2"):
        p = rng.random(draws)
    else:
        p = np.clip(rng.normal(0.5, 0.2, draws), 0.0, 1.0)
    shaped = p[:, None] if kind in ("D1", "D3") else p[None, :]
    return (rng.random((N, n)) < shaped).astype(np.int8)


@pytest.mark.parametrize("kind", ["D1", "D2", "D3", "D4"])
def test_generate_reproduces_documented_protocol(kind):
    m = generate(SimModel(kind, 40, 12, seed=902))
    assert np.array_equal(m.entries, reference_matrix(kind, 40, 12, 902))


@pytest.mark.parametrize("kind", ["D1", "D2", "D3", "D4"])
def test_row_chunked_draws_equal_one_block(kind, monkeypatch):
    # 40 x 12 in blocks of 7 rows (84 cells) and a ragged last block
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 84)
    m = generate(SimModel(kind, 40, 12, seed=903))
    assert np.array_equal(m.entries, reference_matrix(kind, 40, 12, 903))


def test_generate_is_deterministic_and_seed_sensitive():
    a = generate(SimModel("D3", 30, 10, seed=1))
    b = generate(SimModel("D3", 30, 10, seed=1))
    c = generate(SimModel("D3", 30, 10, seed=2))
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_generator_id_is_pinned():
    assert GENERATOR_ID == "numpy-pcg64"
    meta = SimModel("D1", 5, 5, seed=0).metadata()
    assert meta["generator"] == GENERATOR_ID
    assert list(meta) == [f.name for f in dataclasses.fields(SimModel)] + ["generator"]


def test_model_validation():
    with pytest.raises(RangeError):
        SimModel("D9", 10, 10, seed=0)
    with pytest.raises(RangeError):
        SimModel("D1", 10, 10, seed=-1)
    with pytest.raises(TooSmall):
        SimModel("D1", 1, 10, seed=0)
    # N * n must fit numpy's index type; the check allocates nothing
    limit = np.iinfo(np.intp).max
    with pytest.raises(RangeError, match="too many cells"):
        SimModel("D1", limit // 2 + 1, 2, seed=0)
    n = 2**20
    with pytest.raises(RangeError, match="too many cells"):
        SimModel("D1", limit // n + 1, n, seed=0)
    assert SimModel("D1", limit // n, n, seed=0).N == limit // n
    # so must the 8-byte-per-examinee (or per-item) float64 parameter draw
    with pytest.raises(RangeError, match="parameter draw"):
        SimModel("D1", limit // 8 + 1, 2, seed=0)
    assert SimModel("D1", limit // 8, 2, seed=0).N == limit // 8
    # counts and seed must be integers: a float or a string is refused, never truncated
    for args in (
        (2.9, 3, 1), (3, 3.7, 1), (3, 3, 1.5), (3.0, 3, 1), ("5", 3, 0), (5, 3, "0"), (5, 3, None),
    ):
        with pytest.raises(RangeError, match="must be an integer"):
            SimModel("D1", *args)
    model = SimModel("D1", np.int64(5), np.int32(3), seed=np.uint64(2**64 - 1))
    assert model.metadata() == {
        "kind": "D1", "N": 5, "n": 3, "seed": 2**64 - 1, "generator": GENERATOR_ID,
    }
    assert all(type(v) is int for v in (model.N, model.n, model.seed))


def test_generated_means_track_probabilities():
    # law of large numbers at modest N: cell mean within a few sd of
    # the mean generative probability
    for kind in ("D1", "D2", "D3", "D4"):
        p = reference_probabilities(kind, 4000, 30, 77)
        m = generate(SimModel(kind, 4000, 30, seed=77))
        assert float(m.entries.mean()) == pytest.approx(float(p.mean()), abs=0.01)


def test_per_examinee_vs_per_item_variance_signature():
    # per-examinee heterogeneity inflates total-score variance, per-item
    # heterogeneity does not: the signature separating D1/D3 from D2/D4
    def total_var(kind):
        m = generate(SimModel(kind, 3000, 40, seed=55))
        totals = m.entries.sum(axis=1)
        return float(np.var(totals))

    assert total_var("D1") > 4 * total_var("D2")
    assert total_var("D3") > 4 * total_var("D4")


def run_reliability(kind, N, n, seed):
    m = generate(SimModel(kind, N, n, seed))
    res = split(m)
    sc = sub_test_scores(m, res.assignment)
    st = descriptive_stats(ExamineeScores(sc.combined()), n)
    return res, sc, classical_reliability(sc, st)


def test_reliability_ordering_across_models():
    # heterogeneous examinees make reliable tests; homogeneous ones do not
    r_d1 = run_reliability("D1", 999, 50, 404)[2].r_tt
    r_d2 = run_reliability("D2", 999, 50, 404)[2].r_tt
    assert r_d1 > 0.9
    assert abs(r_d2) < 0.15


def squared_sum_pieces(kind, N, n, seed):
    p = reference_probabilities(kind, N, n, seed)
    m = generate(SimModel(kind, N, n, seed))
    res = split(m)
    sc = sub_test_scores(m, res.assignment)
    xg = sc.g.astype(np.int64)
    xh = sc.h.astype(np.int64)
    gap = abs(int(np.sum(xg**2)) - int(np.sum(xh**2)))
    eps = res.abs_S
    big_t = int(np.sum(xg))
    p_g = float(np.sum(p[:, list(res.assignment.g_items)]))
    p_h = float(np.sum(p[:, list(res.assignment.h_items)]))
    return gap, eps, big_t, p_g, abs(p_g - p_h)


def test_squared_sum_gap_bound_per_item_models():
    # full bound eps^2 + 2*T*eps + (n/2)^2 * P_g * |P_g - P_h|, which has
    # content for per-item models because the halves carry distinct
    # probability masses
    for kind in ("D2", "D4"):
        for seed in range(6000, 6010):
            gap, eps, big_t, p_g, eps_p = squared_sum_pieces(kind, 999, 50, seed)
            bound = eps**2 + 2 * big_t * eps + (50 // 2) ** 2 * p_g * eps_p
            assert gap <= bound


def test_squared_sum_gap_bound_per_examinee_models_nonzero_eps():
    # per-examinee probabilities are constant across items, so the halves
    # carry equal probability mass and only the eps terms remain
    checked = 0
    for kind in ("D1", "D3"):
        for seed in range(12000, 12100):
            gap, eps, big_t, p_g, eps_p = squared_sum_pieces(kind, 201, 30, seed)
            assert eps_p == pytest.approx(0.0, abs=1e-9)
            if eps == 0:
                continue
            checked += 1
            assert gap <= eps**2 + 2 * big_t * eps
    assert checked >= 50


def test_squared_sum_gap_survives_perfect_balance():
    # pinned witness: equal sums on both counts, nonzero squared-sum gap,
    # so the bound's vacuity at eps = 0 reflects the estimate, not a bug
    gap, eps, _, _, eps_p = squared_sum_pieces("D3", 999, 50, 5001)
    assert eps == 0
    assert eps_p == pytest.approx(0.0, abs=1e-9)
    assert gap > 0
