"""Battery weighting: covariances, optimal and constrained weights, eigen paths."""

import itertools
import math

import numpy as np
import pytest

from splitrel import (
    BatteryInput,
    ComponentTest,
    CovMatrix,
    Degenerate,
    DomainViolation,
    ExamineeScores,
    ShapeError,
    SingularMatrix,
    TooSmall,
    WeightVector,
    ZeroVariance,
    covariance_matrix,
    equal_weights,
    eigen_weights,
    jacobi_eigh,
    nonnegative_weights,
    optimal_weights,
    summative_reliability,
    weighted_reliability,
)

# the two-test worked example: covariances of the component scores and
# their split-half reliabilities
D2X2 = np.array([[6.2405, 2.4571], [2.4571, 4.0571]])
R2X2 = (0.6571, 0.3488)


def battery_from_cov(d, rels):
    """Synthesize score vectors irrelevant to formulas that only read d."""
    k = d.shape[0]
    scores = [ExamineeScores([0, 1]) for _ in range(k)]
    # declared variances must match d's diagonal for covariance_matrix,
    # but the formula entry points take d directly, so scores are inert
    return BatteryInput(
        tests=tuple(
            ComponentTest(scores=s, S_X_sq=float(d[i, i]), r_tt=rels[i])
            for i, s in enumerate(scores)
        )
    )


def test_covariance_matrix_population_convention():
    t1 = ComponentTest(scores=ExamineeScores([1, 3, 5, 7]), S_X_sq=5.0, r_tt=0.7)
    t2 = ComponentTest(scores=ExamineeScores([2, 2, 4, 8]), S_X_sq=6.0, r_tt=0.5)
    d = covariance_matrix(BatteryInput(tests=(t1, t2)))
    a = np.array([1, 3, 5, 7], dtype=float)
    b = np.array([2, 2, 4, 8], dtype=float)
    assert d.d[0, 0] == pytest.approx(float(np.var(a)))
    assert d.d[1, 1] == pytest.approx(float(np.var(b)))
    assert d.d[0, 1] == pytest.approx(float(np.mean((a - a.mean()) * (b - b.mean()))))
    assert d.d[0, 1] == d.d[1, 0]


def test_covariance_matrix_rejects_wrong_declared_variance():
    t1 = ComponentTest(scores=ExamineeScores([1, 3, 5, 7]), S_X_sq=4.9, r_tt=0.7)
    t2 = ComponentTest(scores=ExamineeScores([2, 2, 4, 8]), S_X_sq=6.0, r_tt=0.5)
    with pytest.raises(DomainViolation):
        covariance_matrix(BatteryInput(tests=(t1, t2)))


def test_covariance_matrix_needs_two_examinees():
    t = ComponentTest(scores=ExamineeScores([3]), S_X_sq=0.0, r_tt=0.5)
    with pytest.raises(TooSmall):
        covariance_matrix(BatteryInput(tests=(t,)))


def test_battery_input_validation():
    with pytest.raises(TooSmall):
        BatteryInput(tests=())
    t1 = ComponentTest(scores=ExamineeScores([1, 2]), S_X_sq=1.0, r_tt=0.5)
    t2 = ComponentTest(scores=ExamineeScores([1, 2, 3]), S_X_sq=1.0, r_tt=0.5)
    with pytest.raises(ShapeError):
        BatteryInput(tests=(t1, t2))


def test_cov_matrix_validation():
    with pytest.raises(DomainViolation):
        CovMatrix([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(DomainViolation):
        CovMatrix([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        CovMatrix([[1.0, 0.0]])


def test_weight_vector_validation():
    with pytest.raises(DomainViolation):
        WeightVector(w=(0.6, 0.6), lam=1.0, method="lagrange")
    with pytest.raises(DomainViolation):
        WeightVector(w=(1.2, -0.2), lam=1.0, method="nonneg_qp")
    wv = WeightVector(w=(1.2, -0.2), lam=1.0, method="lagrange")
    assert wv.to_dict()["lambda"] == 1.0


def test_optimal_weights_on_worked_example():
    d = CovMatrix(D2X2)
    wv = optimal_weights(d)
    # direct solve of D z = 1 gives z = (0.082982, 0.196224)
    z = np.linalg.solve(D2X2, np.ones(2))
    assert z[0] == pytest.approx(0.082982, abs=5e-6)
    assert z[1] == pytest.approx(0.196224, abs=5e-6)
    assert wv.w[0] == pytest.approx(0.29721, abs=5e-5)
    assert wv.w[1] == pytest.approx(0.70279, abs=5e-5)
    assert wv.lam == pytest.approx(2.0 / z.sum(), rel=1e-12)
    assert wv.method == "lagrange"


def test_optimal_weights_minimize_variance_over_simplex():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        d = CovMatrix(a @ a.T + 0.2 * np.eye(4))
        wv = optimal_weights(d)
        w_opt = np.asarray(wv.w)
        v_opt = float(w_opt @ d.d @ w_opt)
        for _ in range(200):
            v = rng.random(4)
            v /= v.sum()
            assert v_opt <= float(v @ d.d @ v) + 1e-9


def test_optimal_weights_equi_covariance_property():
    # cov(Y, X_i) = (D w)_i is the same for every component at the optimum
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        d = CovMatrix(a @ a.T + 0.2 * np.eye(3))
        w = np.asarray(optimal_weights(d).w)
        dw = d.d @ w
        assert float(dw.max() - dw.min()) <= 1e-9 * max(1.0, abs(float(dw[0])))


def test_optimal_weights_singular_matrix():
    d = CovMatrix([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises((SingularMatrix, Degenerate)):
        optimal_weights(d)


def test_nonnegative_weights_singular_matrix():
    d = CovMatrix([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix, match=r"support \[0, 1\] is singular"):
        nonnegative_weights(d)


def test_optimal_weights_condition_warning():
    eps = 1e-14
    d = CovMatrix([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    wv = optimal_weights(d)
    assert any("condition" in w for w in wv.warnings)


def exhaustive_nonneg_minimum(d: CovMatrix):
    """Best nonnegative simplex weights by trying every support set."""
    k = d.k
    best = None
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            sub = d.d[np.ix_(support, support)]
            try:
                z = np.linalg.solve(sub, np.ones(r))
            except np.linalg.LinAlgError:
                continue
            if z.sum() <= 0 or np.any(z < -1e-12):
                continue
            w = np.zeros(k)
            w[list(support)] = z / z.sum()
            var = float(w @ d.d @ w)
            if best is None or var < best - 1e-12:
                best = var
    return best


def test_nonnegative_weights_match_exhaustive_support_search():
    rng = np.random.default_rng(43)
    negative_seen = 0
    for _ in range(40):
        a = rng.normal(size=(3, 3))
        d = CovMatrix(a @ a.T + 0.1 * np.eye(3))
        unconstrained = np.asarray(optimal_weights(d).w)
        negative_seen += bool((unconstrained < 0).any())
        wv = nonnegative_weights(d)
        w = np.asarray(wv.w)
        assert (w >= 0).all()
        var = float(w @ d.d @ w)
        assert var == pytest.approx(exhaustive_nonneg_minimum(d), abs=1e-9)
    # the sample must actually exercise the constrained branch
    assert negative_seen >= 5


def test_nonnegative_weights_note_pinned_components():
    # strong negative covariance forces a zero weight
    d = CovMatrix([[1.0, 0.9, -0.3], [0.9, 1.0, 0.1], [-0.3, 0.1, 1.0]])
    wv = nonnegative_weights(d)
    if any(v == 0.0 for v in wv.w):
        assert any("zero" in w or "pinned" in w for w in wv.warnings)


def test_jacobi_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(44)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        a = rng.normal(size=(k, k))
        a = a @ a.T
        vals, vecs = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        scale = max(1.0, float(np.abs(a).max()))
        assert np.max(np.abs(vals - ref)) <= 1e-7 * scale
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-6 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-9


def test_jacobi_handles_degenerate_matrices():
    for a in (np.zeros((3, 3)), np.eye(4), np.diag([3.0, 3.0, 1.0])):
        vals, _ = jacobi_eigh(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], atol=1e-12)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(DomainViolation):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigen_weights_cov_proportional_matches_eigh():
    rng = np.random.default_rng(45)
    a = rng.normal(size=(3, 3))
    d = CovMatrix(a @ a.T + 0.3 * np.eye(3))
    wv = eigen_weights(d, "cov_proportional")
    vals, vecs = np.linalg.eigh(d.d)
    top = vecs[:, -1]
    top = top / top.sum()
    assert np.asarray(wv.w) == pytest.approx(top, abs=1e-8)
    assert wv.lam == pytest.approx(float(vals[-1]), rel=1e-9)
    assert wv.method == "eigen_cov"


def test_eigen_weights_corr_scaled_undoes_standard_deviations():
    rng = np.random.default_rng(46)
    a = rng.normal(size=(3, 3))
    d = CovMatrix(a @ a.T + 0.3 * np.eye(3))
    wv = eigen_weights(d, "corr_scaled")
    sd = np.sqrt(np.diag(d.d))
    corr = d.d / np.outer(sd, sd)
    _, vecs = np.linalg.eigh(corr)
    u = vecs[:, -1]
    w = u / sd
    w = w / w.sum()
    assert np.asarray(wv.w) == pytest.approx(w, abs=1e-8)
    assert wv.method == "eigen_corr"


@pytest.mark.parametrize("variant, a", [
    ("cov_proportional", np.diag([3.0, 3.0, 1.0])),
    # two blocks of correlation 0.5 with standard deviations 1, 2, 3, 4:
    # the correlation matrix has top eigenvalue 1.5 twice
    ("corr_scaled", np.array([[1.0, 1.0, 0.0, 0.0],
                              [1.0, 4.0, 0.0, 0.0],
                              [0.0, 0.0, 9.0, 6.0],
                              [0.0, 0.0, 6.0, 16.0]])),
], ids=["cov", "corr"])
def test_eigen_weights_on_a_repeated_top_eigenvalue(variant, a):
    d = CovMatrix(a)
    wv = eigen_weights(d, variant)
    assert any("repeated" in w for w in wv.warnings)
    assert math.isclose(sum(wv.w), 1.0, rel_tol=1e-12)
    assert eigen_weights(d, variant).w == wv.w


def test_eigen_weights_zero_variance_component():
    d = CovMatrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVariance):
        eigen_weights(d, "corr_scaled")


def test_equal_weights_reproduce_summative_reliability():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    wv = equal_weights(2)
    assert wv.w == (0.5, 0.5)
    assert math.isnan(wv.lam)
    rep = weighted_reliability(b, d, wv)
    assert rep.r_battery == pytest.approx(summative_reliability(b, d), rel=1e-12)
    assert rep.r_summative == pytest.approx(rep.r_battery, rel=1e-12)


def test_summative_reliability_sums_in_index_order():
    # numerator sum r_i*a_ii + cross, denominator sum a_ii + cross, every
    # sum taken in index order; a pairwise sum such as np.trace's differs
    # in the last bit from k = 8 on, so the batteries have k >= 9
    rng = np.random.default_rng(47)
    for _ in range(40):
        k = int(rng.integers(9, 13))
        x = rng.normal(size=(k, 2 * k))
        a = x @ x.T / (2 * k)
        rels = tuple(float(r) for r in rng.random(k))
        cross = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                cross += 2.0 * float(a[i, j])
        num = 0.0
        den = 0.0
        for i in range(k):
            num += rels[i] * float(a[i, i])
            den += float(a[i, i])
        got = summative_reliability(battery_from_cov(a, rels), CovMatrix(a))
        assert got == (num + cross) / (den + cross)


def test_summative_reliability_worked_example():
    # (0.6571*6.2405 + 0.3488*4.0571 + 2*2.4571) / (6.2405 + 4.0571 + 2*2.4571)
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    num = 0.6571 * 6.2405 + 0.3488 * 4.0571 + 2 * 2.4571
    den = 6.2405 + 4.0571 + 2 * 2.4571
    assert summative_reliability(b, d) == pytest.approx(num / den, rel=1e-12)


def test_weighted_reliability_at_stated_example_weights():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    stated = WeightVector(w=(0.7028, 0.2972), lam=float("nan"), method="lagrange")
    rep = weighted_reliability(b, d, stated)
    assert rep.r_battery == pytest.approx(0.7112, abs=1e-3)
    assert rep.variance_Y == pytest.approx(
        float(np.array(stated.w) @ D2X2 @ np.array(stated.w)), rel=1e-12
    )


def test_weighted_reliability_honest_optimal_chain():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    rep = weighted_reliability(b, d, optimal_weights(d))
    assert rep.r_battery == pytest.approx(0.582876, abs=5e-5)
    # minimum-variance weights do not maximize reliability here
    assert rep.r_battery < rep.r_summative


def test_weighted_reliability_flags_out_of_range_inputs():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, (1.2, 0.3488))
    rep = weighted_reliability(b, d, equal_weights(2))
    assert any("outside" in w for w in rep.warnings)


def test_weighted_reliability_shape_checks():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    with pytest.raises(ShapeError):
        weighted_reliability(b, d, equal_weights(3))


def test_report_serialization():
    d = CovMatrix(D2X2)
    b = battery_from_cov(D2X2, R2X2)
    rep = weighted_reliability(b, d, optimal_weights(d))
    doc = rep.to_dict()
    assert doc["weights"]["method"] == "lagrange"
    assert doc["covariance_matrix"] == [list(row) for row in D2X2]
    assert len(doc["per_test"]) == 2
