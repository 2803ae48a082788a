"""Reliability of a battery of tests under summative and weighted scoring.

A battery score is a (possibly weighted) sum of K component test
scores.  Its reliability mixes the component reliabilities with the
between-test covariances: cross terms enter numerator and denominator
identically because the covariance of two distinct observed scores
equals the covariance of their true scores.

Weights can be chosen to minimise the battery score variance subject to
summing to 1 (Lagrange solution W = D^-1 e / (e' D^-1 e)), with an
active-set fallback when that solution goes negative, or taken from the
principal eigenvector of the covariance or correlation matrix.  All
covariances are population covariances (divide by N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import ExamineeScores
from .errors import (
    Degenerate,
    DomainViolation,
    RangeError,
    ShapeError,
    SingularMatrix,
    TooSmall,
    ZeroVariance,
)

__all__ = [
    "ComponentTest",
    "BatteryInput",
    "CovMatrix",
    "WeightVector",
    "BatteryReport",
    "covariance_matrix",
    "summative_reliability",
    "weighted_reliability",
    "optimal_weights",
    "nonnegative_weights",
    "eigen_weights",
    "equal_weights",
    "jacobi_eigh",
]

_METHODS = ("lagrange", "nonneg_qp", "eigen_cov", "eigen_corr", "equal")


def _check_symmetric(a: np.ndarray, what: str) -> None:
    """Raise unless ``a`` is square, nonempty and symmetric: no entry of
    a - a' may exceed 1e-12 times max(1, largest |entry| of a)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeError(f"{what} must be square and nonempty")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise DomainViolation(f"{what} must be symmetric")


@dataclass(frozen=True)
class ComponentTest:
    """One test of the battery: its score vector plus summary constants."""

    scores: ExamineeScores
    S_X_sq: float
    r_tt: float
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.S_X_sq >= 0.0:
            raise DomainViolation(f"test variance must be nonnegative, got {self.S_X_sq}")


@dataclass(frozen=True)
class BatteryInput:
    tests: tuple[ComponentTest, ...]

    def __post_init__(self) -> None:
        tests = tuple(self.tests)
        object.__setattr__(self, "tests", tests)
        if not tests:
            raise TooSmall("a battery needs at least one test")
        sizes = {t.scores.n_examinees for t in tests}
        if len(sizes) != 1:
            raise ShapeError(f"all tests must score the same examinees, got sizes {sorted(sizes)}")

    @property
    def k(self) -> int:
        return len(self.tests)

    @property
    def n_examinees(self) -> int:
        return self.tests[0].scores.n_examinees

    def reliability_warnings(self) -> list[str]:
        out = []
        for i, t in enumerate(self.tests):
            if not 0.0 <= t.r_tt <= 1.0:
                out.append(f"test {i} has reliability {t.r_tt} outside [0, 1]")
        return out


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric K x K variance-covariance matrix of component scores."""

    d: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.d, dtype=np.float64)
        _check_symmetric(a, "covariance matrix")
        if (np.diag(a) < 0).any():
            raise DomainViolation("variances on the diagonal must be nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "d", a)

    @property
    def k(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class WeightVector:
    """Battery weights summing to 1, with the multiplier that produced them.

    ``lam`` is the Lagrange multiplier for the minimum-variance methods
    and the top eigenvalue for the eigen methods; NaN for equal weights.
    (The JSON key is "lambda"; the field cannot be, as that word is
    reserved in Python.)
    """

    w: tuple[float, ...]
    lam: float
    method: str
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.w)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if self.method not in _METHODS:
            raise RangeError(f"unknown weight method {self.method!r}")
        if not w:
            raise ShapeError("weight vector must be nonempty")
        if not math.isclose(sum(w), 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise DomainViolation(f"weights must sum to 1, got {sum(w)}")
        if self.method == "nonneg_qp" and any(v < 0.0 for v in w):
            raise DomainViolation("nonneg_qp weights must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "w": list(self.w),
            "lambda": self.lam,
            "method": self.method,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class BatteryReport:
    weights: WeightVector
    r_battery: float
    variance_Y: float
    r_summative: float
    d: CovMatrix
    per_test: tuple[dict, ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.to_dict(),
            "r_battery": self.r_battery,
            "variance_Y": self.variance_Y,
            "r_summative": self.r_summative,
            "covariance_matrix": [list(row) for row in self.d.d],
            "per_test": [dict(p) for p in self.per_test],
            "warnings": list(self.warnings),
        }


def covariance_matrix(b: BatteryInput) -> CovMatrix:
    """Population covariances between all component score vectors.

    Each is (N sum t_i t_j - sum t_i sum t_j) / N^2 in exact integers,
    rounded once.  The diagonal must reproduce each test's declared
    variance; a mismatch means the caller paired the wrong constants
    with the wrong scores, which is worth failing loudly over.
    """
    n = b.n_examinees
    if n < 2:
        raise TooSmall(f"covariances need at least 2 examinees, got {n}")
    totals = [t.scores.totals for t in b.tests]
    sums = [int(v.sum()) for v in totals]
    k = b.k
    d = np.empty((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i, k):
            c = (n * int(np.dot(totals[i], totals[j])) - sums[i] * sums[j]) / (n * n)
            d[i, j] = c
            d[j, i] = c
    for i, t in enumerate(b.tests):
        if not math.isclose(d[i, i], t.S_X_sq, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainViolation(
                f"declared variance {t.S_X_sq} of test {i} disagrees with "
                f"its scores ({d[i, i]})"
            )
    return CovMatrix(d)


def _reliability(b: BatteryInput, d: CovMatrix, w: np.ndarray) -> float:
    """Battery reliability under weights w, summed in index order.

    Cross terms 2*cov(i,j)*w_i*w_j over pairs i<j enter numerator and
    denominator alike; the denominator is the battery score variance
    W' D W, so a nonpositive value aborts.
    """
    if d.k != b.k:
        raise ShapeError(f"covariance matrix is {d.k}x{d.k} for {b.k} tests")
    a = d.d
    cross = 0.0
    for i in range(b.k):
        for j in range(i + 1, b.k):
            cross += (2.0 * a[i, j]) * (w[i] * w[j])
    num = sum(t.r_tt * w[i] * w[i] * a[i, i] for i, t in enumerate(b.tests)) + cross
    den = sum(w[i] * w[i] * a[i, i] for i in range(b.k)) + cross
    if not den > 0.0:
        raise Degenerate(f"battery score variance must be positive, got {den}")
    return num / den


def summative_reliability(b: BatteryInput, d: CovMatrix) -> float:
    """Battery reliability when every test enters with weight 1."""
    return _reliability(b, d, np.ones(b.k))


def weighted_reliability(b: BatteryInput, d: CovMatrix, w: WeightVector) -> BatteryReport:
    """Battery reliability under weights W, with the full report.

    The summative figure rides along for comparison and degrades to NaN
    rather than failing the report.
    """
    if len(w.w) != b.k:
        raise ShapeError(f"{len(w.w)} weights for {b.k} tests")
    wv = np.asarray(w.w, dtype=np.float64)
    r = _reliability(b, d, wv)

    warnings = list(w.warnings) + b.reliability_warnings()
    try:
        r_summ = summative_reliability(b, d)
    except Degenerate as exc:
        r_summ = float("nan")
        warnings.append(f"summative reliability unavailable: {exc}")
    if not 0.0 <= r <= 1.0:
        warnings.append(f"battery reliability {r} falls outside [0, 1]")

    per_test = tuple(
        {
            "name": t.name if t.name is not None else f"test{i}",
            "r_tt": t.r_tt,
            "S_X_sq": t.S_X_sq,
            "N": t.scores.n_examinees,
        }
        for i, t in enumerate(b.tests)
    )
    return BatteryReport(
        weights=w,
        r_battery=r,
        variance_Y=float(wv @ d.d @ wv),
        r_summative=r_summ,
        d=d,
        per_test=per_test,
        warnings=tuple(warnings),
    )


def _lagrange(a: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Solve D z = e for D = ``a`` (no inverse formed); return z / e'z and
    e'z.  ``what`` names ``a`` in the SingularMatrix raised when z is not
    unique and in the Degenerate raised when e'z is 0 or not finite."""
    try:
        z = np.linalg.solve(a, np.ones(len(a)))
    except np.linalg.LinAlgError:
        raise SingularMatrix(f"{what} is singular; weights undefined") from None
    total = float(z.sum())
    if total == 0.0 or not math.isfinite(total):
        raise Degenerate(f"e' D^-1 e vanishes for the {what}; weights undefined")
    return z / total, total


def optimal_weights(d: CovMatrix) -> WeightVector:
    """Minimum-variance weights W = D^-1 e / (e' D^-1 e).

    An ill-conditioned D (condition estimate above 1e12) still returns
    weights but carries a warning.
    """
    w, total = _lagrange(d.d, "covariance matrix")
    warnings = []
    cond = float(np.linalg.cond(d.d))
    if not math.isfinite(cond) or cond > 1e12:
        warnings.append(
            f"covariance matrix is ill-conditioned (cond ~ {cond:.3g}); "
            "weights may be numerically unstable"
        )
    return WeightVector(
        w=w,
        lam=2.0 / total,
        method="lagrange",
        warnings=warnings,
    )


def nonnegative_weights(d: CovMatrix) -> WeightVector:
    """Minimum-variance weights constrained to be nonnegative.

    Active-set elimination: solve the unconstrained problem on the
    current support; if any weight is negative, pin the most negative
    one (lowest index on ties) to zero and re-solve.  At most K rounds.
    """
    k = d.k
    support = list(range(k))
    while support:
        what = f"covariance sub-matrix of support {support}"
        w_s, total = _lagrange(d.d[np.ix_(support, support)], what)
        if (w_s >= 0.0).all():
            w = np.zeros(k)
            w[support] = w_s
            warnings = []
            if len(support) < k:
                warnings.append(
                    f"{k - len(support)} weight(s) pinned to zero to stay nonnegative"
                )
            return WeightVector(
                w=w,
                lam=2.0 / total,
                method="nonneg_qp",
                warnings=warnings,
            )
        support.pop(int(np.argmin(w_s)))  # argmin picks the lowest index on ties
    raise Degenerate("active-set elimination emptied the support")


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of a symmetric matrix, largest eigenvalue first.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue
    (stable on ties), eigenvectors in columns.  LAPACK does the work
    through ``numpy.linalg.eigh``; the name is kept from an earlier
    hand-written Jacobi solver because it is public API.
    """
    a = np.array(a, dtype=np.float64)
    _check_symmetric(a, "matrix to decompose")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def eigen_weights(d: CovMatrix, variant: str) -> WeightVector:
    """Weights from the principal eigenvector.

    ``cov_proportional`` scales the principal eigenvector of D itself to
    sum 1; ``corr_scaled`` takes the principal eigenvector U of the
    correlation matrix and scales S^-1 U, undoing the per-test standard
    deviations.  Either can yield negative weights; only the sum-to-1
    constraint is enforced here.
    """
    if variant not in ("cov_proportional", "corr_scaled"):
        raise RangeError(f"unknown eigen variant {variant!r}")
    a = d.d
    if variant == "corr_scaled":
        s = np.sqrt(np.diag(a))
        if (s == 0.0).any():
            raise ZeroVariance("zero-variance test makes the correlation matrix undefined")
        target = a / np.outer(s, s)
    else:
        target = a
    vals, vecs = jacobi_eigh(target)
    warnings = []
    if d.k > 1 and abs(vals[0] - vals[1]) <= 1e-9 * max(1.0, abs(vals[0])):
        warnings.append(
            "top eigenvalue is (near-)repeated; the reported eigenvector is a "
            "deterministic but arbitrary choice"
        )
    u = vecs[:, 0].copy()
    if variant == "corr_scaled":
        u = u / s
    total = float(u.sum())
    if total == 0.0:
        raise Degenerate("principal eigenvector sums to zero; cannot scale to weights")
    w = u / total
    method = "eigen_cov" if variant == "cov_proportional" else "eigen_corr"
    return WeightVector(
        w=w,
        lam=float(vals[0]),
        method=method,
        warnings=warnings,
    )


def equal_weights(k: int) -> WeightVector:
    """The 1/K vector; weighted_reliability with it equals the summative form."""
    if k < 1:
        raise TooSmall(f"need at least one test, got {k}")
    return WeightVector(w=(1.0 / k,) * k, lam=float("nan"), method="equal")
