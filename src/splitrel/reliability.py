"""Reliability of a test from its two half-test score vectors.

The error variance of the whole test is estimated from the disagreement
between the halves: with per-examinee half scores X_g and X_h, the
error variance is ||X_g - X_h||^2 / N, and reliability is one minus its
share of the observed total-score variance.  A report bundles that with
the split-half Pearson correlation, an F-test of variance equality
between the halves, and derived true-score quantities.

Reliability can come out negative when the halves disagree more than
the total scores vary; the raw value is reported with a warning rather
than clamped, since hiding it would hide a bad split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data_model import ScoreMatrix, TestStats, _totals
from .errors import CrossCheckFailed, RangeError, ShapeError, TooSmall, ZeroVariance
from .splitter import Assignment

__all__ = [
    "SubTestScores",
    "ReliabilityReport",
    "TrueScoreGeometry",
    "sub_test_scores",
    "split_half_correlation",
    "f_test_equal_variance",
    "classical_reliability",
    "true_score_geometry",
]

# float32 holds every integer up to 2**24 exactly, so a half score over
# at most that many items is exact in it
_FLOAT32_EXACT_ITEMS = 1 << 24
# rows per BLAS product in sub_test_scores: the float copy of a block stays small
_HALF_SCORE_ROWS = 1024

_F_TEST_NOTE = (
    "F-test compares observed sub-test score variances, an approximation "
    "to the unobservable error variances"
)


@dataclass(frozen=True)
class SubTestScores:
    """Per-examinee scores on the two halves, index-aligned."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        g, h = np.asarray(self.g), np.asarray(self.h)
        if g.ndim != 1 or g.shape != h.shape:
            raise ShapeError("sub-test score vectors must be 1-dimensional and aligned")
        if g.size < 2:
            raise TooSmall(f"need at least 2 examinees, got {g.size}")
        object.__setattr__(self, "g", _totals(g, "sub-test g scores"))
        object.__setattr__(self, "h", _totals(h, "sub-test h scores"))

    @property
    def n_examinees(self) -> int:
        return self.g.size

    def combined(self) -> np.ndarray:
        """Total score on the reduced test: X_i = X_i^(g) + X_i^(h)."""
        return self.g + self.h

    @cached_property
    def _moments(self) -> tuple[int, int, int, int, int]:
        """Sum g, sum h, ||X_g||^2, ||X_h||^2 and <X_g, X_h> as exact Python
        ints, once per instance; int64 sums do not go through BLAS, so no
        thread count changes them."""
        g, h = self.g, self.h
        return int(g.sum()), int(h.sum()), int(np.dot(g, g)), int(np.dot(h, h)), int(np.dot(g, h))


def sub_test_scores(m: ScoreMatrix, a: Assignment) -> SubTestScores:
    """Row sums of the two column blocks selected by an assignment.

    Both halves come from one BLAS product per block of rows: the 0/1
    cells times an n x 2 indicator of the g and h items.  In float32 up
    to 2**24 items, in float64 above that, every partial sum is an
    integer the format holds exactly, so the half scores are exact
    whatever order BLAS adds them in and however many threads it uses.
    """
    n = m.n_items
    for j in (*a.g_items, *a.h_items):
        if j >= n:
            raise ShapeError(f"assignment references item {j} of a {n}-item matrix")
    dtype = np.float32 if n <= _FLOAT32_EXACT_ITEMS else np.float64
    pick = np.zeros((n, 2), dtype=dtype)
    pick[list(a.g_items), 0] = 1
    pick[list(a.h_items), 1] = 1
    halves = np.empty((m.n_examinees, 2), dtype=dtype)
    for start in range(0, m.n_examinees, _HALF_SCORE_ROWS):
        block = m.entries[start : start + _HALF_SCORE_ROWS]
        np.matmul(block.astype(dtype), pick, out=halves[start : start + len(block)])
    scores = halves.astype(np.int64)
    return SubTestScores(scores[:, 0], scores[:, 1])


class TrueScoreGeometry(NamedTuple):
    S_T_sq: float
    norm_T: float
    cos_theta_T: float


@dataclass(frozen=True)
class ReliabilityReport:
    """Everything the reliability pipeline knows about one split.

    ``r_tt`` is the general form 1 - error_variance / S_X^2.
    ``r_tt_equal_norm`` is the variant that replaces the two half norms
    by their geometric mean; it coincides with ``r_tt`` exactly when the
    halves have equal norms and drifts apart quadratically in the norm
    gap otherwise.  Undefined auxiliary statistics are NaN with a
    matching entry in ``warnings``.
    """

    error_variance: float
    r_tt: float
    r_tt_equal_norm: float
    r_gh: float
    r_XT: float
    S_T_sq: float
    f_stat: float
    f_p_value: float
    f_test_note: str
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "warnings": list(self.warnings)}


def _half_comoments(s: SubTestScores) -> tuple[int, int, int]:
    """N^2 var_g, N^2 var_h and N^2 cov(g, h), exact, from the moments."""
    n = s.n_examinees
    sum_g, sum_h, sq_g, sq_h, cross = s._moments
    return n * sq_g - sum_g * sum_g, n * sq_h - sum_h * sum_h, n * cross - sum_g * sum_h


def split_half_correlation(s: SubTestScores) -> float:
    """Pearson correlation between the half scores; NaN if either half
    has zero variance.  r_gh^2 is a ratio of exact integers rounded
    once, so r_gh, its signed square root, is within 1 ulp."""
    var_g, var_h, cov = _half_comoments(s)
    if var_g == 0 or var_h == 0:
        return float("nan")
    return math.copysign(math.sqrt(cov * cov / (var_g * var_h)), cov)


def f_test_equal_variance(s: SubTestScores) -> tuple[float, float]:
    """Two-sided F-test that the halves have equal score variance.

    F is the larger sample variance over the smaller, with (N-1, N-1)
    degrees of freedom; the p-value comes from the regularised
    incomplete beta function (``_f_p_value``).  F is a ratio of exact
    integers rounded once.  Note this compares observed sub-test score
    variances (see the report note).
    """
    n = s.n_examinees
    if n < 3:
        raise TooSmall(f"F-test needs at least 3 examinees, got {n}")
    var_g, var_h, _ = _half_comoments(s)
    lo = min(var_g, var_h)
    if lo == 0:
        raise ZeroVariance("a sub-test has zero score variance, F-test undefined")
    f = max(var_g, var_h) / lo
    return f, _f_p_value(f, n - 1)


def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)), without lgamma cancellation at large a.

    The asymptotic series is within 2.2e-15 relative at a = 20 and
    within 2e-16 from a = 25 on.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / a
    r2 = r * r
    return 0.5 * math.log(a) - r * (1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * 17 / 14336)))


def _cf_term_cap(a: float) -> int:
    """Continued-fraction terms allowed; the count needed grows slower
    than sqrt(a) (346 at a = 2.5e5)."""
    return 50 + int(2.0 * math.sqrt(a))


def _f_p_value(f: float, nu: int) -> float:
    """Two-sided p-value of F >= 1 under F(nu, nu): min(1, 2 I_x(a, a))
    with a = nu / 2 and x = 1 / (1 + F) <= 1/2.

    The prefactor x^a (1-x)^a / (a B(a, a)) is taken in log space
    through Legendre's duplication formula,
    (4x(1-x))^a Gamma(a + 1/2) / (2 sqrt(pi) a Gamma(a)), with
    1 - 4x(1-x) = ((F-1)/(F+1))^2 rounded once from the exact float F.  The
    continued fraction is the modified Lentz evaluation of DLMF 8.17.22
    (Numerical Recipes' ``betacf``), which converges for x <= 1/2.
    """
    if f == 1.0:
        return 1.0  # I_{1/2}(a, a) = 1/2 by symmetry
    a = nu / 2.0
    x = 1.0 / (1.0 + f)
    num, den = f.as_integer_ratio()  # int division rounds correctly
    d_sq = (num - den) ** 2 / (num + den) ** 2
    log_4xy = math.log1p(-d_sq) if d_sq < 0.5 else math.log(4 * num * den / (num + den) ** 2)
    log_front = (
        a * log_4xy + _log_gamma_half_ratio(a) - math.log(2.0 * math.sqrt(math.pi) * a)
    )

    def nonzero(v: float) -> float:
        return 1e-300 if abs(v) < 1e-300 else v

    c = 1.0
    d = 1.0 / nonzero(1.0 - 2.0 * a * x / (a + 1.0))
    h = d
    cap = _cf_term_cap(a)
    for m in range(1, cap + 1):
        for coeff in (
            m * (a - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (2.0 * a + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 / nonzero(1.0 + coeff * d)
            c = nonzero(1.0 + coeff / c)
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-16:
            return min(1.0, 2.0 * math.exp(log_front) * h)
    raise CrossCheckFailed(
        f"F-test p-value: continued fraction did not converge in {cap} terms "
        f"(F = {f!r}, nu = {nu})"
    )


def true_score_geometry(stats: TestStats, r_tt: float) -> TrueScoreGeometry:
    """True-score variance, norm and angle implied by a reliability.

    S_T^2 = r_tt * S_X^2; the true-score vector has the same mean as the
    observed one, so ||T|| = sqrt(N (mean^2 + S_T^2)) and
    cos(theta_T) = (||X|| / ||T||) cos(theta_X); ||T|| cos(theta_T) /
    sqrt(N) gives the mean back, which a property test bounds in ulp.
    """
    if not 0.0 <= r_tt <= 1.0:
        raise RangeError(f"true-score geometry needs r_tt in [0, 1], got {r_tt}")
    s_t_sq = r_tt * stats.variance
    norm_t = math.sqrt(stats.N * (stats.mean * stats.mean + s_t_sq))
    if norm_t == 0.0 or math.isnan(stats.cos_theta_X):
        return TrueScoreGeometry(s_t_sq, norm_t, float("nan"))
    return TrueScoreGeometry(s_t_sq, norm_t, (stats.norm_X / norm_t) * stats.cos_theta_X)


def classical_reliability(s: SubTestScores, stats: TestStats) -> ReliabilityReport:
    """Assemble the full reliability report for one split.

    ``stats`` must describe the reduced test, i.e. the per-examinee sums
    X = X_g + X_h over the same examinees (a dropped odd item is part of
    neither).  Raises ZeroVariance when those totals do not vary at all,
    since no reliability is defined then.  With the exact integers
    V = N^2 S_X^2 and D = ||X_g - X_h||^2, error_variance = D / N,
    r_tt = (V - N D) / V and S_T^2 = (V - N D) / N^2, each rounded once.
    """
    n = s.n_examinees
    if stats.N != n:
        raise ShapeError(
            f"stats describe {stats.N} examinees but sub-tests have {n}"
        )
    sum_g, sum_h, sq_g, sq_h, cross = s._moments
    total = sum_g + sum_h
    v = n * (sq_g + sq_h + 2 * cross) - total * total
    if v == 0:
        raise ZeroVariance("total-score variance is zero, reliability undefined")

    warnings: list[str] = []
    d = sq_g + sq_h - 2 * cross
    r_tt = (v - n * d) / v
    if r_tt < 0.0:
        warnings.append(
            "negative reliability: error variance exceeds observed score variance"
        )

    norm_g = math.sqrt(sq_g)
    norm_h = math.sqrt(sq_h)
    r_equal_norm = 1.0 - 2.0 * n * (norm_g * norm_h - cross) / v

    r_gh = split_half_correlation(s)
    if math.isnan(r_gh):
        warnings.append("split-half correlation undefined: a sub-test has zero variance")

    try:
        f_stat, f_p = f_test_equal_variance(s)
    except (TooSmall, ZeroVariance) as exc:
        f_stat, f_p = float("nan"), float("nan")
        warnings.append(f"F-test skipped: {exc}")

    return ReliabilityReport(
        error_variance=d / n,
        r_tt=r_tt,
        r_tt_equal_norm=r_equal_norm,
        r_gh=r_gh,
        r_XT=math.sqrt(max(r_tt, 0.0)),
        S_T_sq=(v - n * d) / (n * n),
        f_stat=f_stat,
        f_p_value=f_p,
        f_test_note=_F_TEST_NOTE,
        warnings=tuple(warnings),
    )
