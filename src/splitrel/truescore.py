"""Per-examinee true-score estimates via regression on observed scores.

The point estimate is the linear regression of true on observed score,
T_hat = alpha1 + beta1 * X with slope beta1 equal to the reliability
and intercept alpha1 = mean * (1 - beta1), so estimates shrink toward
the mean.  Each row carries the deliberately conservative interval
T_hat +/- S_E, where S_E^2 = (1 - r) * S_X^2; the tighter regression
prediction error, whose variance is (1 - r)^2 * S_X^2, is emitted as a
per-row diagnostic instead of replacing the interval.

Estimates are never rounded or truncated: an extreme observed score can
put the estimate outside [0, n], and such rows are flagged, not edited.

Row i of a table is examinee i, the 0-based row of the score matrix, so
no column repeats the position.  A table's columns are exactly its
fields that hold numpy arrays, one value per examinee in field order;
they name the CSV header and the JSON row keys.
Every column is one whole-array expression, with the same IEEE
operations per value as the row formulas in the docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ExamineeScores, RowBlock, TestStats, _totals
from .errors import RangeError, ShapeError, ZeroVariance

__all__ = [
    "TrueScoreTable",
    "EstimatorComparison",
    "estimate_true_scores",
    "compare_estimators",
    "percentile_rank",
]

_KINDS = ("classical", "split_half")


class _ColumnTable:
    """A per-examinee table: its numpy-array fields, in field order, are its
    columns, and its other fields are scalars of the whole table.  The
    observed scores code the rows: in a computed table every column is a
    function of them."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "observed", _totals(self.observed, "observed scores"))
        for column in self.row_block().columns:
            column.setflags(write=False)

    @property
    def n_examinees(self) -> int:
        return len(self.observed)

    def row_block(self) -> RowBlock:
        columns = {k: v for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        return RowBlock(tuple(columns), tuple(columns.values()), self.observed)

    def to_dict(self) -> dict:
        block = self.row_block()
        scalars = {k: v for k, v in vars(self).items() if k not in block.fields}
        return {**scalars, "rows": block, "warnings": list(self.warnings)}


def _observed(x: ExamineeScores, stats: TestStats) -> np.ndarray:
    observed = np.asarray(x.totals, dtype=np.int64)
    if stats.N != observed.size:
        raise ShapeError(f"stats describe {stats.N} examinees but scores have {observed.size}")
    return observed


@dataclass(frozen=True, eq=False)
class TrueScoreTable(_ColumnTable):
    """Estimates for one administration under one reliability figure.

    The first six fields are the columns, one value per examinee.
    """

    observed: np.ndarray
    estimate: np.ndarray
    low: np.ndarray
    high: np.ndarray
    prediction_error: np.ndarray
    out_of_range: np.ndarray
    alpha1: float
    beta1: float
    S_E: float
    reliability_kind: str
    prediction_error_variance: float
    prediction_error_gap: float
    n_items: int
    warnings: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.reliability_kind not in _KINDS:
            raise RangeError(f"unknown reliability kind {self.reliability_kind!r}")
        super().__post_init__()


def estimate_true_scores(
    x: ExamineeScores,
    stats: TestStats,
    r: float,
    kind: str,
) -> TrueScoreTable:
    """Build the regression table T_hat = alpha1 + beta1 * X with intervals.

    ``r`` is the reliability to regress with and ``kind`` records where
    it came from ("classical" or "split_half").  Rows are numbered by
    their 0-based positions.  Per row, with X as a float:
    estimate = alpha1 + beta1 * X, low/high = estimate -/+ S_E and
    prediction_error = |X - mean| * (1 - beta1).
    """
    if not 0.0 <= r <= 1.0:
        raise RangeError(f"reliability must lie in [0, 1], got {r}")
    observed = _observed(x, stats)
    if not stats.variance > 0.0:
        raise ZeroVariance("observed-score variance is zero, estimation undefined")

    mean = stats.mean
    beta1 = float(r)
    alpha1 = mean * (1.0 - beta1)
    s_e = math.sqrt((1.0 - beta1) * stats.variance)

    score = observed.astype(np.float64)
    estimate = alpha1 + beta1 * score
    out_of_range = (estimate < 0.0) | (estimate > stats.n)
    oor = int(np.count_nonzero(out_of_range))
    warnings = []
    if oor:
        warnings.append(f"{oor} estimate(s) fall outside the score range [0, {stats.n}]")
    return TrueScoreTable(
        observed=observed,
        estimate=estimate,
        low=estimate - s_e,
        high=estimate + s_e,
        prediction_error=np.abs(score - mean) * (1.0 - beta1),
        out_of_range=out_of_range,
        alpha1=alpha1,
        beta1=beta1,
        S_E=s_e,
        reliability_kind=kind,
        prediction_error_variance=(1.0 - beta1) ** 2 * stats.variance,
        prediction_error_gap=beta1 * (1.0 - beta1) * stats.variance,
        n_items=stats.n,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True, eq=False)
class EstimatorComparison(_ColumnTable):
    """Split-half minus classical estimate, row by row.

    The difference collapses to (X - mean) * (r_gh - r_tt), so its sign
    is the sign of (X - mean) whenever r_gh >= r_tt and flips otherwise.
    Signs are computed in exact integer arithmetic.  The first three
    fields are the columns.
    """

    observed: np.ndarray
    difference: np.ndarray
    sign: np.ndarray
    r_tt: float
    r_gh: float
    warnings: tuple[str, ...]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def compare_estimators(
    x: ExamineeScores,
    stats: TestStats,
    r_tt: float,
    r_gh: float,
) -> EstimatorComparison:
    """Tabulate T_hat_split_half - T_hat_classical for every examinee.

    Per row, with X as a float: difference = (X - mean) * (r_gh - r_tt).
    """
    observed = _observed(x, stats)
    n_ex = observed.size
    total = int(observed.sum())
    spread = r_gh - r_tt
    # sign(X - mean) from integers: N*X - total never rounds
    sign = np.sign(n_ex * observed - total) * _sign(spread)
    warnings = []
    if spread < 0.0:
        warnings.append(
            "split-half reliability is below the classical value; "
            "comparison directions are reversed"
        )
    return EstimatorComparison(
        observed=observed,
        difference=(observed - stats.mean) * spread,
        sign=sign,
        r_tt=r_tt,
        r_gh=r_gh,
        warnings=tuple(warnings),
    )


def percentile_rank(table: TrueScoreTable, t: float) -> float:
    """Empirical-CDF percentile of estimate t: 100 * #(T_hat <= t) / N."""
    count = int(np.count_nonzero(table.estimate <= t))
    return 100.0 * count / table.n_examinees
