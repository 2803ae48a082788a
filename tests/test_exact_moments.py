"""Every second moment against its exact rational value.

With integer scores each variance, covariance, error variance, r_tt,
S_T^2 and F is a ratio of integers.  The toolkit forms those integers
exactly and rounds once, so each field must equal the ``Fraction``
rounded to the nearest float.  r_gh has a square root: r_gh^2 is rounded
once (relative error at most 2**-53), its square root halves that to
under 0.5 ulp, and the root's own rounding adds 0.5 ulp, so r_gh is
within 1 ulp of the exact value.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrel import (
    BatteryInput,
    ComponentTest,
    ExamineeScores,
    SubTestScores,
    ZeroVariance,
    classical_reliability,
    covariance_matrix,
    descriptive_stats,
)

R_GH_ULPS = 1


def comoment(a: list[int], b: list[int]) -> Fraction:
    """The exact population covariance of two aligned integer vectors."""
    n = len(a)
    return Fraction(n * sum(x * y for x, y in zip(a, b)) - sum(a) * sum(b), n * n)


def exact_correlation(g: list[int], h: list[int]) -> Decimal:
    r_sq = comoment(g, h) ** 2 / (comoment(g, g) * comoment(h, h))
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(r_sq.numerator) / Decimal(r_sq.denominator)).sqrt()
    return root.copy_sign(Decimal(comoment(g, h).numerator))


@st.composite
def half_scores(draw):
    """Aligned half scores of 2-60 examinees on halves of up to 5000 items."""
    n_pair = draw(st.integers(1, 5000))
    n_examinees = draw(st.integers(2, 60))
    cell = st.integers(0, n_pair)
    g = draw(st.lists(cell, min_size=n_examinees, max_size=n_examinees))
    h = draw(st.lists(cell, min_size=n_examinees, max_size=n_examinees))
    return n_pair, g, h


@settings(max_examples=300, deadline=None)
@given(half_scores())
def test_every_reliability_moment_is_the_exact_value_rounded_once(case):
    n_pair, g, h = case
    x = [a + b for a, b in zip(g, h)]
    for values, n_items in ((g, n_pair), (h, n_pair), (x, 2 * n_pair)):
        assert descriptive_stats(ExamineeScores(values), n_items).variance == float(
            comoment(values, values)
        )

    s = SubTestScores(np.array(g), np.array(h))
    stats = descriptive_stats(ExamineeScores(x), 2 * n_pair)
    var_x = comoment(x, x)
    if var_x == 0:
        with pytest.raises(ZeroVariance):
            classical_reliability(s, stats)
        return
    rep = classical_reliability(s, stats)
    error_variance = Fraction(sum((a - b) ** 2 for a, b in zip(g, h)), len(x))
    assert rep.error_variance == float(error_variance)
    assert rep.r_tt == float(1 - error_variance / var_x)
    assert rep.S_T_sq == float(var_x - error_variance)

    var_g, var_h = comoment(g, g), comoment(h, h)
    if var_g == 0 or var_h == 0:
        assert math.isnan(rep.r_gh) and math.isnan(rep.f_stat)
        return
    if len(x) >= 3:
        assert rep.f_stat == float(max(var_g, var_h) / min(var_g, var_h))
    exact = exact_correlation(g, h)
    ulp = Decimal(math.ulp(float(exact)))
    assert abs(Decimal(rep.r_gh) - exact) <= R_GH_ULPS * ulp, (rep.r_gh, exact)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 60).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 5000), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
def test_every_battery_covariance_is_the_exact_value_rounded_once(totals):
    tests = [
        ComponentTest(
            scores=ExamineeScores(t),
            S_X_sq=descriptive_stats(ExamineeScores(t), 5000).variance,
            r_tt=0.5,
        )
        for t in totals
    ]
    d = covariance_matrix(BatteryInput(tuple(tests))).d
    for i, a in enumerate(totals):
        assert d[i, i] == tests[i].S_X_sq
        for j, b in enumerate(totals):
            assert d[i, j] == float(comoment(a, b))
