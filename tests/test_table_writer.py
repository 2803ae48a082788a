"""The per-examinee tables on the CLI's output paths, against row references.

``TrueScoreTable`` and ``EstimatorComparison`` hold columns, and their
``rows`` blocks carry the observed scores as row codes.  ``cli._dump``
renders each column that ``RowBlock.coding()`` finds to be a function of
the codes once per code, and every other column once per row; the ids,
in the rows of both tables and in the ``bins`` id arrays, come from one
rendering of 0, 1, 2, ... per dump.  ``to_csv`` writes the cells after
the id once per code through ``csv.writer``, or once per row when a
column after the id is not a function of the codes.  The tests
build random tables, and tables of several chunks from seeded scores,
and require the exact bytes that ``json.dumps(..., indent=2,
sort_keys=True)`` writes for the same report built from row dicts over
the column names spelt out below, and the bytes of a ``csv.writer`` loop
over the same rows for ``to_csv``.
"""

import csv
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitrel import (
    EstimatorComparison,
    ExamineeScores,
    TrueScoreTable,
    compare_estimators,
    descriptive_stats,
    estimate_true_scores,
)
from splitrel.cli import _dump

from conftest import json_safe as _json_safe

PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

TEXT = st.text(alphabet=st.sampled_from('ab"\\/\x00\x1f\t\n é€😀 '), max_size=6)
FINITE = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, 1e-300, 0.1, 2.5e15])
ANY_FLOAT = FINITE | st.sampled_from([math.nan, math.inf, -math.inf])

# the columns, in the order of the CSV header
TABLE_COLUMNS = (
    "examinee_id", "observed", "estimate", "low", "high", "prediction_error", "out_of_range",
)
COMPARISON_COLUMNS = ("examinee_id", "observed", "difference", "sign")


def reference_rows(table, columns):
    """One dict of Python scalars per examinee, keyed by ``columns``."""
    values = zip(*(getattr(table, name).tolist() for name in columns))
    return [dict(zip(columns, row)) for row in values]


@st.composite
def tables(draw):
    """A table and a comparison over the same rows and observed scores."""
    n_rows = draw(st.integers(1, 25))

    def column(values):
        return draw(st.lists(values, min_size=n_rows, max_size=n_rows))

    # examinee ids are the 0-based row positions
    ids = np.arange(n_rows)
    # a low top score repeats scores, so that the rows share codes
    observed = np.array(column(st.integers(0, draw(st.sampled_from([3, 60])))), dtype=np.int64)
    table = TrueScoreTable(
        examinee_id=ids,
        observed=observed,
        estimate=np.array(column(FINITE)),
        low=np.array(column(ANY_FLOAT)),
        high=np.array(column(ANY_FLOAT)),
        prediction_error=np.array(column(ANY_FLOAT)),
        out_of_range=np.array(column(st.booleans())),
        alpha1=draw(ANY_FLOAT),
        beta1=draw(FINITE),
        S_E=draw(FINITE),
        reliability_kind=draw(st.sampled_from(["classical", "split_half"])),
        prediction_error_variance=draw(FINITE),
        prediction_error_gap=draw(FINITE),
        n_items=draw(st.integers(2, 60)),
        warnings=tuple(draw(st.lists(TEXT, max_size=2))),
    )
    # r_gh may be undefined (NaN) or below r_tt, as on degenerate splits
    r_tt = draw(st.floats(-1.0, 1.0))
    r_gh = draw(st.floats(-1.0, 1.0) | st.just(math.nan))
    spread = r_gh - r_tt
    mean = float(observed.mean())
    comparison = EstimatorComparison(
        examinee_id=ids,
        observed=observed,
        difference=np.array([(x - mean) * spread for x in observed.tolist()]),
        sign=np.array(column(st.sampled_from([-1, 0, 1])), dtype=np.int64),
        r_tt=r_tt,
        r_gh=r_gh,
        warnings=(),
    )
    return table, comparison


def reference_bins(table):
    bins = {}
    for row in reference_rows(table, TABLE_COLUMNS):
        bins.setdefault(math.floor(row["estimate"]), []).append(row["examinee_id"])
    return {str(k): ids for k, ids in sorted(bins.items())}


def reference_report(table, comparison, percentile=None):
    """The report the CLI writes for the two tables, as ``json.dumps`` writes
    it from row dicts and id lists."""
    reference_table = dict(table.to_dict())
    reference_table["rows"] = reference_rows(table, TABLE_COLUMNS)
    reference_table["bins"] = reference_bins(table)
    reference_comparison = dict(comparison.to_dict())
    reference_comparison["rows"] = reference_rows(comparison, COMPARISON_COLUMNS)
    reference = {
        "report": {
            "table": reference_table,
            "comparison": reference_comparison,
            "percentile": percentile,
        },
        "tool": "splitrel",
    }
    return json.dumps(_json_safe(reference), indent=2, sort_keys=True) + "\n"


def dumped_report(table, comparison, percentile=None):
    body = {
        "table": table.to_dict(),
        "comparison": comparison.to_dict(),
        "percentile": percentile,
    }
    out = io.StringIO()
    with redirect_stdout(out):
        _dump({"report": body, "tool": "splitrel"}, None)
    return out.getvalue()


def reference_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TABLE_COLUMNS)
    for row in reference_rows(table, TABLE_COLUMNS):
        writer.writerow(row.values())
    return buf.getvalue()


def tables_from_scores(n_rows, n_items, seed):
    """A true-score table and a comparison of ``n_rows`` seeded scores."""
    totals = np.random.default_rng(seed).binomial(n_items, 0.6, n_rows)
    x = ExamineeScores(totals)
    stats = descriptive_stats(x, n_items)
    table = estimate_true_scores(x, stats, 0.83, "classical")
    return table, compare_estimators(x, stats, 0.83, 0.79)


# the writer's chunk size, cli._CHUNK_ROWS
CHUNK = 4096


@PROPERTY
@given(tables(), st.none() | FINITE)
def test_writers_produce_the_bytes_of_the_row_references(pair, percentile):
    table, comparison = pair
    body = {
        "table": table.to_dict(),
        "comparison": comparison.to_dict(),
        "percentile": percentile,
    }
    reference_table = dict(body["table"])
    reference_table["rows"] = reference_rows(table, TABLE_COLUMNS)
    reference_table["bins"] = reference_bins(table)
    reference_comparison = dict(body["comparison"])
    reference_comparison["rows"] = reference_rows(comparison, COMPARISON_COLUMNS)
    reference = {
        "report": {
            "table": reference_table,
            "comparison": reference_comparison,
            "percentile": percentile,
        },
        "tool": "splitrel",
    }
    expected = json.dumps(_json_safe(reference), indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    with redirect_stdout(out):
        _dump({"report": body, "tool": "splitrel"}, None)
    assert out.getvalue() == expected

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TABLE_COLUMNS)
    for row in reference_rows(table, TABLE_COLUMNS):
        writer.writerow(row.values())
    assert table.to_csv() == buf.getvalue()


def test_row_block_lists_the_row_dicts():
    table = TrueScoreTable(
        examinee_id=np.arange(2),
        observed=np.array([3, 5]),
        estimate=np.array([3.5, 4.5]),
        low=np.array([3.0, 4.0]),
        high=np.array([4.0, 5.0]),
        prediction_error=np.array([0.5, 0.5]),
        out_of_range=np.array([False, True]),
        alpha1=0.0, beta1=0.5, S_E=0.5, reliability_kind="classical",
        prediction_error_variance=0.25, prediction_error_gap=0.0, n_items=4,
        warnings=(),
    )
    d = table.to_dict()
    rows = d["rows"].tolist()
    assert rows == reference_rows(table, TABLE_COLUMNS)
    assert d["bins"] == {"3": [0], "4": [1]}
    assert type(rows[1]["examinee_id"]) is int
    assert type(rows[1]["out_of_range"]) is bool
    assert type(rows[1]["observed"]) is int


def test_a_truescore_report_of_several_chunks_has_the_reference_bytes():
    # ids past 999, rows in four chunks, and 41 distinct rows besides the ids
    table, comparison = tables_from_scores(3 * CHUNK + 1, 40, seed=30)
    assert dumped_report(table, comparison, 41.5) == reference_report(table, comparison, 41.5)
    assert table.to_csv() == reference_csv(table)


def test_every_column_of_a_table_but_the_ids_is_coded_by_the_observed_scores():
    # so the writers render the rest of each row once per observed score
    for n_rows in (40, 3 * CHUNK + 1):
        table, comparison = tables_from_scores(n_rows, 30, seed=n_rows)
        for t, columns in ((table, TABLE_COLUMNS), (comparison, COMPARISON_COLUMNS)):
            coded = t.to_dict()["rows"].coding()[2]
            assert coded == (False,) + (True,) * (len(columns) - 1)


def test_consecutive_dumps_of_different_sizes_each_have_the_reference_bytes():
    # the id texts one dump renders are not carried into the next
    for n_rows in (2 * CHUNK + 5, 1500, 3 * CHUNK + 1, 40):
        table, comparison = tables_from_scores(n_rows, 30, seed=n_rows)
        assert dumped_report(table, comparison) == reference_report(table, comparison)
