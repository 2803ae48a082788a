"""Score containers, CSV round trips, and the descriptive stats with their
person-space identities."""

import dataclasses
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from splitrel import (
    DomainViolation,
    ExamineeScores,
    ItemScores,
    ScoreMatrix,
    ShapeError,
    TestStats,
    TooSmall,
    descriptive_stats,
    item_totals,
    load_score_matrix,
    true_score_geometry,
    write_score_matrix,
)

MAT = [[1, 0, 1], [0, 0, 1], [1, 1, 1], [0, 0, 0]]


def test_matrix_totals_match_hand_counts():
    m = ScoreMatrix(MAT)
    assert item_totals(m).as_ints() == [2, 1, 3]
    assert m.n_examinees == 4
    assert m.n_items == 3


def test_matrix_is_frozen():
    m = ScoreMatrix(MAT)
    with pytest.raises((ValueError, RuntimeError)):
        m.entries[0, 0] = 0


def test_matrix_copies_a_callers_array():
    entries = np.array(MAT, dtype=np.int8)
    m = ScoreMatrix(entries)
    entries[0, 0] = 0
    assert m.entries[0, 0] == 1
    assert not m.entries.flags.writeable
    # a read-only array can still change through a view taken before
    entries = np.array(MAT, dtype=np.int8)
    view = entries.view()
    entries.setflags(write=False)
    m = ScoreMatrix(entries)
    view[0, 0] = 7
    assert m.entries[0, 0] == 1


def test_matrix_rejects_non_binary_with_cell_location():
    bad = [[0, 1], [1, 2]]
    with pytest.raises(DomainViolation) as err:
        ScoreMatrix(bad)
    assert "row 2" in str(err.value)
    assert "column 2" in str(err.value)


@pytest.mark.parametrize("value", [0.5, -1, 256])
def test_matrix_rejects_fractional_negative_and_wrapping_values(value):
    # 256 would wrap to 0 in int8; the message names the first bad cell
    bad = [[0, 1, 1], [1, value, value]]
    with pytest.raises(DomainViolation, match="row 2, column 2"):
        ScoreMatrix(bad)


def test_matrix_rejects_wrong_shapes():
    with pytest.raises(ShapeError):
        ScoreMatrix([1, 0, 1])
    with pytest.raises(TooSmall):
        ScoreMatrix([[1, 0]])
    with pytest.raises(TooSmall):
        ScoreMatrix([[1], [0]])


def test_item_scores_validation():
    with pytest.raises(DomainViolation):
        ItemScores([3, -1])
    with pytest.raises(ShapeError):
        ItemScores([[1, 2]])
    assert ItemScores([5, 0, 7]).as_ints() == [5, 0, 7]


def test_csv_round_trip(tmp_path):
    m = ScoreMatrix(MAT)
    path = tmp_path / "scores.csv"
    write_score_matrix(m, path)
    assert path.read_text() == "1,0,1\n0,0,1\n1,1,1\n0,0,0\n"
    back = load_score_matrix(path)
    assert np.array_equal(back.entries, m.entries)
    # a header row is checked, one label per column, and skipped
    body = path.read_text()
    path.write_text("q1,q2,q3\n" + body)
    assert np.array_equal(load_score_matrix(path, has_header=True).entries, m.entries)
    path.write_text("q1,q2\n" + body)
    with pytest.raises(ShapeError, match="^header has 2 labels for 3 columns$"):
        load_score_matrix(path, has_header=True)


def test_csv_load_reports_bad_cell_position():
    with pytest.raises(DomainViolation) as err:
        load_score_matrix(b"1,0\n0,7\n")
    msg = str(err.value)
    assert "row 2" in msg and "column 2" in msg


def test_csv_load_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        load_score_matrix(b"1,0\n1\n")


def test_sources_and_destinations_other_than_paths_or_bytes_are_type_errors(tmp_path):
    with pytest.raises(TypeError):
        load_score_matrix(io.StringIO("1,0\n0,1\n"))
    # an int is not taken for a file descriptor: the file is left unread and open
    path = tmp_path / "scores.csv"
    path.write_bytes(b"1,0\n0,1\n")
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(TypeError):
            load_score_matrix(fd)
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        assert os.read(fd, 64) == b"1,0\n0,1\n"
    finally:
        os.close(fd)
    with pytest.raises(TypeError):
        write_score_matrix(ScoreMatrix(MAT), io.StringIO())


def test_descriptive_stats_against_hand_values():
    # totals 2,1,3,0: mean 1.5, population variance (0.25+0.25+2.25+2.25)/4
    x = ExamineeScores([2, 1, 3, 0])
    st = descriptive_stats(x, 3)
    assert st.mean == pytest.approx(1.5)
    assert st.variance == pytest.approx(1.25)
    assert st.norm_X == pytest.approx(np.sqrt(4 + 1 + 9 + 0))
    assert st.N == 4 and st.n == 3
    # geometry route: mean = ||X|| cos(theta) / sqrt(N)
    assert st.norm_X * st.cos_theta_X / np.sqrt(st.N) == pytest.approx(1.5)
    # and variance = ||X||^2 sin^2(theta) / N
    sin_sq = 1.0 - st.cos_theta_X**2
    assert st.norm_X**2 * sin_sq / st.N == pytest.approx(st.variance)
    assert st.variance == pytest.approx(1.25)


def test_descriptive_stats_near_ceiling_long_test():
    # 1 - cos^2(theta) in floats cancels for totals this close to n; the
    # variance comes from the exact sums instead
    st = descriptive_stats(ExamineeScores([5000, 5000, 4999] * 10), 5000)
    assert st.variance == pytest.approx(2 / 9, rel=1e-9)


# The person-space identities, each checked against the reported mean or
# variance (correctly rounded, so within 0.5 ulp of the exact value).  A
# route of k floating-point roundings, each of relative size at most
# 2**-53, is less than k ulp from the exact value, so it may differ from
# the report by k + 0.5 ulp.  The roundings, with the drawn sums below
# 2**53 so that converting them is exact:
# - ||X|| cos(theta_X) / sqrt(N): ||X|| cancels exactly, since cos(theta_X)
#   = sum X / (||X|| sqrt(N)) was computed from the same float; sqrt(N)
#   enters twice, plus one product and one quotient in cos(theta_X) and
#   the two here: 6;
# - ||X||^2 sin^2(theta_X) / N, with sin^2 from the exact sums as
#   (N sum X^2 - (sum X)^2) / (N sum X^2), because 1 - cos^2 cancels in
#   floats: ||X||'s square root enters twice, then the square, the
#   quotient, the product and the division by N: 6;
# - ||T|| cos(theta_T) / sqrt(N), with cos(theta_T) = (||X|| / ||T||)
#   cos(theta_X): ||T|| cancels exactly and leaves ||X|| cos(theta_X)
#   with the quotient and the product in cos(theta_T) and the product
#   here, then the division by sqrt(N): 8.
IDENTITY_ULPS = {"mean": 6.5, "variance": 6.5, "true-score mean": 8.5}


@settings(max_examples=300, deadline=None)
@given(
    strategies.integers(1, 10000).flatmap(
        lambda n: strategies.tuples(
            strategies.just(n),
            strategies.lists(strategies.integers(0, n), min_size=2, max_size=200).filter(any),
            strategies.floats(0.0, 1.0),
        )
    )
)
def test_person_space_identities_hold_within_their_rounding_bounds(case):
    n, totals, r_tt = case
    stats = descriptive_stats(ExamineeScores(totals), n)
    N, total, sum_sq = len(totals), sum(totals), sum(t * t for t in totals)
    sin_sq = (N * sum_sq - total * total) / (N * sum_sq)
    geometry = true_score_geometry(stats, r_tt)
    routes = {
        "mean": (stats.norm_X * stats.cos_theta_X / math.sqrt(N), stats.mean),
        "variance": (stats.norm_X**2 * sin_sq / N, stats.variance),
        "true-score mean": (geometry.norm_T * geometry.cos_theta_T / math.sqrt(N), stats.mean),
    }
    for name, (route, reported) in routes.items():
        ulps = abs(route - reported) / math.ulp(reported)
        assert ulps <= IDENTITY_ULPS[name], (name, route, reported, ulps)


def test_descriptive_stats_vs_numpy_on_random_vectors():
    rng = np.random.default_rng(5)
    for _ in range(25):
        vals = rng.integers(0, 40, size=int(rng.integers(1, 60)))
        st = descriptive_stats(ExamineeScores(vals), 40)
        assert st.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert st.variance == pytest.approx(float(np.var(vals)), rel=1e-12, abs=1e-12)


def test_descriptive_stats_to_dict_keys():
    st = descriptive_stats(ExamineeScores([2, 1, 3, 0]), 3)
    d = st.to_dict()
    for key in ("mean", "variance", "norm_X", "norm_I", "cos_theta_X", "N", "n"):
        assert key in d
    assert type(st) is TestStats
    assert list(d) == [f.name for f in dataclasses.fields(TestStats)]
    assert d["notes"] == list(st.notes) and type(d["notes"]) is list


def test_descriptive_stats_zero_vector_has_nan_angle():
    st = descriptive_stats(ExamineeScores([0, 0, 0]), 2)
    assert st.mean == 0.0
    assert st.variance == 0.0
    assert np.isnan(st.cos_theta_X)


def test_descriptive_stats_rejects_bad_item_count():
    with pytest.raises(TooSmall):
        descriptive_stats(ExamineeScores([1, 2]), 0)
    with pytest.raises(TooSmall, match="need at least 2 examinees, got 1"):
        descriptive_stats(ExamineeScores([3]), 5)
