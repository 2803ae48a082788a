"""Score containers, CSV round trips, and the two-route descriptive stats."""

import dataclasses
import io

import numpy as np
import pytest

from splitrel import (
    DomainViolation,
    ExamineeScores,
    ItemScores,
    ScoreMatrix,
    ShapeError,
    TestStats,
    TooSmall,
    descriptive_stats,
    examinee_totals,
    item_totals,
    load_score_matrix,
    mean_from_norms,
    write_score_matrix,
)

MAT = [[1, 0, 1], [0, 0, 1], [1, 1, 1], [0, 0, 0]]


def test_matrix_totals_match_hand_counts():
    m = ScoreMatrix(MAT)
    assert item_totals(m).as_ints() == [2, 1, 3]
    assert list(examinee_totals(m).totals) == [2, 1, 3, 0]
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


def test_matrix_label_validation():
    m = ScoreMatrix(MAT, item_ids=[1, 2, 3])
    assert m.item_ids == ("1", "2", "3")
    with pytest.raises(ShapeError, match="item_ids has 1 labels for 3 rows/columns"):
        ScoreMatrix(MAT, item_ids=["a"])


def test_item_scores_validation():
    with pytest.raises(DomainViolation):
        ItemScores([3, -1])
    with pytest.raises(ShapeError):
        ItemScores([[1, 2]])
    assert ItemScores([5, 0, 7]).n_items == 3


def test_csv_round_trip(tmp_path):
    m = ScoreMatrix(MAT, item_ids=["q1", "q2", "q3"])
    path = tmp_path / "scores.csv"
    write_score_matrix(m, path)
    assert path.read_text() == "1,0,1\n0,0,1\n1,1,1\n0,0,0\n"
    back = load_score_matrix(path)
    assert np.array_equal(back.entries, m.entries)
    assert back.item_ids is None


def test_csv_load_reports_bad_cell_position():
    text = "1,0\n0,7\n"
    with pytest.raises(DomainViolation) as err:
        load_score_matrix(io.StringIO(text))
    msg = str(err.value)
    assert "row 2" in msg and "column 2" in msg


def test_csv_load_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        load_score_matrix(io.StringIO("1,0\n1\n"))


def test_descriptive_stats_against_hand_values():
    # totals 2,1,3,0: mean 1.5, population variance (0.25+0.25+2.25+2.25)/4
    x = ExamineeScores([2, 1, 3, 0])
    st = descriptive_stats(x, 3)
    assert st.mean == pytest.approx(1.5)
    assert st.variance == pytest.approx(1.25)
    assert st.norm_X == pytest.approx(np.sqrt(4 + 1 + 9 + 0))
    assert st.N == 4 and st.n == 3
    # geometry route: mean = ||X|| cos(theta) / sqrt(N)
    assert mean_from_norms(st.norm_X, st.cos_theta_X, st.N) == pytest.approx(1.5)
    # and variance = ||X||^2 sin^2(theta) / N
    sin_sq = 1.0 - st.cos_theta_X**2
    assert st.norm_X**2 * sin_sq / st.N == pytest.approx(st.variance)
    assert st.variance == pytest.approx(1.25)


def test_descriptive_stats_near_ceiling_long_test():
    # 1 - cos^2(theta) in floats cancels for totals this close to n; the
    # geometric cross-check must not report a disagreement that is not there
    st = descriptive_stats(ExamineeScores([5000, 5000, 4999] * 10), 5000)
    assert st.variance == pytest.approx(2 / 9, rel=1e-9)


def test_descriptive_stats_vs_numpy_on_random_vectors():
    rng = np.random.default_rng(5)
    for _ in range(25):
        vals = rng.integers(0, 40, size=int(rng.integers(1, 60)))
        st = descriptive_stats(ExamineeScores(vals), 40)
        assert st.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert st.variance == pytest.approx(float(np.var(vals)), rel=1e-12, abs=1e-12)


def test_descriptive_stats_single_examinee():
    st = descriptive_stats(ExamineeScores([4]), 6)
    assert st.mean == pytest.approx(4.0)
    assert st.variance == pytest.approx(0.0)
    assert st.cos_theta_X == pytest.approx(1.0)


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
