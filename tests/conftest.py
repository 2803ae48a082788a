"""Shared fixtures: the published item-total table, the exact split
oracles, the simulator's reference probabilities, the JSON writer's
reference and the acceptance recorder."""

import math

import numpy as np
import pytest

from splitrel import ItemScores, ScoreMatrix

# 50 published item totals from a 912-examinee administration; both
# balanced halves of this table sum to 5011 (grand total 10022).
TABLE2_TOTALS = {
    1: 75, 2: 284, 3: 135, 4: 144, 5: 112, 6: 230, 7: 172, 8: 128,
    9: 96, 10: 294, 11: 256, 12: 263, 13: 393, 14: 196, 15: 337,
    16: 405, 17: 285, 18: 134, 19: 193, 20: 100, 21: 190, 22: 292,
    23: 309, 24: 90, 25: 75, 26: 129, 27: 239, 28: 205, 29: 151,
    30: 221, 31: 106, 32: 124, 33: 131, 34: 103, 35: 483, 36: 127,
    37: 195, 38: 453, 39: 84, 40: 488, 41: 113, 42: 376, 43: 85,
    44: 102, 45: 115, 46: 80, 47: 199, 48: 178, 49: 236, 50: 111,
}
TABLE2_N = 912


def table2_tau() -> ItemScores:
    return ItemScores([TABLE2_TOTALS[j] for j in sorted(TABLE2_TOTALS)])


def column_fill(totals, n_examinees: int) -> ScoreMatrix:
    """A binary matrix whose column j holds totals[j] ones at the top.

    Any binary matrix with these column sums splits identically, since
    the splitter sees only the item totals.
    """
    totals = list(totals)
    if max(totals) > n_examinees:
        raise ValueError("column total exceeds the examinee count")
    m = np.zeros((n_examinees, len(totals)), dtype=np.int8)
    for j, t in enumerate(totals):
        m[:t, j] = 1
    return ScoreMatrix(m)


def _gap_below_half(reach: int, total: int) -> int:
    """total - 2s for the largest s <= total/2 whose bit is set in ``reach``."""
    return total - 2 * ((reach & ((2 << (total // 2)) - 1)).bit_length() - 1)


def balanced_optimum(values) -> int:
    """Exact min |sum(g) - sum(h)| over splits of ``values`` into equal halves.

    A cardinality-indexed bitset DP: bit s of ``reach[k]`` is set when k
    of the values seen so far sum to s.  The complement of a half-size
    subset is one too, so the best half sum lies at or below total/2.
    """
    values = [int(v) for v in values]
    if len(values) % 2:
        raise ValueError("a balanced split needs an even item count")
    half = len(values) // 2
    reach = [1] + [0] * half
    for v in values:
        for k in range(half, 0, -1):
            reach[k] |= reach[k - 1] << v
    return _gap_below_half(reach[half], sum(values))


def same_row_optimum(diffs) -> int:
    """Exact min |sum(+-d)| over all sign flips of the row differences ``diffs``.

    A bitset DP over the magnitudes: bit s of ``reach`` is set when some
    rows' |d| sum to s, and signing those rows against the rest gives
    |sum(+-d)| = |sum(|d|) - 2s|.
    """
    magnitudes = [abs(int(d)) for d in diffs]
    reach = 1
    for d in magnitudes:
        reach |= reach << d
    return _gap_below_half(reach, sum(magnitudes))


def json_safe(obj):
    """``obj`` with numpy scalars as Python ones, NaN and inf as None and
    dict keys as ``str(k)``: with ``json.dumps(..., indent=2,
    sort_keys=True)`` the reference for the CLI's JSON writer."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    return obj


@pytest.fixture
def table2_matrix() -> ScoreMatrix:
    return column_fill([TABLE2_TOTALS[j] for j in sorted(TABLE2_TOTALS)], TABLE2_N)


def reference_probabilities(kind: str, N: int, n: int, seed: int) -> np.ndarray:
    """The exact probability matrix the generator commits to.

    Re-derives the documented protocol (probabilities first, one uniform
    block second, PCG64 throughout) so any reordering inside generate()
    breaks these tests.
    """
    rng = np.random.default_rng(seed)
    if kind == "D1":
        return np.repeat(rng.random(N)[:, None], n, axis=1)
    if kind == "D2":
        return np.repeat(rng.random(n)[None, :], N, axis=0)
    if kind == "D3":
        p = np.clip(rng.normal(0.5, 0.2, N), 0.0, 1.0)
        return np.repeat(p[:, None], n, axis=1)
    if kind == "D4":
        p = np.clip(rng.normal(0.5, 0.2, n), 0.0, 1.0)
        return np.repeat(p[None, :], N, axis=0)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# acceptance criterion recorder: tests register (criterion, clause) outcomes
# before asserting, and the terminal summary prints one line per criterion.

_ACCEPTANCE: dict[int, list[tuple[str, bool]]] = {}


def record_criterion(number: int, clause: str, passed: bool) -> None:
    _ACCEPTANCE.setdefault(number, []).append((clause, bool(passed)))


@pytest.fixture
def criterion():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        clauses = _ACCEPTANCE[number]
        verdict = "PASS" if all(ok for _, ok in clauses) else "FAIL"
        detail = "; ".join(
            f"{text} [{'ok' if ok else 'FAILED'}]" for text, ok in clauses
        )
        terminalreporter.write_line(f"criterion {number}: {verdict} -- {detail}")
