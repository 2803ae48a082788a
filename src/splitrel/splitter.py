"""Split a test into two parallel halves with near-equal item-score sums.

Everything downstream (reliability, true-score estimation, battery
aggregation) consumes the two half-tests produced here, so the split is
the workhorse of the package.  The algorithm is a seeded zigzag deal:
sort items by total score, deal them out g,h,h,g, then repair the
residual imbalance with row swaps.

Two refinement criteria are available.  The default minimises ``abs_S``,
the absolute difference between the half sums.  The ``product`` variant
minimises ``|S| * |S_sq|`` where ``S_sq`` is the difference between sums
of squared item scores, trading a little first-moment balance for
second-moment balance.

All score arithmetic is exact Python integer arithmetic.  Item indices
are 0-based positions into the item-totals vector throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .data_model import ItemScores, RowBlock, ScoreMatrix, item_totals
from .errors import DomainViolation, RangeError, ShapeError, TooSmall

__all__ = [
    "Assignment",
    "SplitResult",
    "seed_allocation",
    "swap_refine",
    "product_refine",
    "split",
]


@dataclass(frozen=True)
class Assignment:
    """A dichotomisation of the items into two row-aligned halves.

    ``g_items[k]`` and ``h_items[k]`` together form row ``k`` of the
    allocation table.  For an odd item count the unpaired item is
    recorded as ``dropped_item`` and belongs to neither half.
    """

    g_items: tuple[int, ...]
    h_items: tuple[int, ...]
    dropped_item: int | None = None

    def __post_init__(self) -> None:
        g = tuple(int(j) for j in self.g_items)
        h = tuple(int(j) for j in self.h_items)
        dropped = None if self.dropped_item is None else int(self.dropped_item)
        object.__setattr__(self, "g_items", g)
        object.__setattr__(self, "h_items", h)
        object.__setattr__(self, "dropped_item", dropped)
        if len(g) != len(h):
            raise ShapeError(
                f"halves must pair up row by row, got {len(g)} vs {len(h)} items"
            )
        members = g + h + (() if dropped is None else (dropped,))
        if any(j < 0 for j in members):
            raise DomainViolation("item indices must be nonnegative")
        if len(set(members)) != len(members):
            raise DomainViolation("an item may appear in at most one half")

    @property
    def n_rows(self) -> int:
        return len(self.g_items)


@dataclass(frozen=True)
class SplitResult:
    """Final state of a refinement run, with enough detail to audit it.

    ``g_scores[k]`` and ``h_scores[k]`` are the item totals of row ``k``'s
    two items.  The sums and differences of the halves follow from them
    and are computed once, on construction.

    ``history`` records the criterion value at the seed and after each
    applied iteration: ``abs_S`` values under the default criterion,
    ``|S| * |S_sq|`` values under the product criterion.  It is strictly
    decreasing after the first entry because only strictly improving
    swaps are ever applied.
    """

    assignment: Assignment
    g_scores: tuple[int, ...]
    h_scores: tuple[int, ...]
    S: int = field(init=False)
    abs_S: int = field(init=False)
    S_sq: int = field(init=False)
    sum_g: int = field(init=False)
    sum_h: int = field(init=False)
    iterations: int
    history: tuple[int, ...]
    criterion: str = "abs_S"

    def __post_init__(self) -> None:
        g = tuple(int(v) for v in self.g_scores)
        h = tuple(int(v) for v in self.h_scores)
        if len(g) != self.assignment.n_rows or len(h) != self.assignment.n_rows:
            raise ShapeError("scores must align with the assignment rows")
        sum_g, sum_h = sum(g), sum(h)
        values = {
            "g_scores": g,
            "h_scores": h,
            "S": sum_g - sum_h,
            "abs_S": abs(sum_g - sum_h),
            "S_sq": sum(v * v for v in g) - sum(v * v for v in h),
            "sum_g": sum_g,
            "sum_h": sum_h,
            "history": tuple(int(v) for v in self.history),
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """JSON-ready view: item lists, the rows as a ``RowBlock``, sums, history."""
        a = self.assignment
        columns = [
            np.array(values, dtype=np.int64)
            for values in (a.g_items, self.g_scores, a.h_items, self.h_scores)
        ]
        columns.append(columns[1] - columns[3])
        rows = RowBlock(
            ("g_item", "g_score", "h_item", "h_score", "difference"), tuple(columns)
        )
        return {
            "criterion": self.criterion,
            "g_items": list(a.g_items),
            "h_items": list(a.h_items),
            "dropped_item": a.dropped_item,
            "rows": rows,
            "sum_g": self.sum_g,
            "sum_h": self.sum_h,
            "S": self.S,
            "abs_S": self.abs_S,
            "S_sq": self.S_sq,
            "iterations": self.iterations,
            "history": list(self.history),
        }


def _check_cover(a: Assignment, n: int) -> None:
    used = set(a.g_items) | set(a.h_items)
    if a.dropped_item is not None:
        used.add(a.dropped_item)
    if used != set(range(n)):
        raise ShapeError(f"assignment must place every one of the {n} items exactly once")


def _resolve_max_iter(max_iter: int | None, n: int) -> int:
    if max_iter is None:
        return 10 * n
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise RangeError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 0:
        raise RangeError(f"max_iter must be nonnegative, got {max_iter}")
    return max_iter


def seed_allocation(tau: ItemScores) -> Assignment:
    """Deal items into halves in the zigzag pattern g,h,h,g by descending score.

    Ties are broken by ascending item index, which makes the allocation
    deterministic.  For an odd item count the lowest-scored item (last in
    the deal order) is left out and recorded as ``dropped_item``.
    """
    scores = tau.as_ints()
    n = len(scores)
    if n < 2:
        raise TooSmall(f"need at least 2 items to split, got {n}")
    order = sorted(range(n), key=lambda j: (-scores[j], j))
    dropped = order.pop() if n % 2 else None
    g: list[int] = []
    h: list[int] = []
    for pos, j in enumerate(order):
        # pattern positions 0,3 mod 4 go to g; 1,2 mod 4 go to h
        (g if pos % 4 in (0, 3) else h).append(j)
    return Assignment(tuple(g), tuple(h), dropped)


def _resummed_s_with_swap(diffs: list[int], k: int) -> int:
    # Deliberately re-sums the whole difference column instead of taking
    # the S - 2*diffs[k] shortcut.  The quadratic candidate sweep is part
    # of this module's cost contract: refinement time grows with the
    # square of the row count and is independent of how many examinees
    # produced the totals.
    total = 0
    for r, d in enumerate(diffs):
        total += -d if r == k else d
    return total


def swap_refine(
    a: Assignment,
    tau: ItemScores,
    max_iter: int | None = None,
    *,
    policy: str = "single",
) -> SplitResult:
    """Greedy row-swap descent on ``abs_S``.

    Each iteration scores every row by re-summing the difference column
    with that row's swap applied, then commits the single swap giving the
    largest reduction (ties go to the lowest row index).  Stops when
    ``abs_S`` reaches 0, when no swap strictly reduces it, or after
    ``max_iter`` iterations (default ``10 * n``).

    ``policy="all"`` swaps every individually improving row at once per
    iteration; because simultaneous swaps can overshoot, a batch that
    fails to reduce ``abs_S`` is reverted and that iteration falls back
    to the single best swap.
    """
    if policy not in ("single", "all"):
        raise RangeError(f"unknown swap policy {policy!r}")
    scores = tau.as_ints()
    n = len(scores)
    _check_cover(a, n)
    limit = _resolve_max_iter(max_iter, n)

    g = list(a.g_items)
    h = list(a.h_items)
    m = len(g)
    diffs = [scores[gi] - scores[hi] for gi, hi in zip(g, h)]
    s = sum(diffs)
    history = [abs(s)]
    iterations = 0

    def apply_row(k: int) -> None:
        g[k], h[k] = h[k], g[k]
        diffs[k] = -diffs[k]

    while abs(s) > 0 and iterations < limit:
        current = abs(s)
        improving: list[tuple[int, int]] = []  # (row, abs_S after its lone swap)
        for k in range(m):
            cand = abs(_resummed_s_with_swap(diffs, k))
            if cand < current:
                improving.append((k, cand))
        if not improving:
            break

        if policy == "all":
            for k, _ in improving:
                apply_row(k)
            batched = sum(diffs)
            if abs(batched) < current:
                s = batched
                iterations += 1
                history.append(abs(s))
                continue
            # batch overshot: revert and fall through to the single best swap
            for k, _ in improving:
                apply_row(k)

        best_row = min(improving, key=lambda rc: (rc[1], rc[0]))[0]
        apply_row(best_row)
        s = sum(diffs)
        iterations += 1
        history.append(abs(s))

    final = Assignment(tuple(g), tuple(h), a.dropped_item)
    g_scores = [scores[j] for j in g]
    h_scores = [scores[j] for j in h]
    return SplitResult(final, g_scores, h_scores, iterations, history, "abs_S")


def product_refine(
    a: Assignment,
    tau: ItemScores,
    max_iter: int | None = None,
) -> SplitResult:
    """Cross-row swap descent on the product ``|S| * |S_sq|``.

    Evaluates swapping the g-item of any row with the h-item of any row
    (same row included); each candidate is scored incrementally in O(1)
    from the running sums.  The best strictly reducing pair is applied,
    ties broken by lowest (g-row, h-row).  Stops when the product hits 0,
    when a full sweep finds no reduction, or at ``max_iter``.
    """
    scores = tau.as_ints()
    n = len(scores)
    _check_cover(a, n)
    limit = _resolve_max_iter(max_iter, n)

    g = list(a.g_items)
    h = list(a.h_items)
    m = len(g)
    gs = [scores[j] for j in g]
    hs = [scores[j] for j in h]
    s = sum(gs) - sum(hs)
    s_sq = sum(v * v for v in gs) - sum(v * v for v in hs)
    prod = abs(s) * abs(s_sq)
    history = [prod]
    iterations = 0

    while prod > 0 and iterations < limit:
        best: tuple[int, int, int] | None = None  # (product, g-row, h-row)
        for i in range(m):
            va = gs[i]
            for j in range(m):
                vb = hs[j]
                if va == vb:
                    continue  # no-op swap
                cand_s = s - 2 * (va - vb)
                cand_sq = s_sq - 2 * (va * va - vb * vb)
                val = abs(cand_s) * abs(cand_sq)
                if val < prod and (best is None or val < best[0]):
                    best = (val, i, j)
        if best is None:
            break
        _, i, j = best
        va, vb = gs[i], hs[j]
        g[i], h[j] = h[j], g[i]
        gs[i], hs[j] = vb, va
        s -= 2 * (va - vb)
        s_sq -= 2 * (va * va - vb * vb)
        prod = abs(s) * abs(s_sq)
        iterations += 1
        history.append(prod)

    final = Assignment(tuple(g), tuple(h), a.dropped_item)
    return SplitResult(final, gs, hs, iterations, history, "product")


def split(
    m: ScoreMatrix,
    criterion: str = "abs_S",
    *,
    max_iter: int | None = None,
    policy: str = "single",
) -> SplitResult:
    """Full pipeline: item totals, seed allocation, refinement.

    ``criterion`` selects the refinement: ``"abs_S"`` (default) or
    ``"product"``.
    """
    if criterion not in ("abs_S", "product"):
        raise RangeError(f"unknown split criterion {criterion!r}")
    tau = item_totals(m)
    seed = seed_allocation(tau)
    if criterion == "product":
        return product_refine(seed, tau, max_iter)
    return swap_refine(seed, tau, max_iter, policy=policy)
