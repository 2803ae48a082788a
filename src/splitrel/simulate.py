"""Synthetic score matrices from four simple Bernoulli designs.

Each design draws one probability parameter per examinee or per item,
then fills the matrix with independent Bernoulli trials:

  D1  per-examinee ability p_i ~ Uniform[0, 1]
  D2  per-item passing rate p_j ~ Uniform[0, 1]
  D3  per-examinee ability p_i ~ Normal(0.5, 0.2), clamped to [0, 1]
  D4  per-item passing rate p_j ~ Normal(0.5, 0.2), clamped to [0, 1]

Per-examinee designs make people differ, so total scores spread out and
reliability is high; per-item designs give everyone the same success
profile, so total-score variance is binomial noise and reliability sits
near zero.

Determinism contract: the generator is PCG64 seeded directly with the
model seed, all probability parameters are drawn first, then the
uniforms behind the Bernoulli entries are drawn in row-major order.
They are drawn in blocks of whole rows, which PCG64 fills from the same
stream as one N x n block, so memory stays bounded by the block size.
Refactors must preserve that draw order or identical seeds would stop
reproducing identical matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data_model import ScoreMatrix
from .errors import RangeError, TooSmall

__all__ = ["SimModel", "GENERATOR_ID", "generate"]

GENERATOR_ID = "numpy-pcg64"

_KINDS = ("D1", "D2", "D3", "D4")
_NORMAL_KINDS = ("D3", "D4")
_PER_EXAMINEE = ("D1", "D3")

# uniforms drawn per block of rows: 2**20 cells is 8 MiB of float64
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class SimModel:
    """One fully specified simulation: design, matrix size, seed."""

    kind: str
    N: int
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise RangeError(f"unknown simulation design {self.kind!r}")
        for name in ("N", "n", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise RangeError(f"{name} must be an integer, got {value!r}") from None
        if self.N < 2 or self.n < 2:
            raise TooSmall(f"need N >= 2 and n >= 2, got {self.N} x {self.n}")
        if self.N * self.n > np.iinfo(np.intp).max:
            raise RangeError(f"a {self.N} x {self.n} matrix has too many cells to index")
        if 8 * max(self.N, self.n) > np.iinfo(np.intp).max:
            # the float64 parameter draw needs 8 bytes per examinee or item
            raise RangeError(f"a {self.N} x {self.n} matrix needs too large a parameter draw")
        if not 0 <= self.seed < 2**64:
            raise RangeError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def metadata(self) -> dict:
        return {**vars(self), "generator": GENERATOR_ID}


def generate(model: SimModel) -> ScoreMatrix:
    """Draw one score matrix under the model."""
    rng = np.random.Generator(np.random.PCG64(model.seed))
    count = model.N if model.kind in _PER_EXAMINEE else model.n
    if model.kind in _NORMAL_KINDS:
        p = np.clip(rng.normal(0.5, 0.2, size=count), 0.0, 1.0)
    else:
        p = rng.random(count)
    shaped = p[:, None] if model.kind in _PER_EXAMINEE else p[None, :]
    shaped = np.broadcast_to(shaped, (model.N, model.n))
    entries = np.empty((model.N, model.n), dtype=np.int8)
    step = max(1, _CHUNK_CELLS // model.n)
    for start in range(0, model.N, step):
        rows = slice(start, start + step)
        entries[rows] = rng.random(shaped[rows].shape) < shaped[rows]
    return ScoreMatrix(entries)
