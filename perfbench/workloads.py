"""The benchmark's workloads: inputs made from a seed, the CLI invocations
of one pass, and the in-process reference every report is checked against.

Each workload turns ``(work_dir, seed, scale)`` into a ``Plan``.  Inputs
are simulated with the toolkit's public generator and written as CSV by
numpy here, so set-up stays cheap; the reference numbers come from the
public API run on the same matrices in this process.  ``scale`` shrinks
the examinee counts for the smoke tests; the benchmark runs at 1.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from splitrel import (
    BatteryInput,
    ComponentTest,
    ExamineeScores,
    SimModel,
    classical_reliability,
    covariance_matrix,
    descriptive_stats,
    eigen_weights,
    generate,
    split,
    sub_test_scores,
    weighted_reliability,
)
from spans import split_counts


class BadReport(Exception):
    """A report that is unreadable or disagrees with the reference."""


@dataclass
class Invocation:
    """One CLI run: its arguments, the files it writes and how to check them."""

    args: list[str]
    outputs: tuple[str, ...]  # every file it writes, digested together
    report: str  # the JSON report among ``outputs``
    check: Callable[[list[bytes]], None]  # raises BadReport

    def verify(self, blobs: list[bytes]) -> str | None:
        """Why the written files are wrong, or None when they pass the check."""
        try:
            self.check(blobs)
        except (BadReport, KeyError, TypeError, IndexError) as exc:
            return f"report check failed: {type(exc).__name__}: {exc}"
        return None


@dataclass
class Plan:
    """One pass of a workload and what the pass must reproduce."""

    invocations: list[Invocation]
    cells: int  # matrix cells the pass reads or writes
    bytes_in: int  # CSV bytes the pass reads
    counts: dict[str, int] = field(default_factory=dict)  # exact counts of a traced pass


def child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def csv_bytes(entries: np.ndarray) -> bytes:
    """The bytes ``write_score_matrix`` produces for a 0/1 matrix."""
    rows, cols = entries.shape
    buf = np.empty((rows, 2 * cols), dtype=np.uint8)
    buf[:, 0::2] = entries + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    return buf.tobytes()


def load_json(data: bytes) -> dict:
    try:
        return json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadReport(f"unreadable report: {exc}") from None


def expect(name: str, got, want) -> None:
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    else:
        ok = got == want
    if not ok:
        raise BadReport(f"{name} is {got!r}, reference {want!r}")


def _analyze(m):
    """The CLI's pipeline through the public API: split, halves, stats, report."""
    result = split(m)
    scores = sub_test_scores(m, result.assignment)
    reduced_n = m.n_items - (result.assignment.dropped_item is not None)
    stats = descriptive_stats(ExamineeScores(scores.combined()), reduced_n)
    return result, scores, stats, classical_reliability(scores, stats)


def _one_matrix(work: Path, name: str, seed: int, n_examinees: int, n_items: int):
    (child,) = child_seeds(seed, 1)
    m = generate(SimModel("D3", n_examinees, n_items, child))
    data = csv_bytes(m.entries)
    path = work / f"{name}.csv"
    path.write_bytes(data)
    return m, data, path


def _counts(m, result, bytes_in: int, rows: int = 0) -> dict[str, int]:
    return {
        "data_model.cells_in": m.n_examinees * m.n_items,
        "data_model.bytes_in": bytes_in,
        **split_counts(m.n_items, result),
        "truescore.rows": rows,
    }


def reliability_wide(work: Path, seed: int, scale: float) -> Plan:
    n_examinees = max(20, round(20000 * scale))
    m, data, path = _one_matrix(work, "reliability-wide", seed, n_examinees, 401)
    result, _, stats, rep = _analyze(m)
    out = str(work / "reliability-wide.json")

    def check(blobs: list[bytes]) -> None:
        body = load_json(blobs[0])["report"]
        expect("r_tt", body["reliability"]["r_tt"], rep.r_tt)
        expect("abs_S", body["split"]["abs_S"], result.abs_S)
        expect("N", body["stats"]["full"]["N"], stats.N)
        expect("n", body["stats"]["full"]["n"], stats.n)

    args = ["reliability", "--input", str(path), "--bin-width", "5", "--output", out]
    return Plan(
        [Invocation(args, (out,), out, check)],
        cells=m.n_examinees * m.n_items,
        bytes_in=len(data),
        counts=_counts(m, result, len(data)),
    )


def truescore_tall(work: Path, seed: int, scale: float) -> Plan:
    n_examinees = max(20, round(50000 * scale))
    m, data, path = _one_matrix(work, "truescore-tall", seed, n_examinees, 50)
    result, _, _, rep = _analyze(m)
    out = str(work / "truescore-tall.json")

    def check(blobs: list[bytes]) -> None:
        table = load_json(blobs[0])["report"]["table"]
        expect("beta1", table["beta1"], rep.r_tt)
        expect("rows", len(table["rows"]), m.n_examinees)

    args = ["truescore", "--input", str(path), "--percentile-of", "30", "--output", out]
    return Plan(
        [Invocation(args, (out,), out, check)],
        cells=m.n_examinees * m.n_items,
        bytes_in=len(data),
        counts=_counts(m, result, len(data), rows=m.n_examinees),
    )


_BATTERY_TESTS = (("D1", 40), ("D3", 61), ("D1", 80), ("D3", 120))


def simulate_battery(work: Path, seed: int, scale: float) -> Plan:
    n_examinees = max(20, round(20000 * scale))
    invocations = []
    components = []
    counts: dict[str, int] = {}
    cells = bytes_in = 0
    for index, ((kind, n_items), child) in enumerate(
        zip(_BATTERY_TESTS, child_seeds(seed, len(_BATTERY_TESTS)))
    ):
        m = generate(SimModel(kind, n_examinees, n_items, child))
        data = csv_bytes(m.entries)
        digest = hashlib.sha256(data).hexdigest()
        path = str(work / f"simulate-battery-{index}.csv")
        sidecar = path + ".meta.json"

        def check(blobs, digest=digest, kind=kind, n_items=n_items, child=child):
            written = hashlib.sha256(blobs[0]).hexdigest()
            meta = load_json(blobs[1])["report"]
            expect("matrix_sha256", meta["matrix_sha256"], written)
            expect("matrix digest", written, digest)
            expect("model", [meta["kind"], meta["N"], meta["n"], meta["seed"]],
                   [kind, n_examinees, n_items, child])

        args = ["simulate", "--model", kind, "--N", str(n_examinees), "--n", str(n_items),
                "--seed", str(child), "--output", path]
        invocations.append(Invocation(args, (path, sidecar), sidecar, check))

        result, scores, stats, rep = _analyze(m)
        components.append(
            ComponentTest(ExamineeScores(scores.combined()), stats.variance, rep.r_tt, path)
        )
        for name, value in _counts(m, result, len(data)).items():
            counts[name] = counts.get(name, 0) + value
        cells += 2 * m.n_examinees * m.n_items  # written by simulate, read by battery
        bytes_in += len(data)

    battery = BatteryInput(tuple(components))
    d = covariance_matrix(battery)
    weights = eigen_weights(d, "corr_scaled")
    ref = weighted_reliability(battery, d, weights)
    out = str(work / "simulate-battery.json")

    def check_battery(blobs: list[bytes]) -> None:
        body = load_json(blobs[0])["report"]["battery"]
        expect("r_battery", body["r_battery"], ref.r_battery)
        expect("weight count", len(body["weights"]["w"]), len(weights.w))
        for i, (got, want) in enumerate(zip(body["weights"]["w"], weights.w)):
            expect(f"w[{i}]", got, want)

    paths = [c.name for c in components]
    args = ["battery", "--inputs", *paths, "--weights", "eigen-corr", "--output", out]
    invocations.append(Invocation(args, (out,), out, check_battery))
    return Plan(invocations, cells=cells, bytes_in=bytes_in, counts=counts)


# name -> plan builder; BENCHMARK.json says why each workload was chosen
WORKLOADS: dict[str, Callable[[Path, int, float], Plan]] = {
    "reliability-wide": reliability_wide,
    "truescore-tall": truescore_tall,
    "simulate-battery": simulate_battery,
}
