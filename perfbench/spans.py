"""In-memory span recorder for one traced splitrel CLI invocation.

Run as a script it replaces ``python -m splitrel.cli``:

    python perfbench/spans.py SPANS_OUT.json -- <splitrel arguments>

It wraps the toolkit's public functions at the names their callers reach
them through (``splitrel.cli.load_score_matrix``,
``splitrel.splitter.item_totals``, ``TrueScoreTable.to_dict``,
``splitrel.battery.jacobi_eigh`` as called from ``eigen_weights``, ...),
runs ``splitrel.cli.main`` once, and writes the spans and the exact
counts to SPANS_OUT.json when the run ends.  Nothing under ``src/`` is
changed; the wrappers live only in this process.

Each span is ``[layer, start, end, parent]``.  A layer's self time is the
duration of its spans minus the time covered by their child spans, so
the self times of all layers, including the root layer ``cli``, add up
to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

ROOT_LAYER = "cli"

# (module, attribute, layer).  A class attribute is written "Class.method".
# A name the toolkit no longer has stops the traced run with an error,
# so a renamed or moved function cannot turn its layer silently into 0.
WRAPS = (
    ("splitrel.cli", "load_score_matrix", "data_model.load"),
    ("splitrel.cli", "write_score_matrix", "data_model.write"),
    ("splitrel.cli", "descriptive_stats", "data_model.stats"),
    ("splitrel.splitter", "item_totals", "data_model.stats"),
    ("splitrel.cli", "split", "splitter.split"),
    ("splitrel.cli", "sub_test_scores", "reliability.sub_test_scores"),
    ("splitrel.cli", "classical_reliability", "reliability.report"),
    ("splitrel.cli", "true_score_geometry", "reliability.report"),
    ("splitrel.cli", "estimate_true_scores", "truescore.estimate"),
    ("splitrel.cli", "percentile_rank", "truescore.percentile"),
    ("splitrel.cli", "compare_estimators", "truescore.compare"),
    ("splitrel.truescore", "TrueScoreTable.to_dict", "truescore.to_dict"),
    ("splitrel.truescore", "EstimatorComparison.to_dict", "truescore.to_dict"),
    ("splitrel.cli", "generate", "simulate.generate"),
    ("splitrel.cli", "covariance_matrix", "battery.covariance"),
    ("splitrel.cli", "optimal_weights", "battery.weights"),
    ("splitrel.cli", "nonnegative_weights", "battery.weights"),
    ("splitrel.cli", "eigen_weights", "battery.weights"),
    ("splitrel.cli", "equal_weights", "battery.weights"),
    ("splitrel.battery", "jacobi_eigh", "battery.weights"),
    ("splitrel.cli", "weighted_reliability", "battery.reliability"),
)

# Exact counts recorded at the boundaries; they must repeat exactly.
COUNTS = (
    "data_model.cells_in",
    "data_model.bytes_in",
    "splitter.iterations",
    "splitter.candidates",
    "splitter.abs_S",
    "truescore.rows",
)


def split_counts(n_items: int, result, max_iter: int | None = None) -> dict:
    """Exact refinement counts of one ``split`` under the default swap policy.

    Each iteration sweeps every row of the allocation table once (the
    quadratic re-sum that acceptance criterion 6 pins), and a search that
    stops because no swap improves ``abs_S`` makes one more sweep.  The
    count follows from the returned ``SplitResult`` alone.
    """
    limit = 10 * n_items if max_iter is None else max_iter
    sweeps = result.iterations + (result.abs_S > 0 and result.iterations < limit)
    return {
        "splitter.iterations": result.iterations,
        "splitter.candidates": result.assignment.n_rows * sweeps,
        "splitter.abs_S": result.abs_S,
    }


class SpanRecorder:
    """Records nested spans and exact counts of one process, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.generate_peak_bytes = 0
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, after=None):
        """Return ``fn`` recording one span per call; ``after`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def install(self, patch=setattr) -> None:
        """Replace each function named in WRAPS by its traced wrapper.

        ``patch`` does the replacing; tests pass one that undoes it later.
        Raises AttributeError when a name is gone.
        """
        hooks = {
            "load_score_matrix": self._after_load,
            "split": self._after_split,
            "estimate_true_scores": self._after_estimate,
        }
        for module_name, attr, layer in WRAPS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except AttributeError:
                raise AttributeError(
                    f"{module_name}.{attr} is gone; update WRAPS in perfbench/spans.py"
                ) from None
            if layer == "simulate.generate":
                fn = _with_tracemalloc(fn, self)
            patch(owner, name, self.wrap(layer, fn, hooks.get(name)))

    def _after_load(self, args, kwargs, result) -> None:
        source = args[0] if args else kwargs["source"]
        if isinstance(source, (str, os.PathLike)):
            self.add("data_model.bytes_in", os.path.getsize(source))
        self.add("data_model.cells_in", result.n_examinees * result.n_items)

    def _after_split(self, args, kwargs, result) -> None:
        m = args[0] if args else kwargs["m"]
        for name, value in split_counts(m.n_items, result, kwargs.get("max_iter")).items():
            self.add(name, value)

    def _after_estimate(self, args, kwargs, result) -> None:
        self.add("truescore.rows", result.n_examinees)

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "generate_peak_bytes": self.generate_peak_bytes,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _with_tracemalloc(fn, recorder: SpanRecorder):
    """Run ``fn`` under tracemalloc and keep the largest traced peak.

    numpy reports its buffer allocations to tracemalloc, so the peak
    covers the uniform block the generator draws.
    """

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            recorder.generate_peak_bytes = max(recorder.generate_peak_bytes, peak)

    return measured


def self_times(spans) -> dict[str, float]:
    """Self time per layer: span durations minus the time their children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (layer, start, end, _), child in zip(spans, covered):
        out[layer] = out.get(layer, 0.0) + (end - start) - child
    return out


def root_seconds(spans) -> float:
    """Summed duration of the root spans (one per CLI invocation)."""
    return sum(end - start for _, start, end, parent in spans if parent is None)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS_OUT.json -- <splitrel arguments>", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    from splitrel import cli

    recorder = SpanRecorder()
    recorder.install()
    run = recorder.wrap(ROOT_LAYER, cli.main)
    try:
        code = run(cli_args)
    finally:
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
