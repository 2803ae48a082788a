"""Whole-CLI benchmark of splitrel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports and runs the
toolkit from ``src/`` and nowhere else, and keeps its inputs and outputs
in ``.perfbench_work/``.

One client, closed loop: a pass runs the workload's CLI invocations one
after another, each in a fresh ``python -m splitrel.cli`` subprocess,
and the next pass starts when the previous one has ended.  Passes repeat
until ``--seconds`` have gone by.  Inputs are generated from ``--seed``
during set-up, which is not timed.  Every invocation is one operation:
it fails on a non-zero exit, on output whose sha256 differs from the
first pass, or on key numbers that differ from an in-process reference.

``--trace 0`` prints the end-to-end metrics: the median pass wall time,
matrix cells per second, the median over passes of the largest peak RSS
of one invocation (``os.wait4``), and the median wall time of
``splitrel --version`` in a fresh process, run twice before each pass
(interpreter start plus ``import splitrel``).  ``--trace 1`` alternates untraced passes with
traced ones, which run each invocation under ``spans.py``, and prints
the per-layer self times and exact counts of the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
VERSIONS_PER_PASS = 2

# per-layer time metric -> span layer whose self time it reports
LAYER_TIMES = {
    "data_model.load_s": "data_model.load",
    "data_model.write_s": "data_model.write",
    "data_model.stats_s": "data_model.stats",
    "splitter.split_s": "splitter.split",
    "reliability.sub_test_scores_s": "reliability.sub_test_scores",
    "reliability.report_s": "reliability.report",
    "truescore.estimate_s": "truescore.estimate",
    "truescore.percentile_s": "truescore.percentile",
    "truescore.compare_s": "truescore.compare",
    "truescore.to_dict_s": "truescore.to_dict",
    "simulate.generate_s": "simulate.generate",
    "battery.covariance_s": "battery.covariance",
    "battery.weights_s": "battery.weights",
    "battery.reliability_s": "battery.reliability",
    "cli.self_s": "cli",
}

END_TO_END_UNITS = {"wall_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **dict.fromkeys(LAYER_TIMES, "s"),
    "data_model.load_ns_per_cell": "ns",
    "data_model.bytes_in": "bytes",
    "splitter.iterations": "count",
    "splitter.candidates": "count",
    "splitter.abs_S": "score",
    "truescore.rows": "count",
    "simulate.generate_peak_mb": "MiB",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    wall: float
    peak_rss_kib: int
    report_bytes: int
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    generate_peak_bytes: int = 0


class Runner:
    """Spawns CLI invocations and keeps the operation tally of one run."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts: dict[int, tuple[str, str | None]] = {}  # invocation -> (digest, error)

    def spawn(self, argv: list[str], tag: str) -> tuple[int, float, int]:
        """Run one child to completion; returns exit code, wall seconds, peak RSS in KiB."""
        with open(self.work / f"{tag}.out", "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def version_wall(self, version: str) -> float:
        """Wall time of ``splitrel --version`` in a fresh process."""
        self.attempted += 1
        code, wall, _ = self.spawn([sys.executable, "-m", "splitrel.cli", "--version"], "version")
        printed = (self.work / "version.out").read_text(encoding="utf-8", errors="replace")
        if code != 0 or printed != f"splitrel {version}\n":
            self.fail(f"--version exited {code} and printed {printed!r}")
        return wall

    def run_pass(self, plan, traced: bool) -> Pass:
        for index, inv in enumerate(plan.invocations):
            for path in (*inv.outputs, self.work / f"spans-{index}.json"):
                Path(path).unlink(missing_ok=True)
        results = []
        start = time.perf_counter()
        for index, inv in enumerate(plan.invocations):
            if traced:
                spans_out = self.work / f"spans-{index}.json"
                argv = [sys.executable, str(HERE / "spans.py"), str(spans_out), "--"]
            else:
                argv = [sys.executable, "-m", "splitrel.cli"]
            results.append(self.spawn(argv + inv.args, f"invocation-{index}"))
        wall = time.perf_counter() - start

        done = Pass(wall=wall, peak_rss_kib=max(r[2] for r in results), report_bytes=0)
        for index, (inv, (code, _, _)) in enumerate(zip(plan.invocations, results)):
            self.attempted += 1
            error = self._verify(index, inv, code)
            if error is not None:
                self.fail(f"{'traced ' if traced else ''}{inv.args[0]} #{index}: {error}")
            elif traced:
                self._add_spans(done, self.work / f"spans-{index}.json")
            report = Path(inv.report)
            done.report_bytes += report.stat().st_size if report.exists() else 0
        return done

    def _verify(self, index: int, inv, code: int) -> str | None:
        if code != 0:
            tail = (self.work / f"invocation-{index}.err").read_text(errors="replace")[-500:]
            return f"exit code {code}: {tail.strip()}"
        try:
            blobs = [Path(p).read_bytes() for p in inv.outputs]
        except FileNotFoundError as exc:
            return f"missing output {exc.filename}"
        digest = hashlib.sha256(b"".join(hashlib.sha256(b).digest() for b in blobs)).hexdigest()
        if index not in self.verdicts:
            self.verdicts[index] = (digest, inv.verify(blobs))
        first, error = self.verdicts[index]
        if digest != first:
            return f"output sha256 {digest[:12]} differs from the first pass's {first[:12]}"
        return error

    @staticmethod
    def _add_spans(done: Pass, path: Path) -> None:
        record = json.loads(path.read_text(encoding="utf-8"))
        for layer, seconds in self_times(record["spans"]).items():
            done.layers[layer] = done.layers.get(layer, 0.0) + seconds
        for name, value in record["counts"].items():
            done.counts[name] = done.counts.get(name, 0) + value
        done.generate_peak_bytes = max(done.generate_peak_bytes, record["generate_peak_bytes"])


def measure(runner: Runner, plan, version: str, seconds: float, trace: bool):
    """Rounds of passes for ``seconds``; traced passes alternate in when asked.

    A round that would likely end after the deadline is not started,
    except the first.  The machine's speed drifts over tens of seconds,
    so the ``--version`` runs behind ``setup_s`` are spread over the
    rounds rather than bunched at the start.
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    versions: list[float] = []
    start = time.perf_counter()
    while True:
        versions += [runner.version_wall(version) for _ in range(VERSIONS_PER_PASS)]
        untraced.append(runner.run_pass(plan, traced=False))
        if trace:
            traced.append(runner.run_pass(plan, traced=True))
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced, versions


def end_to_end(plan, untraced: list[Pass], setup_s: float) -> dict[str, float]:
    wall = statistics.median(p.wall for p in untraced)
    return {
        "wall_s": wall,
        "cells_per_s": plan.cells / wall,
        "peak_rss_mb": statistics.median(p.peak_rss_kib for p in untraced) / 1024,
        "setup_s": setup_s,
    }


def per_layer(runner: Runner, plan, untraced: list[Pass], traced: list[Pass]) -> dict:
    """Medians over traced passes; exact counts must match the reference in every pass."""
    for number, p in enumerate(traced):
        drift = {k: (p.counts.get(k), v) for k, v in plan.counts.items() if p.counts.get(k) != v}
        if drift:
            runner.fail(f"traced pass {number}: exact counts (got, reference) drifted: {drift}")
    counts = traced[0].counts
    metrics = {
        name: statistics.median(p.layers.get(layer, 0.0) for p in traced)
        for name, layer in LAYER_TIMES.items()
    }
    cells_in = counts.get("data_model.cells_in", 0)
    metrics["data_model.load_ns_per_cell"] = (
        metrics["data_model.load_s"] / cells_in * 1e9 if cells_in else 0.0
    )
    for name in ("data_model.bytes_in", "splitter.iterations", "splitter.candidates",
                 "splitter.abs_S", "truescore.rows"):
        metrics[name] = counts.get(name, 0)
    metrics["simulate.generate_peak_mb"] = (
        statistics.median(p.generate_peak_bytes for p in traced) / 2**20
    )
    metrics["cli.report_bytes"] = statistics.median(p.report_bytes for p in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
    )
    return metrics


def machine_record() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "caches": caches,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the examinee counts; smoke tests only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitrel" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {SRC / 'splitrel'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import splitrel

    if Path(splitrel.__file__).resolve().parent != SRC / "splitrel":
        print(f"error: imported splitrel from {splitrel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    build = WORKLOADS[args.workload]
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in config["workloads"] if w["name"] == args.workload)
    started = time.perf_counter()
    plan = build(WORK, args.seed, args.scale)
    input_setup_s = time.perf_counter() - started
    runner = Runner(WORK)
    untraced, traced, versions = measure(
        runner, plan, splitrel.__version__, args.seconds, bool(args.trace)
    )

    if args.trace:
        metrics = per_layer(runner, plan, untraced, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(plan, untraced, statistics.median(versions))
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "cells_per_pass": plan.cells,
        "input_bytes": plan.bytes_in,
        "input_setup_s": input_setup_s,
        "output_bytes": sum(os.path.getsize(p) for inv in plan.invocations
                            for p in inv.outputs if os.path.exists(p)),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_walls": [p.wall for p in untraced],
        "failures": runner.failures[:20],
    }
    print("record " + json.dumps(record))
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{runner.attempted} operations, {len(runner.failures)} failed")
    for name, value in metrics.items():
        print(f"{name:32} {value:>16.6g} {units[name]}")
    for message in runner.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
