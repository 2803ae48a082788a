"""Tests of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from splitrel import cli  # noqa: E402

SCALE = 0.01
# Self times are differences of the same perf_counter readings, so they
# add up to the root spans up to float rounding.
SELF_TIME_TOLERANCE_S = 1e-9


def run_in_process(plan, main=cli.main) -> list[list[str]]:
    """Run one pass in this process; returns the digests of every written file."""
    digests = []
    for inv in plan.invocations:
        assert main(list(inv.args)) == 0
        digests.append([hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inv.outputs])
    return digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_writes_the_same_reports_and_self_times_add_up(name, tmp_path, monkeypatch):
    plan = workloads.WORKLOADS[name](tmp_path, 7, SCALE)
    untraced = run_in_process(plan)
    for inv in plan.invocations:
        assert inv.verify([Path(p).read_bytes() for p in inv.outputs]) is None

    recorder = spans.SpanRecorder()
    recorder.install(patch=monkeypatch.setattr)
    traced = run_in_process(plan, recorder.wrap(spans.ROOT_LAYER, cli.main))

    assert traced == untraced
    assert recorder.counts == plan.counts
    layers = spans.self_times(recorder.spans)
    assert min(layers.values()) > -SELF_TIME_TOLERANCE_S
    root = spans.root_seconds(recorder.spans)
    assert abs(sum(layers.values()) - root) <= SELF_TIME_TOLERANCE_S
    assert sum(parent is None for *_, parent in recorder.spans) == len(plan.invocations)


def test_a_wrapped_name_that_is_gone_stops_the_traced_run(monkeypatch):
    monkeypatch.delattr(cli, "load_score_matrix")
    with pytest.raises(AttributeError, match="splitrel.cli.load_score_matrix is gone"):
        spans.SpanRecorder().install(patch=monkeypatch.setattr)


def in_process_runner(work: Path, corrupt=None) -> bench.Runner:
    """A runner whose invocations run in this process; ``corrupt`` edits their output."""
    runner = bench.Runner(work)

    def spawn(argv, tag):
        code = cli.main(argv[3:])
        if corrupt is not None:
            corrupt()
        return code, 0.01, 1024

    runner.spawn = spawn
    return runner


def test_truncated_report_is_a_failed_operation(tmp_path):
    plan = workloads.reliability_wide(tmp_path, 3, SCALE)
    report = Path(plan.invocations[0].report)
    runner = in_process_runner(tmp_path)
    runner.run_pass(plan, traced=False)
    assert (runner.attempted, runner.failures) == (1, [])

    def truncate():
        report.write_bytes(report.read_bytes()[:100])

    runner.spawn = in_process_runner(tmp_path, truncate).spawn
    runner.run_pass(plan, traced=False)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "differs from the first pass" in runner.failures[0]

    fresh = in_process_runner(tmp_path, truncate)
    fresh.run_pass(plan, traced=False)
    assert len(fresh.failures) == 1 and "unreadable report" in fresh.failures[0]


def test_altered_digest_and_key_numbers_are_failed_operations(tmp_path):
    plan = workloads.simulate_battery(tmp_path, 5, SCALE)
    sidecar = Path(plan.invocations[0].report)
    battery = Path(plan.invocations[-1].report)

    def alter():
        if sidecar.exists():
            meta = json.loads(sidecar.read_text())
            meta["report"]["matrix_sha256"] = "0" * 64
            sidecar.write_text(json.dumps(meta))
        if battery.exists():
            body = json.loads(battery.read_text())
            body["report"]["battery"]["r_battery"] += 1e-6
            battery.write_text(json.dumps(body))

    runner = in_process_runner(tmp_path, alter)
    runner.run_pass(plan, traced=False)
    assert runner.attempted == len(plan.invocations)
    assert len(runner.failures) == 2
    assert "matrix_sha256" in runner.failures[0]
    assert "r_battery" in runner.failures[1]


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    plan = workloads.truescore_tall(tmp_path, 1, SCALE)
    plan.invocations[0].args[plan.invocations[0].args.index("--input") + 1] = str(tmp_path / "absent.csv")
    (tmp_path / "invocation-0.err").write_text("error[FileNotFoundError]: absent.csv\n")
    runner = in_process_runner(tmp_path)
    runner.run_pass(plan, traced=False)
    assert len(runner.failures) == 1 and "exit code 1" in runner.failures[0]


def test_count_drift_is_a_failure(tmp_path):
    plan = workloads.Plan([], cells=1, bytes_in=1, counts={"splitter.iterations": 3})
    same = bench.Pass(wall=1.0, peak_rss_kib=1, report_bytes=1, counts={"splitter.iterations": 3})
    drifted = bench.Pass(wall=1.0, peak_rss_kib=1, report_bytes=1, counts={"splitter.iterations": 4})
    runner = bench.Runner(tmp_path)
    metrics = bench.per_layer(runner, plan, [same], [same, drifted])
    assert metrics["splitter.iterations"] == 3
    assert len(runner.failures) == 1 and "drifted" in runner.failures[0]


def benchmark_result(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize(
    "workload, trace, kind",
    [("simulate-battery", "1", "per_layer"), ("truescore-tall", "0", "end_to_end")],
)
def test_smoke_pass_prints_every_metric(workload, trace, kind):
    proc = benchmark_result("--workload", workload, "--seed", "11", "--seconds", "0",
                            "--trace", trace, "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in config[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = benchmark_result("--workload", "reliability-wide", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
