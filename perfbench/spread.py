"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py [--seeds 1-10] [--sets 2] [--trace 0 1] [--out FILE]

Runs ``perfbench/run.py`` once per (trace mode, set, workload, seed), one
run at a time, for every workload and for ``run_seconds`` from
BENCHMARK.json.  For every metric it prints the unit, the median and the
quartile spread of each set, as ``statistics.quantiles(values, n=4)``
gives them, taken as a share of the median.  End-to-end metrics also
show their bound; a spread above a third of the bound is marked, and
with two sets the line shows how far the two medians are apart, in
either direction (larger over smaller, minus 1), marked when that is
over the bound.  ``--seeds 1 --trace 0 1``
prints every end-to-end metric and the per-layer table of every
workload.  ``--out`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "record": record}


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the distance between the quartiles as a share of it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def summarize(runs: list[dict], sets: int, bounds: dict) -> dict:
    """Print and return median and spread per metric, one row per workload."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        print(f"{workload}: {len(mine)} runs, {attempted} operations, {failed} failed")
        for metric, first in mine[0]["result"]["metrics"].items():
            rows = []
            for number in range(sets):
                values = [r["result"]["metrics"][metric]["value"] for r in mine if r["set"] == number]
                rows.append(spread(values) if len(values) > 1 else (values[0], 0.0))
            entry = {"unit": first["unit"], "median": [m for m, _ in rows],
                     "spread": [s for _, s in rows]}
            line = f"  {metric:30} {first['unit']:8} " + "  ".join(
                f"median {m:<12.6g} spread {s:.3f}" for m, s in rows)
            if metric in bounds:
                bound = bounds[metric]
                entry["bound"] = bound
                line += f"  bound {bound}"
                if any(s > bound / 3 for _, s in rows):
                    line += "  SPREAD>bound/3"
                if len(rows) > 1:
                    medians = [m for m, _ in rows]
                    apart = max(medians) / min(medians) - 1
                    entry["sets_apart_by"] = apart
                    line += f"  sets apart by {apart:.3f}" + ("  OVER BOUND" if apart > bound else "")
            summary.setdefault(workload, {})[metric] = entry
            print(line)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = []
    for trace in args.trace:
        for number in range(args.sets):
            for workload in (w["name"] for w in config["workloads"]):
                for seed in args.seeds:
                    run = run_once(workload, seed, config["run_seconds"], trace)
                    run.update(set=number, trace=trace)
                    runs.append(run)
                    res = run["result"]
                    print(f"trace {trace} set {number} {workload} seed {seed}: "
                          f"correct={res['correct']} attempted={res['attempted']} "
                          f"failed={res['failed']}", flush=True)

    summary = {}
    for trace in args.trace:
        print(f"--trace {trace}: " + ("per-layer metrics" if trace else "end-to-end metrics"))
        mine = [r for r in runs if r["trace"] == trace]
        summary[f"trace{trace}"] = summarize(mine, args.sets, bounds)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
