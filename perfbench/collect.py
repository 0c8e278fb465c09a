"""Repeat benchmark runs over seeds and summarise each metric's median and spread.

Run from the repository root, for example:

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload in BENCHMARK.json this makes ten untraced and three traced
runs of ``perfbench/run.py``, each of BENCHMARK.json's ``run_seconds`` and in a
fresh interpreter, one after another, with seeds first_seed, first_seed+1, ...
The spread of a metric is the
distance between its first and third quartile (``statistics.quantiles`` with
n=4) as a share of its median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10        # untraced runs per workload, enough for a quartile spread
TRACED_RUNS = 3  # traced runs per workload


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
        "values": values,
    }


def bench_runs(workload: str, seeds: range, seconds: int, trace: int) -> tuple[dict, dict, list[float]]:
    """Run the benchmark once per seed; return (metric summaries, last replay record, run walls)."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    replay: dict = {}
    walls = []
    for seed in seeds:
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        walls.append(perf_counter() - start)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
        replay = json.loads(lines[-2])["replay"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result\n{done.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} trace={trace} seed={seed}: {walls[-1]:.1f} s "
              + " ".join(f"{m}={v[-1]:.6g}" for m, v in values.items() if trace == 0), file=sys.stderr)
    summary = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
    return summary, replay, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary JSON here instead of stdout")
    args = parser.parse_args(argv)

    seconds = benchmark["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry = {}
        for trace, runs in ((0, RUNS), (1, TRACED_RUNS)):
            seeds = range(args.first_seed, args.first_seed + runs)
            summary, replay, walls = bench_runs(workload, seeds, seconds, trace)
            entry["per_layer" if trace else "end_to_end"] = summary
            entry["replay"] = {**replay, "seeds": [seeds.start, seeds.stop - 1]}
            entry[f"run_wall_s_trace{trace}"] = summarise(walls)
        report["workloads"][workload] = entry
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for workload, entry in report["workloads"].items():
        for name, s in entry.get("end_to_end", {}).items():
            print(f"{workload:13s} {name:13s} median={s['median']:.6g} spread={s['spread']:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
