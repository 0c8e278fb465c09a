"""Benchmark of the cechcircle command line: Monte Carlo trials per second.

Run from the repository root:

    python3 perfbench/run.py --workload census_spike --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One closed-loop client calls ``cechcircle.cli.main`` with a user's argv, each
call starting when the previous one has returned, for ``--seconds``, and
checks every output.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records what is needed to replay the run.  The package is
run from ``src/`` through ``PYTHONPATH``; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed
from tracing import BOUNDARIES, Tracer, resolve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

GOLDEN_SEED = 0  # the default seed; every run also checks this seed against Workload.golden
MIN_CALLS = 3
MIN_TRACED_TRIALS = 1000  # so that a p99 over trials has at least ten samples above it
SETUP_REPEATS = 7
WARM_GAIN_NOTE = 1.5  # median call rate over the first call's above which stderr gets a note

# verify a1 --n 400 --t 0.2525 must report this closed-form expected chi.
A1_EXACT = 14.615387729298218

SETUP_CODE = (
    "import time, speed; s0 = speed.slowdown('loop'); t0 = time.perf_counter(); "
    "import numpy, cechcircle.cli; cechcircle.cli.build_parser(); "
    "t1 = time.perf_counter(); print(t1 - t0, (s0 + speed.slowdown('loop')) / 2)"
)

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Workload:
    command: tuple  # the user's argv before --trials, --seed and --threads
    trials: int     # per CLI call
    threads: int    # capped at the number of usable cores
    gauge: str      # the speed.GAUGES entry whose work resembles this workload's
    golden: str     # digest of the checked output fields at GOLDEN_SEED

    def argv(self, seed: int, trials: int, threads: int) -> list[str]:
        return [*self.command, "--trials", str(trials), "--seed", str(seed), "--threads", str(threads)]


# Why these three: see perfbench/README.md.
WORKLOADS = {
    "census_spike": Workload(
        ("census", "--n", "100", "--t", "0.25252525252525254"), 100, 2, "numpy", "5e1ebd3b75509daa"),
    "chi_dp": Workload(
        ("verify", "a1", "--n", "400", "--t", "0.2525"), 20, 1, "loop", "d6d42572ed3df503"),
    "census_tiny": Workload(
        ("census", "--n", "5", "--t", "0.2"), 2000, 1, "numpy", "cd5d62e620ecfe08"),
}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def check_output(argv: list[str], seed: int, trials: int, rc, out: str) -> str:
    """Check one CLI call; return the digest of its seed-determined result fields."""
    require(rc is not None, "the CLI raised")
    payload = json.loads(out)
    require(payload["trials"] == trials and payload["master_seed"] == seed, "trials or seed not echoed")
    if argv[0] == "census":
        require(rc == 0, f"exit code {rc}")
        require(payload["generator_id"] == importlib.import_module("cechcircle.montecarlo").GENERATOR_ID,
                "generator id")
        require(payload["chi_agreed"] == payload["chi_checked"] == trials,
                f"Euler cross-check {payload['chi_agreed']}/{payload['chi_checked']} of {trials}")
        require(sum(c["count"] for c in payload["counts"]) == trials, "counts do not sum to trials")
        return digest(payload["counts"])
    require(payload["theorem"] == "a1", "not an a1 report")
    require(math.isclose(payload["exact"], A1_EXACT, rel_tol=1e-12), f"closed form {payload['exact']}")
    require(math.isclose(payload["abs_delta"], abs(payload["empirical_mean"] - payload["exact"]),
                         rel_tol=1e-9, abs_tol=1e-12), "abs_delta")
    require(math.isclose(payload["tolerance"], 3 * payload["std_error"], rel_tol=1e-9), "tolerance")
    require(payload["passed"] == (payload["abs_delta"] <= payload["tolerance"]), "verdict")
    require(rc == (0 if payload["passed"] else 1), f"exit code {rc} for passed={payload['passed']}")
    if seed == GOLDEN_SEED:
        require(payload["passed"], "a1 failed at the golden seed")
    elif not payload["passed"]:
        # A 3-standard-error test misses on about 0.3% of seeds by design.
        print(f"note: verify a1 reports FAIL at seed {seed}", file=sys.stderr)
    return digest([payload["empirical_mean"], payload["std_error"]])


class Client:
    """One closed-loop client for one workload; tallies trials and failures.

    Every call with the run's seed must give the same result digest as the
    first one, whatever its worker count and whether it is traced.
    """

    def __init__(self, workload: Workload, seed: int, trials: int):
        self.workload, self.seed, self.trials = workload, seed, trials
        self.attempted = self.failed = 0
        self.reference: str | None = None
        self.raw_seconds: list[float] = []
        self.slowdowns: list[float] = []

    def call(self, argv: list[str], seed: int, tracer: Tracer | None = None) -> tuple[float, str | None]:
        cli = importlib.import_module("cechcircle.cli")
        trials = int(argv[argv.index("--trials") + 1])
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                err.write(traceback.format_exc())
                rc = None
            seconds = perf_counter() - start
        self.attempted += trials
        try:
            result = check_output(argv, seed, trials, rc, out.getvalue())
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            print(f"check failed: {' '.join(argv)}: {exc!r}\n{err.getvalue()}", file=sys.stderr)
            self.failed += trials
            return seconds, None
        return seconds, result

    def loop(self, threads: int, budget: float, min_trials: int = 0, tracer: Tracer | None = None) -> list[float]:
        """Call the CLI until `budget` seconds have passed; return each call's
        seconds at the reference CPU speed (see speed.py)."""
        argv = self.workload.argv(self.seed, self.trials, threads)
        times: list[float] = []
        start = perf_counter()
        before = speed.slowdown(self.workload.gauge)
        while len(times) < MIN_CALLS or len(times) * self.trials < min_trials or perf_counter() - start < budget:
            seconds, result = self.call(argv, self.seed, tracer)
            after = speed.slowdown(self.workload.gauge)
            slowdown = (before + after) / 2
            before = after
            self.slowdowns.append(slowdown)
            self.raw_seconds.append(seconds)
            times.append(seconds / slowdown)
            if result is None:
                continue
            self.reference = self.reference or result
            if result != self.reference:
                print(f"check failed: {' '.join(argv)}: digest {result} != {self.reference}", file=sys.stderr)
                self.failed += self.trials
        return times

    def golden(self, threads: int) -> float:
        """Check the output at the default seed against the committed digest;
        return that call's trials per second at the reference CPU speed."""
        argv = self.workload.argv(GOLDEN_SEED, self.workload.trials, threads)
        speed.slowdown(self.workload.gauge)  # a gauge's first run is slow (imports, caches)
        before = speed.slowdown(self.workload.gauge)
        seconds, result = self.call(argv, GOLDEN_SEED)
        slowdown = (before + speed.slowdown(self.workload.gauge)) / 2
        if result is not None and result != self.workload.golden:
            print(f"check failed: {' '.join(argv)}: digest {result} != golden {self.workload.golden}",
                  file=sys.stderr)
            self.failed += self.workload.trials
        return self.workload.trials * slowdown / seconds


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any worker it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024  # ru_maxrss is in KiB on Linux


def setup_seconds() -> list[float]:
    """Import time of numpy and cechcircle plus parser construction, in fresh
    interpreters with a warm bytecode cache kept inside the checkout, at the
    reference CPU speed."""
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT / 'perfbench'}",
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first one fills the cache
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        seconds, slowdown = map(float, done.stdout.split())
        times.append(seconds / slowdown)
    return times[1:]


def run(name: str, seed: int, seconds: float, trace: int, trials: int | None = None,
        min_traced_trials: int = MIN_TRACED_TRIALS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, replay record)."""
    workload = WORKLOADS[name]
    threads = min(workload.threads, NPROC)
    client = Client(workload, seed, trials or workload.trials)
    cold_rate = client.golden(threads)
    absent: list[str] = []
    calls: dict = {}
    if not trace:
        times = client.loop(threads, seconds)
        rss = peak_rss_mb()
        rates = [client.trials / s for s in times]
        calls = {"cold_call_trials_per_s": cold_rate, "first_call_trials_per_s": rates[0]}
        if statistics.median(rates) > WARM_GAIN_NOTE * rates[0]:
            print(f"note: median rate {statistics.median(rates):.6g}/s is more than {WARM_GAIN_NOTE}x "
                  f"the first call's {rates[0]:.6g}/s; a gain that lasts only across calls in one "
                  "process is not seen by a user's fresh process", file=sys.stderr)
        metrics = {
            "trials_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_seconds()),
            "peak_rss_mb": rss,
            "success_rate": 1 - client.failed / client.attempted,
        }
        units = END_TO_END_UNITS
    else:
        phases = 3 if threads > 1 else 2
        parallel = client.loop(threads, seconds / phases)
        serial = client.loop(1, seconds / phases) if threads > 1 else parallel
        untraced_calls = len(client.slowdowns)
        tracer = Tracer()
        tracer.install()
        try:
            traced = client.loop(1, seconds / phases, min_traced_trials, tracer)
        finally:
            tracer.remove()
        absent = tracer.absent
        scale = 1 / statistics.median(client.slowdowns[untraced_calls:])
        metrics = tracer.summary(len(traced), len(traced) * client.trials, scale)
        metrics["montecarlo.parallel_efficiency"] = (
            statistics.median(serial) / (threads * statistics.median(parallel)))
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(serial)
        units = {m: layer_unit(m) for m in metrics}
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = replay_record(workload, seed, client.trials, threads, absent)
    record.update(calls)
    record["raw_call_s_median"] = statistics.median(client.raw_seconds)
    record["gauge"] = workload.gauge
    record["slowdown_median"] = statistics.median(client.slowdowns)
    return result, record


def layer_unit(name: str) -> str:
    stem = name.removesuffix(".p50").removesuffix(".p99")
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), (".calls", "count")):
        if stem.endswith(suffix):
            return unit
    return "count" if ".path." in name else "ratio"


def replay_record(workload: Workload, seed: int, trials: int, threads: int, absent: list[str]) -> dict:
    import numpy
    import cechcircle

    return {
        "nproc": NPROC,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cechcircle": cechcircle.__version__,
        "git_sha": git_sha(),
        "generator_id": importlib.import_module("cechcircle.montecarlo").GENERATOR_ID,
        "seed": seed,
        "argv": workload.argv(seed, trials, threads),
        "golden_argv": workload.argv(GOLDEN_SEED, workload.trials, threads),
        "absent_boundaries": absent,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def smoke() -> int:
    """Every workload, untraced and traced, with a few trials each."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    originals = []
    for module_name, path, _ in BOUNDARIES:
        try:
            originals.append(resolve(module_name, path))
        except AttributeError:
            continue
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(name, seed=1, seconds=0, trace=trace, trials=10, min_traced_trials=0)
            want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            require(got == want, f"{name} trace={trace}: metrics {sorted(got)} != declared {sorted(want)}")
            require(all(METRIC_NAME.fullmatch(m) for m in got), f"bad metric name in {sorted(got)}")
            require(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    "non-numeric value")
            require(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result}")
            for owner, attr, raw in originals:
                require(inspect.getattr_static(owner, attr) is raw, f"{attr} still wrapped")
            print(f"smoke: {name} trace={trace} ok", file=sys.stderr)
    print("smoke: ok")
    return 0


def pin_environment():
    """Run against src/, with no worker count taken from the environment."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("CECHCIRCLE_THREADS", None)
    cli = importlib.import_module("cechcircle.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cechcircle imported from {cli.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly and check the output")
    args = parser.parse_args(argv)
    if not (SRC / "cechcircle" / "__init__.py").is_file():
        print(f"error: no cechcircle sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.smoke:
        try:
            return smoke()
        except CheckFailed as exc:
            print(f"smoke: FAILED: {exc}", file=sys.stderr)
            return 1
    if args.workload is None:
        parser.error("--workload is required")
    result, replay = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"replay": replay}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
