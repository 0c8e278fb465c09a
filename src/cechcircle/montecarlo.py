"""Seeded, reproducible sampling experiments and the statistical
verification harness.

Every Monte Carlo quantity runs through one trial engine, `_tally`: trial i
draws n uniform points from an independent Philox stream keyed by
(master_seed, i), sorts them and counts their windows, and the engine
returns the multiset of per-sample outcomes.  The engine works a chunk of
trials at a time: one Philox generator per chunk is reset to each trial's
key, the rows are drawn into a block of about BLOCK_POSITIONS positions,
sorted together and counted by one batched, exact `window_counts` call, so
memory does not grow with the number of trials.  An outcome reads the whole
block of count rows and gives each row's result, computed per block: the
census classifies the block, checks it against the block Euler DP and
counts each distinct type once, the chi estimator runs the DP, and
coverage is "no empty window".  A repeated position is one more vertex;
nothing dedups it.  Results are therefore bit-identical regardless of
execution order, block size or worker count.  Proportions get Wilson
intervals, means get normal intervals; 99% confidence by default.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist

import numpy as np

from .circle import _eulers_from_counts, window_counts
from .classify import types_from_counts
from .errors import DomainError, InternalInconsistencyError
from .exact import (
    allowed_types,
    coverage_probability,
    elder_c_bounds,
    expected_euler_char,
    omega,
    theorem_b_params,
)
from .homotopy import HomotopyType

GENERATOR_ID = "numpy-philox4x64"
DEFAULT_CONFIDENCE = 0.99
# `_tally` starts a process pool only once the calling process has spent this
# many seconds on the trials and at least as long again is left.  On a
# 2-vCPU VM a pool of two costs about 13 ms and 4 000 page faults a call, and
# ties the call's time to the load on the second core: a 100-trial census at
# n = 100 (about 20 ms) ran no faster with it, and its time varied more.  The
# absolute wait keeps one stalled early chunk from starting a pool.
POOL_AFTER_S = 0.1
# A block of trials holds about this many positions (rows = max(1, BLOCK_POSITIONS // n)).
BLOCK_POSITIONS = 4096


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial; counter-based, order-free.

    master_seed and trial are the two 64-bit words of the Philox key, so each
    must lie in [0, 2^64); `_tally` checks the seed before any trial runs.
    """
    key = np.array([master_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _tally(outcome, n: int, t, trials: int, master_seed: int, workers: int, *args) -> Counter:
    """Multiset of the results that outcome(block of window count rows at t,
    *args) gives, one per row, over the samples of trials i < trials.

    An outcome returns what `Counter.update` takes: one result per row, or
    each result with its number of rows.  An InternalInconsistencyError
    with args (message, row) is raised again naming t and the row's
    positions.  With p = min(workers, trials, CPUs) > 1 the trials are cut
    into about 16 contiguous chunks per process, rounded up to whole blocks,
    which the calling process runs in order.  Once it has run for
    POOL_AFTER_S with at least as long left at its pace so far, at most p
    processes take the chunks left; `outcome` and `args` must then be
    picklable.  Shorter calls never start a pool.  Either way the error of
    the earliest failing chunk is raised, and `workers` never changes the
    result.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if not 0 <= master_seed < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {master_seed}")
    run = partial(_tally_chunk, outcome, n, t, master_seed, args)
    processes = min(workers, trials, os.cpu_count() or 1)
    if processes <= 1:
        return run(range(trials))
    rows = max(1, BLOCK_POSITIONS // n)
    size = rows * -(-trials // (16 * processes * rows))  # whole blocks
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    counts: Counter = Counter()
    start = time.perf_counter()
    for done, chunk in enumerate(chunks):
        elapsed = time.perf_counter() - start
        if done and elapsed > POOL_AFTER_S and elapsed / done * (len(chunks) - done) > POOL_AFTER_S:
            break
        counts.update(run(chunk))
    else:
        return counts
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(processes, len(chunks) - done)) as pool:
        for chunk in pool.map(run, chunks[done:]):
            counts.update(chunk)
    return counts


def _tally_chunk(outcome, n: int, t, master_seed: int, args: tuple, trials: range) -> Counter:
    """`_tally` over one contiguous range of trials, a block of rows at a time.

    One Philox generator serves the whole chunk: before trial i it is reset
    to the state of `trial_rng(master_seed, i)` (key [master_seed, i],
    counter 0, empty buffer), so row i holds exactly that stream's first n
    draws.  A block holds about BLOCK_POSITIONS positions.
    """
    bit_generator = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    key = fresh["state"]["key"]
    rows = max(1, BLOCK_POSITIONS // n)
    tally: Counter = Counter()
    for lo in range(trials.start, trials.stop, rows):
        block = np.empty((min(rows, trials.stop - lo), n))
        for i, row in enumerate(block, lo):
            key[1] = i
            bit_generator.state = fresh
            generator.random(out=row)
        block.sort(axis=1)
        try:
            tally.update(outcome(window_counts(block, t), *args))
        except InternalInconsistencyError as exc:
            message, row = exc.args
            positions = tuple(block[row].tolist())
            raise InternalInconsistencyError(f"{message} at t={t}, positions {positions}") from None
    return tally


def _z(confidence: float) -> float:
    return NormalDist().inv_cdf(0.5 + confidence / 2)


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    method: str  # "normal" for means, "wilson" for proportions
    trials: int
    confidence: float = DEFAULT_CONFIDENCE


def _normal_estimate(values, confidence=DEFAULT_CONFIDENCE) -> EstimateWithCI:
    n = len(values)
    if n < 2:
        raise DomainError("need at least 2 trials")
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    se = math.sqrt(var / n)
    z = _z(confidence)
    return EstimateWithCI(mean, se, mean - z * se, mean + z * se, "normal", n, confidence)


def wilson_estimate(successes: int, trials: int, confidence=DEFAULT_CONFIDENCE) -> EstimateWithCI:
    if trials < 1:
        raise DomainError("need at least 1 trial")
    p = successes / trials
    se = math.sqrt(p * (1 - p) / trials)
    z = _z(confidence)
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = min(p, max(0.0, center - half))
    hi = max(p, min(1.0, center + half))
    return EstimateWithCI(p, se, lo, hi, "wilson", trials, confidence)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

@dataclass
class Census:
    """Homotopy-type frequency table with full replay metadata."""

    n: int
    t: float
    trials: int
    master_seed: int
    generator_id: str
    counts: dict[HomotopyType, int]
    chi_checked: int    # trials cross-checked against the exact Euler DP: all or none
    chi_agreed: int     # equals chi_checked, since a disagreement raises
    elapsed: float

    def frequency(self, ht: HomotopyType) -> float:
        return self.counts.get(ht.canonical(), 0) / self.trials

    def to_json_dict(self) -> dict:
        counts = [
            {"type": ht.to_json(), "count": c}
            for ht, c in sorted(self.counts.items(), key=lambda kv: kv[0].sort_key())
        ]
        return {
            "n": self.n,
            "t": self.t,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "generator_id": self.generator_id,
            "counts": counts,
            "chi_checked": self.chi_checked,
            "chi_agreed": self.chi_agreed,
            "metadata": {"elapsed": self.elapsed},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _classified(counts: np.ndarray, cross_check: bool) -> dict[HomotopyType, int]:
    """The homotopy types of a block of window count rows, each with its
    number of rows.  With `cross_check`, the first row whose type's Euler
    characteristic is not the gap DP's raises
    InternalInconsistencyError(message, row)."""
    types, index = types_from_counts(counts)
    if cross_check:
        chi = np.array([ht.euler_characteristic() for ht in types])[index]
        wrong = np.flatnonzero(chi != _eulers_from_counts(counts))
        if len(wrong):
            ht, row = types[index[wrong[0]]], int(wrong[0])
            raise InternalInconsistencyError(f"Euler cross-check failed for {ht.display()}", row)
    return dict(zip(types, np.bincount(index).tolist()))


def run_census(
    n: int,
    t: float,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    cross_check: bool = True,
) -> Census:
    """Classify `trials` independent samples and tally homotopy types.

    Every sample is classified, so the counts sum to `trials`.  With
    `cross_check`, every sample's Euler characteristic is checked against
    the gap DP, and the first disagreement raises.  The result is
    independent of `workers` and of scheduling.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    started = time.perf_counter()
    allowed = allowed_types(n, t)
    counts = _tally(_classified, n, t, trials, master_seed, workers, cross_check)
    for ht in counts:
        if not allowed.allows(ht):
            raise InternalInconsistencyError(
                f"census key {ht.display()} outside the constraint set"
            )
    checked = trials if cross_check else 0
    return Census(
        n=n,
        t=float(t),
        trials=trials,
        master_seed=master_seed,
        generator_id=GENERATOR_ID,
        counts=dict(counts),
        chi_checked=checked,
        chi_agreed=checked,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def estimate_chi(n: int, t: float, trials: int, master_seed: int, workers: int = 1) -> EstimateWithCI:
    """Monte Carlo mean of the per-sample exact Euler characteristic.

    Deliberately uses the gap DP rather than the classifier, so the two
    sampling pipelines share only the window counts.
    """
    if trials < 2:
        raise DomainError("trials must be >= 2")
    counts = _tally(_eulers, n, t, trials, master_seed, workers)
    return _normal_estimate(list(counts.elements()))


def _eulers(counts: np.ndarray) -> list[int]:
    """The gap DP's Euler characteristic of each row of a block of window counts."""
    return _eulers_from_counts(counts).tolist()


def estimate_betti(
    n: int, t: float, dim: int, trials: int, master_seed: int, workers: int = 1,
) -> EstimateWithCI:
    """Monte Carlo mean of the classifier-derived Betti number in one degree,
    read from the census of the same samples."""
    if trials < 2:
        raise DomainError("trials must be >= 2")
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    values = []
    for ht, count in census.counts.items():
        betti = ht.betti()
        values += [betti[dim] if dim < len(betti) else 0] * count
    return _normal_estimate(values)


def _covers(counts: np.ndarray, radius: float):
    """Per row of window counts (a bool for one row), whether the closed arcs
    of the radius cover the circle: iff no window of length 2 * radius is
    empty, or if 2 * radius >= 1, though a lone point's window is empty."""
    return (counts.all(-1) | (2 * radius >= 1)).tolist()


def estimate_coverage(n: int, radius: float, trials: int, master_seed: int) -> EstimateWithCI:
    if trials < 2:
        raise DomainError("trials must be >= 2")
    if radius <= 0:
        raise DomainError("radius must be > 0")
    counts = _tally(_covers, n, radius, trials, master_seed, 1, radius)
    return wilson_estimate(counts[True], trials)


def estimate_B(census: Census, k: int, delta: float) -> EstimateWithCI:
    """Proportion of census trials landing in the aggregated even-wedge event:
    type wedge^a(S^(2k-2)) with delta*n/k <= a+1 <= n/k."""
    if census.trials < 1:
        raise DomainError("census is empty")
    expected_k = allowed_types(census.n, census.t).k
    if k != expected_k:
        raise DomainError(f"k={k} does not match census t (k should be {expected_k})")
    lo = delta * census.n / k
    hi = census.n / k
    hits = 0
    for ht, count in census.counts.items():
        if ht.kind != "even":
            continue
        if ht.l != k - 1 and ht.a != 0:  # a point counts as the a=0 wedge
            continue
        if lo <= ht.a + 1 <= hi:
            hits += count
    return wilson_estimate(hits, census.trials)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    theorem: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {"theorem": self.theorem, "passed": self.passed, **self.details}
        return json.dumps(payload, indent=indent, sort_keys=True)


def verify_theorem_a1(n: int, t: float, trials: int, master_seed: int, workers: int = 1) -> VerifyReport:
    """Empirical chi-bar against the closed form, at 3 standard errors."""
    est = estimate_chi(n, t, trials, master_seed, workers)
    exact = expected_euler_char(n, t)
    delta = abs(est.mean - exact)
    passed = delta <= 3 * est.std_error or delta == 0
    return VerifyReport("a1", passed, {
        "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "empirical_mean": est.mean, "std_error": est.std_error,
        "exact": exact, "abs_delta": delta, "tolerance": 3 * est.std_error,
    })


def verify_theorem_a2(
    k: int, n: int, trials: int, master_seed: int,
    t: float | None = None, margin: float = 0.05, workers: int = 1,
) -> VerifyReport:
    """Sandwich: chi/n - margin <= b_(2k-2)/n <= chi/n with exact chi."""
    if k < 2:
        raise DomainError("k must be >= 2")
    if n < 2:
        raise DomainError("n must be >= 2")
    if t is None:
        if not n > k:
            raise DomainError(f"verify a2 needs n > k without --t, so that its default "
                              f"t = n(k-1)/(2k(n-1)) lies below 1/2; got n={n}, k={k}")
        t = (k - 1) * n / (2 * (n - 1) * k)  # spike center
    chi_norm = expected_euler_char(n, t) / n
    est = estimate_betti(n, t, 2 * k - 2, trials, master_seed, workers)
    b_norm = est.mean / n
    passed = chi_norm - margin <= b_norm <= chi_norm
    return VerifyReport("a2", passed, {
        "k": k, "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "chi_normalized": chi_norm, "betti_normalized": b_norm,
        "margin": margin, "std_error": est.std_error / n,
    })


def verify_theorem_b(
    k: int, n: int, t: float, trials: int, master_seed: int, workers: int = 1,
) -> VerifyReport:
    """Frequency of S^(2k+1) against the coverage bound Q_n(r'/2)."""
    params = theorem_b_params(k)
    if not abs(t - params.nu_k) < params.tau_k:
        raise DomainError(
            f"t={t} outside the open interval around nu_{k}={params.nu_k}"
        )
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    est = wilson_estimate(census.counts.get(HomotopyType.odd_sphere(k), 0), trials)
    r_prime = params.r_prime(t)
    bound = coverage_probability(n, r_prime)  # Q_n(r'/2) has arc length r'
    passed = est.mean >= bound - 3 * est.std_error
    return VerifyReport("b", passed, {
        "k": k, "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "frequency": est.mean, "std_error": est.std_error,
        "bound": bound, "r_prime": r_prime,
    })


def verify_theorem_elder_c(
    k: int, n: int, trials: int, master_seed: int,
    delta: float | None = None, epsilon: float = 0.1, slack: float = 0.1,
    workers: int = 1,
) -> VerifyReport:
    """Empirical B_{k,delta} inside the analytic window, with statistical slack.

    Runs at the window center t = (1 - (n-k)/((n-1)k))/2, i.e. at
    t = n(k-1)/(2k(n-1)).  The published Theorem C center n(k+1)/(2k(n-1))
    exceeds 1/2, so the value consistent with the B_{k,delta} window is used.
    That t lies in k's band, floor(1 / (1 - 2t)) = k, iff n > k^2.
    """
    if delta is None:
        delta = k * omega(k) / 2
    bounds = elder_c_bounds(k, n, delta, epsilon)
    if not n > k * k:
        raise DomainError(
            f"verify c needs n > k^2, so that its t = n(k-1)/(2k(n-1)) lies in "
            f"k's band; got n={n}, k={k}"
        )
    rho_center = (n - k) / ((n - 1) * k)
    t = (1 - rho_center) / 2
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    est = estimate_B(census, k, delta)
    lo = bounds.beta[0] - slack
    hi = min(1.0, bounds.beta[1] + slack)
    passed = lo <= est.mean <= hi
    return VerifyReport("c", passed, {
        "k": k, "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "delta": delta, "epsilon": epsilon, "slack": slack,
        "B_empirical": est.mean, "std_error": est.std_error,
        "beta_lower": bounds.beta[0], "beta_upper": bounds.beta[1],
        "window": [lo, hi],
    })
