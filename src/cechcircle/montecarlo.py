"""Seeded, reproducible sampling experiments and the statistical
verification harness.

Every Monte Carlo quantity runs through one trial engine, `_tally`: trial i
draws n uniform points from an independent Philox stream keyed by
(master_seed, i), sorts them and counts their windows, and the engine
returns the multiset of per-sample outcomes.  Its one unit of work is a
block of trials of about BLOCK_POSITIONS (16 384) positions, large enough
that each numpy call costs more in work than in call overhead; the calling
process runs the blocks in order, or a process pool runs them all when the
call holds at least POOL_POSITIONS positions.  For n up to
PHILOX_KERNEL_MAX_N (32), `_philox_rows` runs Philox4x64-10 in numpy
integer arithmetic on every row of the block at once,
each of its four lanes a (counter block, row) array, so that every operand
is contiguous or broadcasts along the outer axis; for larger n, where that
costs more than it saves, one Philox generator per block is reset to each
trial's key from a state dict of Python ints.  Both give each row exactly
its trial's stream.  The rows are sorted together and counted by one
batched, exact `window_counts` call, so memory does not grow with the
number of trials.
An outcome reads the whole block of count rows and gives each row's result,
computed per block: the census runs it through the guard step
`classify._classified`, which for n up to `classify.DISTINCT_ROWS_MAX_N`
classifies and checks each distinct count row of the block once, and counts
each distinct type once, and the chi estimator runs the DP.  A repeated
position is one more vertex; nothing dedups it.  Results are therefore bit-identical regardless of execution
order, block size or worker count.
An estimate is a mean and its standard error, read from the tally of values
(value -> number of trials) without a list per trial.
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
from .classify import _classified
from .errors import DomainError, InternalInconsistencyError
from .exact import (
    allowed_types,
    coverage_probability,
    elder_c_bounds,
    expected_euler_char,
    omega,
    spike_center,
    theorem_b_params,
)
from .homotopy import HomotopyType

GENERATOR_ID = "numpy-philox4x64"
# `_tally` hands a call's blocks to a process pool from the first block when
# the call holds at least this many positions (trials x n) and p = min(workers,
# usable CPUs, blocks) > 1; smaller calls run serially.  Serial time over
# that of a pool of 2 started at the first block, on a 2-core Xeon VM at
# numpy 2.4, t = 0.2525, medians of 5 alternating calls, at 2^18 / 2^19 /
# 2^20 / 2^21 positions, in each of two runs:
#   census n = 5       0.70 0.80 1.71 1.62 | 1.34 1.51 1.56 2.05
#   census n = 100     1.16 1.32 1.57 1.43 | 1.07 1.43 1.48 1.55
#   census n = 400     0.89 1.45 1.76 1.44 | 0.94 1.16 1.31 1.65
#   census n = 1 000   1.04 1.11 1.38 1.73 | 1.15 1.13 2.01 2.22
#   census n = 10 000  1.17 1.55 1.93 1.79 | 0.93 1.32 1.45 1.83
#   a1     n = 5       1.12 1.50 1.63 1.94 | 1.23 1.39 1.79 1.97
#   a1     n = 100     0.76 1.33 1.56 1.75 | 1.07 1.28 1.75 1.80
#   a1     n = 400     0.82 1.02 1.45 1.66 | 0.78 1.16 1.70 1.65
#   a1     n = 1 000   1.03 1.41 1.61 1.55 | 0.96 1.30 1.23 1.85
#   a1     n = 10 000  0.91 1.25 1.25 1.65 | 0.84 1.07 1.22 1.49
# (census: the cross-checked census outcome; a1: `_eulers`).  2^20 is the
# smallest power of two at which the pool won every case.
POOL_POSITIONS = 2**20
# A block of trials holds about this many positions (rows = max(1, BLOCK_POSITIONS // n)).
# Every stage makes a fixed number of numpy calls per block, and a uint64
# ufunc costs about 2 µs on 1 600 elements and 6-7 µs on 13 000, so small
# blocks pay more in call overhead than in work.  Serial `_tally` at
# cross-checked census outcomes on a 2-core Xeon VM at numpy 2.4, medians of
# 11 alternating repeats in each of two runs, µs a trial, 4 096 -> 16 384
# positions: 2.98 -> 2.19 and 2.90 -> 2.11 at n = 5, 7.98 -> 5.44 and
# 7.14 -> 4.99 at n = 16, 114 -> 105 and 107 -> 103 at n = 400; at n = 40,
# 100, 1 000 and 4 000 the two sizes stayed within 10% of each other, one
# run ahead and the other behind (13.8 -> 13.6 and 10.4 -> 11.3 at n = 40).
# A 20-trial `verify a1` at n = 400, one block of 20 rows, can run
# about 4% slower than in two blocks, as glibc hands the block's freed heap
# back and the next call page-faults it in.
BLOCK_POSITIONS = 16384
# Blocks of n <= PHILOX_KERNEL_MAX_N (at least 512 rows) are drawn by
# `_philox_rows`, all rows at once; larger n reset a generator per row.  The
# kernel's cost is about fixed per block, so per row it grows with n, while
# the loop's stays near 2-3.5 µs, by the machine's load.  In blocks of
# 16 384 positions on the same VM, medians of 101 alternating pairs, µs a
# row, kernel against loop, in a slow and a fast phase: 2.47 / 3.16 and
# 1.69 / 1.81 at n = 24, 3.13 / 3.22 and 2.41 / 1.93 at n = 32, 3.75 / 3.48
# and 3.92 / 3.50 at n = 40.  Inside `_tally` at census outcomes, where
# the rows are then sorted and counted, the kernel won 29-41 of 41 pairs at
# n = 32 in each of four runs (7.65 / 7.63 to 10.24 / 11.45 µs a trial), and
# lost one run at n = 48 (9.47 / 9.26).  No n above 32 won in both phases.
PHILOX_KERNEL_MAX_N = 32

# Philox4x64-10 (Salmon et al., SC 2011) as numpy's Philox runs it: round
# multipliers and Weyl key increments, then the 32-bit limb mask and shift
# and the 11-bit shift that leaves a double's 53 bits.  Every kernel operand
# is a uint64 array, or a uint64 scalar beside one, so numpy wraps mod 2^64
# without a warning (scalar uint64 arithmetic warns) and never promotes to
# float64.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32, _32, _11 = np.uint64(2**32 - 1), np.uint64(32), np.uint64(11)


def _mulhi(m: np.uint64, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products m * x, from 32-bit limbs."""
    m_hi, m_lo = m >> _32, m & _LOW32
    x_hi, x_lo = x >> _32, x & _LOW32
    mid = ((m_lo * x_lo) >> _32) + m_lo * x_hi  # < 2^64
    return m_hi * x_hi + (mid >> _32) + (((mid & _LOW32) + m_hi * x_lo) >> _32)


def _philox_rows(master_seed: int, trial_indices: np.ndarray, n: int) -> np.ndarray:
    """Row j is the first n draws of numpy's Philox keyed [master_seed,
    trial_indices[j]], bit for bit (`trial_rng` in tests/reference.py).

    numpy's Philox bumps its counter before each block of four words, so a
    fresh stream's first n draws are the blocks at counters 1..ceil(n/4) under
    key [master_seed, i].  All rows and blocks run the 10 rounds together, each
    lane a (block, row) array; the lanes that depend on no row stay (1, 1) until
    a round mixes the key word k1 in.  A double is (word >> 11) * 2^-53.
    """
    k0, k1 = np.full((1, 1), master_seed, dtype=np.uint64), np.asarray(trial_indices, dtype=np.uint64)
    c0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for round_ in range(10):
        if round_:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        c0, c1, c2, c3 = (_mulhi(_PHILOX_M[1], c2) ^ c1 ^ k0, _PHILOX_M[1] * c2,
                          _mulhi(_PHILOX_M[0], c0) ^ c3 ^ k1, _PHILOX_M[0] * c0)
    words = np.stack([c0, c1, c2, c3], axis=1).reshape(4 * len(c0), len(k1))[:n]
    return np.multiply(words >> _11, 2.0**-53, out=np.empty((len(k1), n)).T).T  # C-contiguous rows


def _tally(outcome, n: int, t, trials: int, master_seed: int, workers: int) -> Counter:
    """Multiset of the results that outcome(block of window count rows at t)
    gives, one per row, over the samples of trials i < trials.

    An outcome returns what `Counter.update` takes: one result per row, or
    each result with its number of rows.  An InternalInconsistencyError
    with args (message, row) is raised again naming t and the row's
    positions.  The trials are cut from 0 into blocks of
    max(1, BLOCK_POSITIONS // n) rows.  With p = min(workers, usable CPUs,
    blocks) > 1 and trials * n >= POOL_POSITIONS, a pool of p processes
    runs every block, about 16 tasks a process; `outcome` must then be
    picklable.  Otherwise the calling process runs the blocks in order, so
    the pool and its size follow from (n, trials, workers, usable CPUs)
    alone.  Either way the error of the earliest failing block is raised,
    and `workers` never changes the result.  The usable CPUs are those this
    process may run on (its affinity mask, where the platform has one), not
    all the machine's.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > 2**24:  # one row of 2^24 points already peaks at about 1.3 GB
        raise DomainError(f"n must be <= 2^24, got {n}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if not 0 <= master_seed < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {master_seed}")
    run = partial(_tally_block, outcome, n, t, master_seed)
    rows = max(1, BLOCK_POSITIONS // n)
    starts = range(0, trials, rows)
    blocks = (range(lo, min(lo + rows, trials)) for lo in starts)
    affinity = getattr(os, "sched_getaffinity", None)
    processes = min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1, len(starts))
    counts: Counter = Counter()
    if processes > 1 and trials * n >= POOL_POSITIONS:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            for tally in pool.map(run, blocks, chunksize=-(-len(starts) // (16 * processes))):
                counts.update(tally)
    else:
        for block in blocks:
            counts.update(run(block))
    return counts


def _tally_block(outcome, n: int, t, master_seed: int, trials: range) -> Counter:
    """`_tally` over one block of trials, drawn, sorted and counted at once.

    Row i holds exactly the first n draws of numpy's Philox keyed
    [master_seed, i] (`trial_rng` in tests/reference.py).  With n at most
    PHILOX_KERNEL_MAX_N, `_philox_rows` draws the whole block at once.
    Otherwise one Philox generator serves the block and is reset before
    trial i to the state of that stream (key [master_seed, i], counter 0,
    empty buffer), given as Python ints, which the state setter reads faster
    than numpy arrays.
    """
    if n <= PHILOX_KERNEL_MAX_N:
        block = _philox_rows(master_seed, np.arange(trials.start, trials.stop, dtype=np.uint64), n)
    else:
        bit_generator = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
        generator = np.random.Generator(bit_generator)
        key = [master_seed, 0]
        fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        block = np.empty((len(trials), n))
        for i, row in zip(trials, block):
            key[1] = i
            bit_generator.state = fresh
            generator.random(out=row)
    block.sort(axis=1)
    try:
        return Counter(outcome(window_counts(block, t)))
    except InternalInconsistencyError as exc:
        message, row = exc.args
        positions = tuple(block[row].tolist())
        raise InternalInconsistencyError(f"{message} at t={t}, positions {positions}") from None


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean and its standard error."""

    mean: float
    std_error: float


def _weighted_sum(pairs) -> float:
    """sum(value * count) over (value, count) pairs, exact and rounded once.

    Each value, an int or a float, is p / d with d a power of two; the sum
    is one int over the largest d, and int division rounds correctly.  For
    floats and for ints below 2^53 this is the float that math.fsum gives
    over the values repeated count times, at the cost of one term a pair.
    """
    ratios = [(value.as_integer_ratio(), count) for value, count in pairs]
    den = max(d for (_, d), _ in ratios)
    return sum(p * (den // d) * count for (p, d), count in ratios) / den


def _mean_estimate(counts: Counter) -> Estimate:
    """Mean and standard error of the values of a tally (value -> count),
    the floats that `list_estimate` in tests/reference.py gives over the
    values of every trial."""
    n = counts.total()
    if n < 2:
        raise DomainError("need at least 2 trials")
    mean = _weighted_sum(counts.items()) / n
    var = _weighted_sum(((v - mean) ** 2, c) for v, c in counts.items()) / (n - 1)
    return Estimate(mean, math.sqrt(var / n))


def proportion_estimate(successes: int, trials: int) -> Estimate:
    if trials < 1:
        raise DomainError("need at least 1 trial")
    p = successes / trials
    return Estimate(p, math.sqrt(p * (1 - p) / trials))


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

@dataclass
class Census:
    """Homotopy-type frequency table with full replay metadata."""

    generator_id = GENERATOR_ID  # a class attribute: every census draws the same streams
    n: int
    t: float
    trials: int
    master_seed: int
    counts: dict[HomotopyType, int]
    chi_checked: int    # trials cross-checked against the exact Euler DP: all or none
    elapsed: float

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
            "chi_agreed": self.chi_checked,  # a disagreement raises
            "metadata": {"elapsed": self.elapsed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


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

    Every sample is classified, so the counts sum to `trials`.  The first
    sample whose type the constraint set rejects or, with `cross_check`,
    whose Euler characteristic is not the gap DP's raises.  The result is
    independent of `workers` and of scheduling.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    started = time.perf_counter()
    outcome = partial(_classified, allowed=allowed_types(n, t), cross_check=cross_check)
    counts = _tally(outcome, n, t, trials, master_seed, workers)
    return Census(
        n=n,
        t=float(t),
        trials=trials,
        master_seed=master_seed,
        counts=dict(counts),
        chi_checked=trials if cross_check else 0,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def estimate_chi(n: int, t: float, trials: int, master_seed: int, workers: int = 1) -> Estimate:
    """Monte Carlo mean of the per-sample exact Euler characteristic.

    Deliberately uses the gap DP rather than the classifier, so the two
    sampling pipelines share only the window counts.  A t that is not a
    finite number > 0 raises before any trial.
    """
    if not 0 < t < math.inf:  # nan fails too
        raise DomainError("t must be > 0" if t <= 0 else f"t must be finite, got {t}")
    if trials < 2:
        raise DomainError("trials must be >= 2")
    return _mean_estimate(_tally(_eulers, n, t, trials, master_seed, workers))


def _eulers(counts: np.ndarray) -> list[int]:
    """The gap DP's Euler characteristic of each row of a block of window counts."""
    return _eulers_from_counts(counts).tolist()


def estimate_betti(
    n: int, t: float, dim: int, trials: int, master_seed: int, workers: int = 1,
) -> Estimate:
    """Monte Carlo mean of the classifier-derived Betti number in one degree,
    read from the census of the same samples."""
    if dim < 0:
        raise DomainError(f"dim must be >= 0, got {dim}")
    if trials < 2:
        raise DomainError("trials must be >= 2")
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    tally: Counter = Counter()
    for ht, count in census.counts.items():
        betti = ht.betti()
        tally[betti[dim] if dim < len(betti) else 0] += count
    return _mean_estimate(tally)


def estimate_B(census: Census, k: int, delta: float) -> Estimate:
    """Proportion of census trials landing in the aggregated even-wedge event:
    type wedge^a(S^(2k-2)) with delta*n/k <= a+1 <= n/k, for delta in (0, 1)."""
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0,1)")
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
    return proportion_estimate(hits, census.trials)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    theorem: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"theorem": self.theorem, "passed": self.passed, **self.details}
        return json.dumps(payload, indent=2, sort_keys=True)


def verify_theorem_a1(n: int, t: float, trials: int, master_seed: int, workers: int = 1) -> VerifyReport:
    """Empirical chi-bar against the closed form, at 3 standard errors."""
    est = estimate_chi(n, t, trials, master_seed, workers)
    exact = expected_euler_char(n, t)
    delta = abs(est.mean - exact)
    passed = delta <= 3 * est.std_error
    return VerifyReport("a1", passed, {
        "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "empirical_mean": est.mean, "std_error": est.std_error,
        "exact": exact, "abs_delta": delta, "tolerance": 3 * est.std_error,
    })


def _spike_t(theorem: str, k: int, n: int) -> float:
    """The centre t = n(k-1)/(2k(n-1)) of the k-th Euler spike
    (`spike_center`), where `verify a2` and `verify c` sample; there
    1 - 2t = (n-k)/((n-1)k), so t lies in k's band, floor(1 / (1 - 2t)) = k,
    iff n > k^2."""
    if k < 2:
        raise DomainError("k must be >= 2")
    if not n > k * k:
        raise DomainError(f"verify {theorem} needs n > k^2, so that its t = n(k-1)/(2k(n-1)) "
                          f"lies in k's band; got n={n}, k={k}")
    return spike_center(k, n)


def verify_theorem_a2(
    k: int, n: int, trials: int, master_seed: int, margin: float = 0.05, workers: int = 1,
) -> VerifyReport:
    """Sandwich: chi/n - margin <= b_(2k-2)/n <= chi/n with exact chi, at the
    spike centre (`_spike_t`).  b_(2k-2) sits about one per sample below chi,
    so for n * margin <= 1 the lower side would test that offset, not the
    theorem; such a call is refused."""
    t = _spike_t("a2", k, n)
    if not 0 <= margin < math.inf:  # nan fails too
        raise DomainError(f"margin must be >= 0 and finite, got {margin}")
    if n * margin <= 1:
        raise DomainError(f"verify a2 needs n > 1/margin, as b_(2k-2) sits about one per sample below "
                          f"chi; got n={n}, margin={margin}, 1/margin={1 / margin if margin else math.inf}")
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
    """Frequency f of S^(2k+1) against the coverage bound Q_n(r'/2).

    For k >= 1 the check is one-sided, f >= bound - 3 standard errors: the
    theorem bounds the frequency from below only.  At k = 0 every allowed t
    is below 1/4, where a sample is S^1 exactly when its arcs of length 2t
    cover the circle, so f estimates `exact` = Q_n(2t), and the check is
    two-sided at alpha = 1e-3: |z| <= 3.29 for z = (f - Q) / sqrt(Q (1 - Q)
    / trials).  Where Q (1 - Q) is 0 in floats, z is None and f must equal Q.
    """
    params = theorem_b_params(k)
    if not abs(t - params.nu_k) < params.tau_k:
        raise DomainError(
            f"t={t} outside the open interval around nu_{k}={params.nu_k}"
        )
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    est = proportion_estimate(census.counts.get(HomotopyType.odd_sphere(k), 0), trials)
    r_prime = params.r_prime(t)
    bound = coverage_probability(n, r_prime)  # Q_n(r'/2) has arc length r'
    details = {
        "k": k, "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "frequency": est.mean, "std_error": est.std_error,
        "bound": bound, "r_prime": r_prime, "check": "one-sided",
    }
    if k:
        passed = est.mean >= bound - 3 * est.std_error
    else:
        exact = coverage_probability(n, 2 * t)
        variance = exact * (1 - exact)
        if variance:
            z = (est.mean - exact) / math.sqrt(variance / trials)
            passed = abs(z) <= NormalDist().inv_cdf(1 - 1e-3 / 2)
        else:
            z, passed = None, est.mean == exact
        details.update(check="two-sided", exact=exact, z=z)
    return VerifyReport("b", passed, details)


def verify_theorem_elder_c(
    k: int, n: int, trials: int, master_seed: int,
    delta: float | None = None, slack: float = 0.1, workers: int = 1,
) -> VerifyReport:
    """Empirical B_{k,delta} inside the analytic window, with statistical slack.

    Runs at the window center, the spike centre t = n(k-1)/(2k(n-1))
    (`_spike_t`).  The published Theorem C center n(k+1)/(2k(n-1)) exceeds
    1/2, so the value consistent with the B_{k,delta} window is used.
    """
    t = _spike_t("c", k, n)
    if not 0 <= slack < math.inf:  # nan fails too
        raise DomainError(f"slack must be >= 0 and finite, got {slack}")
    if delta is None:
        delta = k * omega(k) / 2
    beta_lower, beta_upper = elder_c_bounds(k, delta)
    census = run_census(n, t, trials, master_seed, workers=workers, cross_check=False)
    est = estimate_B(census, k, delta)
    lo = beta_lower - slack
    hi = min(1.0, beta_upper + slack)
    passed = lo <= est.mean <= hi
    return VerifyReport("c", passed, {
        "k": k, "n": n, "t": t, "trials": trials, "master_seed": master_seed,
        "delta": delta, "slack": slack,
        "B_empirical": est.mean, "std_error": est.std_error,
        "beta_lower": beta_lower, "beta_upper": beta_upper,
        "window": [lo, hi],
    })
