"""Seeded censuses, estimators (a mean and its standard error, read from the
tally), and the statistical verification harness."""
import functools
import importlib
import math
from collections import Counter
from fractions import Fraction
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cechcircle import (
    Census, DomainError, HomotopyType, coverage_probability, estimate_B, estimate_betti, estimate_chi,
    expected_euler_char, omega, run_census, verify_theorem_a1, verify_theorem_a2, verify_theorem_b,
    verify_theorem_elder_c,
)
from cechcircle.montecarlo import GENERATOR_ID, PHILOX_KERNEL_MAX_N, Estimate, _mean_estimate

from reference import estimate_coverage, list_estimate, trial_rng


def _census_key_dict(census):
    return {k: v for k, v in census.counts.items()}


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def test_census_determinism_and_workers():
    a = run_census(12, 0.2, 200, master_seed=9)
    b = run_census(12, 0.2, 200, master_seed=9)
    c = run_census(12, 0.2, 200, master_seed=9, workers=2)
    assert _census_key_dict(a) == _census_key_dict(b) == _census_key_dict(c)
    assert a.chi_checked == 200
    assert a.generator_id == GENERATOR_ID
    da, dc = a.to_json_dict(), c.to_json_dict()
    da.pop("metadata"), dc.pop("metadata")
    assert da == dc


def test_census_two_points():
    census = run_census(2, 0.1, 20000, master_seed=100)
    # P(edge) = 4t = 0.4: connected (point) vs two components (S^0)
    freq_edge = census.counts.get(HomotopyType.point(), 0) / census.trials
    freq_split = census.counts.get(HomotopyType.wedge_even(1, 0), 0) / census.trials
    assert abs(freq_edge - 0.4) < 0.02
    assert abs(freq_split - 0.6) < 0.02
    assert freq_edge + freq_split == 1.0


def test_census_contractible_regime():
    census = run_census(5, 0.49, 100, master_seed=2)
    assert census.counts == {HomotopyType.point(): 100}


def test_census_constraint_keys_k2():
    census = run_census(50, 0.2525, 300, master_seed=3)
    assert census.chi_checked == 300
    assert sum(census.counts.values()) == 300


def test_census_cross_check_raises_at_the_disagreeing_sample(monkeypatch):
    from cechcircle import InternalInconsistencyError

    guard = importlib.import_module("cechcircle.classify")
    monkeypatch.setattr(guard, "_eulers_from_counts", lambda c: np.full(len(c), -1))
    with pytest.raises(InternalInconsistencyError, match=r"t=0\.2, positions \(0\."):
        run_census(6, 0.2, 5, master_seed=1)
    assert run_census(6, 0.2, 5, master_seed=1, cross_check=False).chi_checked == 0


def test_census_constraint_check_stops_at_the_first_block(monkeypatch):
    from cechcircle import AllowedTypes, InternalInconsistencyError, montecarlo

    allows = AllowedTypes.allows
    monkeypatch.setattr(AllowedTypes, "allows",
                        lambda self, ht: allows(self, ht) and not (ht.kind == "even" and ht.l == 1 and ht.a >= 3))
    rows = []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: rows.append(len(xs)) or count(xs, t))
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4096)  # blocks of 136 rows
    with pytest.raises(InternalInconsistencyError, match=r"outside the constraint set .* at t=0\.26, positions \("):
        run_census(30, 0.26, 400, 11)
    assert rows == [4096 // 30]  # the first block of 136 samples, not all 400


def test_constraint_check_names_the_earliest_trial_of_a_repeated_type(monkeypatch):
    # at n = 5 <= DISTINCT_ROWS_MAX_N the engine hands the guard step each
    # distinct count row once, in order of first appearance; S^1 takes about
    # a third of these trials, in dozens of distinct rows, and its row of
    # least key first occurs after its first trial, so an order by key would
    # name a later trial than the first, which the error must name
    from cechcircle import AllowedTypes, InternalInconsistencyError, PointConfig, classify
    from cechcircle.circle import window_counts
    from cechcircle.montecarlo import DISTINCT_ROWS_MAX_N

    n, t, trials, seed = 5, 0.2, 400, 0
    assert n <= DISTINCT_ROWS_MAX_N
    s1 = HomotopyType.odd_sphere(0)
    samples = [np.sort(trial_rng(seed, i).random(n)) for i in range(trials)]
    hits = [i for i, xs in enumerate(samples) if classify(PointConfig(xs.tolist()), t) == s1]
    keys = [int(window_counts(samples[i], t) @ n ** np.arange(n)) for i in hits]
    assert len(hits) > 100 and hits[keys.index(min(keys))] > hits[0]
    allows = AllowedTypes.allows
    monkeypatch.setattr(AllowedTypes, "allows", lambda self, ht: ht != s1 and allows(self, ht))
    with pytest.raises(InternalInconsistencyError) as err:
        run_census(n, t, trials, seed)
    assert str(err.value) == (f"classified type S^1 outside the constraint set for n={n} "
                              f"at t={t}, positions {tuple(samples[hits[0]].tolist())}")


def _in_process_pool(started, mapped=None):
    """A stand-in for ProcessPoolExecutor that records its size, and in
    `mapped` the blocks it is given, and runs them in this process."""

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks, chunksize):
            blocks = list(blocks)
            if mapped is not None:
                mapped.extend(blocks)
            return map(fn, blocks)

    return InProcessPool


def test_tally_starts_at_most_one_process_per_block_and_cpu(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 10 blocks
    serial = run_census(6, 0.2, 10, master_seed=4).counts
    assert run_census(6, 0.2, 10, master_seed=4, workers=2).counts == serial
    assert started == []  # 60 positions, far under POOL_POSITIONS: no pool
    monkeypatch.setattr(montecarlo, "POOL_POSITIONS", 60)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for usable, workers in (({0}, 64), ({0, 1, 2}, 2), ({0, 1, 2}, 64)):  # as under taskset
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        assert run_census(6, 0.2, 10, master_seed=4, workers=workers).counts == serial
    assert started == [2, 3]  # one usable CPU of 8: no pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity mask: all CPUs
    for cpus, workers in ((3, 2), (3, 64), (None, 64)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_census(6, 0.2, 10, master_seed=4, workers=workers).counts == serial
    assert started == [2, 3, 2, 3]
    with pytest.raises(DomainError, match=r"^workers must be >= 1, got 0$"):
        run_census(6, 0.2, 10, master_seed=4, workers=0)


def test_tally_starts_no_pool_for_one_stalled_block(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    now = [0.0]
    block = montecarlo._tally_block

    def first_block_stalls(*args):  # 1 s, then 0.1 ms a block
        now[0] += 1.0 if now[0] == 0 else 1e-4
        return block(*args)

    started = []
    monkeypatch.setattr(montecarlo.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(montecarlo, "_tally_block", first_block_stalls)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 60 blocks
    run_census(6, 0.2, 60, master_seed=1, workers=2)
    assert started == []  # 360 positions, under POOL_POSITIONS: the stall has no say


def test_tally_pools_every_block_by_the_call_size_alone(monkeypatch):
    # no clock is read: whether a pool starts, and its size, follow from
    # (n, trials, workers, usable CPUs)
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    started, mapped = [], []
    monkeypatch.setattr(montecarlo.time, "perf_counter", lambda: pytest.fail("a clock was read"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started, mapped))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4 * 6)  # 4-row blocks: 10 trials in 3 blocks
    serial = montecarlo._tally(montecarlo._eulers, 6, 0.2, 10, 4, workers=1)
    monkeypatch.setattr(montecarlo, "POOL_POSITIONS", 6 * 10 + 1)  # one position more than the call
    assert montecarlo._tally(montecarlo._eulers, 6, 0.2, 10, 4, workers=8) == serial
    assert started == mapped == []
    monkeypatch.setattr(montecarlo, "POOL_POSITIONS", 6 * 10)
    for workers in (2, 8):
        assert montecarlo._tally(montecarlo._eulers, 6, 0.2, 10, 4, workers=workers) == serial
    assert started == [2, 3]  # min(workers, 4 CPUs, 3 blocks)
    assert mapped == [range(0, 4), range(4, 8), range(8, 10)] * 2  # every block, block 0 included


def test_tally_in_a_pool_matches_serial(monkeypatch):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "POOL_POSITIONS", 200 * 12)  # a real pool runs every block
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4 * 12)  # 4-row blocks: 50 blocks
    assert run_census(12, 0.2, 200, master_seed=9, workers=2).counts == \
        run_census(12, 0.2, 200, master_seed=9).counts


def test_tally_raises_the_serial_error_in_a_pool(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import InternalInconsistencyError, montecarlo

    guard = importlib.import_module("cechcircle.classify")
    euler = guard._eulers_from_counts
    monkeypatch.setattr(guard, "_eulers_from_counts",  # wrong first at trial 18, then at 6 more
                        lambda c: np.where(c.sum(1) > 14, -1, euler(c)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool([]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 60 blocks
    with pytest.raises(InternalInconsistencyError) as serial:
        run_census(6, 0.2, 60, master_seed=1)
    for size in (360, 361):  # the pool runs every block, or none
        monkeypatch.setattr(montecarlo, "POOL_POSITIONS", size)
        with pytest.raises(InternalInconsistencyError) as pooled:
            run_census(6, 0.2, 60, master_seed=1, workers=2)
        assert str(pooled.value) == str(serial.value)


def test_census_counts_each_sample_once(monkeypatch):
    from cechcircle import montecarlo

    rows = []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: rows.append(len(xs)) or count(xs, t))
    run_census(12, 0.2525, 40, master_seed=3)
    assert sum(rows) == 40  # one row per sample feeds the type and the cross-check


def test_tally_runs_the_same_blocks_at_every_worker_count(monkeypatch):
    # 100 trials at n = 100 with 2 workers: in blocks of 4 096 positions, blocks
    # of 40 rows; at the default size, one block of 100
    import concurrent.futures

    from cechcircle import montecarlo

    rows, started = [], []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: rows.append(len(xs)) or count(xs, t))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    t = 0.25252525252525254
    default = run_census(100, t, 100, master_seed=12, workers=2).counts
    assert rows == [100]
    rows.clear()
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4096)
    pooled = run_census(100, t, 100, master_seed=12, workers=2).counts
    assert rows == [40, 40, 20]
    assert started == []
    assert pooled == default == run_census(100, t, 100, master_seed=12).counts


def test_tally_memory_does_not_grow_with_trials():
    # a census outcome at n = 5: about 88 bytes a block position at the peak
    import tracemalloc
    from functools import partial

    from cechcircle import allowed_types, montecarlo
    from cechcircle.classify import _classified

    outcome = partial(_classified, allowed=allowed_types(5, 0.2), cross_check=True)
    montecarlo._tally(outcome, 5, 0.2, 20_000, 3, workers=1)  # warm-up
    peaks = []
    for trials in (20_000, 200_000):
        tracemalloc.start()
        try:
            montecarlo._tally(outcome, 5, 0.2, trials, 3, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)
    assert max(peaks) < 128 * montecarlo.BLOCK_POSITIONS


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("n", [1, 5, 100, 1000])
def test_chunk_rows_are_the_sorted_trial_streams(monkeypatch, n, block_rows):
    # 7 and 46 trials in the default block, or in blocks of 3 rows, so that
    # blocks start mid-range
    from cechcircle import montecarlo

    blocks = []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: blocks.append(xs.copy()) or count(xs, t))
    if block_rows:
        monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", block_rows * n)
    rows = max(1, montecarlo.BLOCK_POSITIONS // n)
    seed = 2**64 - 3
    for trials in (7, 46):
        blocks.clear()
        montecarlo._tally(montecarlo._eulers, n, 0.2, trials, seed, 1)
        sizes = [min(rows, trials - lo) for lo in range(0, trials, rows)]
        assert [len(block) for block in blocks] == sizes
        want = np.array([np.sort(trial_rng(seed, i).random(n)) for i in range(trials)])
        assert np.concatenate(blocks).tobytes() == want.tobytes()  # bit for bit


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), trials=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       n=st.integers(1, 2 * PHILOX_KERNEL_MAX_N))
@example(seed=2**64 - 1, trials=[2**64 - 1, 0], n=2 * PHILOX_KERNEL_MAX_N)
@example(seed=2**64 - 1, trials=[1], n=1)
def test_philox_kernel_rows_are_the_trial_streams(seed, trials, n):
    # n runs past PHILOX_KERNEL_MAX_N, so the kernel is checked where the
    # engine would not call it too
    from cechcircle.montecarlo import _philox_rows

    got = _philox_rows(seed, np.array(trials, dtype=np.uint64), n)
    want = np.array([trial_rng(seed, i).random(n) for i in trials])
    assert got.tobytes() == want.tobytes()  # bit for bit


@pytest.mark.parametrize("n, kernel", [(PHILOX_KERNEL_MAX_N, True), (PHILOX_KERNEL_MAX_N + 1, False)])
def test_chunk_rows_on_both_sides_of_the_kernel_crossover(monkeypatch, n, kernel):
    from cechcircle import montecarlo

    assert (n <= montecarlo.PHILOX_KERNEL_MAX_N) == kernel
    blocks, calls = [], []
    count, draw = montecarlo.window_counts, montecarlo._philox_rows
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: blocks.append(xs.copy()) or count(xs, t))
    monkeypatch.setattr(montecarlo, "_philox_rows", lambda *args: calls.append(args) or draw(*args))
    seed, trials = 2**64 - 1, 1300  # three blocks, the last partial
    montecarlo._tally(montecarlo._eulers, n, 0.2, trials, seed, 1)
    assert len(blocks) == 3 and len(calls) == (3 if kernel else 0)
    want = np.array([np.sort(trial_rng(seed, i).random(n)) for i in range(trials)])
    assert np.concatenate(blocks).tobytes() == want.tobytes()  # bit for bit


@pytest.mark.parametrize("n", [1, 4, 5, PHILOX_KERNEL_MAX_N])
def test_philox_kernel_gives_contiguous_float_rows_of_the_trial_streams(n):
    # the block is sorted in place along its rows and counted by
    # window_counts, so the rows must be C-contiguous float64
    from cechcircle.montecarlo import _philox_rows

    seed, trials = 2**64 - 1, [0, 1, 2**63, 2**64 - 2, 2**64 - 1]
    got = _philox_rows(seed, np.array(trials, dtype=np.uint64), n)
    assert got.dtype == np.float64 and got.shape == (len(trials), n) and got.flags.c_contiguous
    want = np.array([trial_rng(seed, i).random(n) for i in trials])
    assert got.tobytes() == want.tobytes()  # bit for bit


@pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
def test_per_row_path_gives_the_trial_streams_near_the_top_of_the_key_range(monkeypatch, seed):
    from cechcircle import montecarlo

    n, blocks = PHILOX_KERNEL_MAX_N + 1, []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: blocks.append(xs.copy()) or count(xs, t))
    monkeypatch.setattr(montecarlo, "_philox_rows", lambda *args: pytest.fail("the kernel ran"))
    trials = range(2**64 - 6, 2**64)  # one block
    montecarlo._tally_block(montecarlo._eulers, n, 0.2, seed, trials)
    want = np.array([np.sort(trial_rng(seed, i).random(n)) for i in trials])
    assert np.concatenate(blocks).tobytes() == want.tobytes()  # bit for bit


# The empty-window count's goodness-of-fit test: its level and seeds were
# fixed before it was first run.
EMPTY_WINDOW_ALPHA = 1e-3


def _empty_windows(counts: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Numbers of empty windows (spacings above 2t) of the rows, distinct,
    and each row's index among them."""
    values, index = np.unique((counts == 0).sum(axis=1), return_inverse=True)
    return values.tolist(), index


@functools.cache
def _empty_window_law(n: int, t: float) -> tuple[Fraction, ...]:
    """P(exactly j of the n spacings of n uniform points on the circle exceed
    a = 2t), j = 0..n: C(n,j) sum_(i>=j) (-1)^(i-j) C(n-j,i-j) (1-ia)_+^(n-1)
    (Stevens 1939)."""
    a = Fraction(2 * t)
    return tuple(math.comb(n, j) * sum((-1) ** (i - j) * math.comb(n - j, i - j) * max(1 - i * a, 0) ** (n - 1)
                                     for i in range(j, n + 1))
                 for j in range(n + 1))


def _chi2_tail(x: float, df: int) -> float:
    """P(X > x) for X chi-squared with df >= 1 degrees of freedom:
    Q(x; 1) = erfc(sqrt(x/2)), Q(x; 2) = e^(-x/2) and
    Q(x; k+2) = Q(x; k) + (x/2)^(k/2) e^(-x/2) / Gamma(k/2 + 1)."""
    q = math.erfc(math.sqrt(x / 2)) if df % 2 else math.exp(-x / 2)
    for k in range(2 - df % 2, df, 2):
        q += (x / 2) ** (k / 2) * math.exp(-x / 2) / math.gamma(k / 2 + 1)
    return q


def test_chi2_tail_matches_known_quantiles():
    # upper 5% and 0.1% points of the chi-squared law, from the standard tables
    for df, x95, x999 in [(1, 3.841459, 10.827566), (2, 5.991465, 13.815511),
                          (3, 7.814728, 16.266236), (8, 15.507313, 26.124482)]:
        assert _chi2_tail(x95, df) == pytest.approx(0.05, rel=1e-5)
        assert _chi2_tail(x999, df) == pytest.approx(0.001, rel=1e-5)


# (n, t, seed, kernel): n = 5 and n = 20 are drawn by the Philox kernel, n = 48
# and n = 100 by the per-row loop; at (48, 0.03) about 2.6 windows of a sample
# are empty, at (100, 0.01) about 13.5 and at (100, 0.004) about 45, where
# n 2t < 1 leaves no sample without an empty window
EMPTY_WINDOW_CASES = [(5, 0.2, 1939, True), (20, 0.05, 1929, True), (48, 0.03, 1983, False),
                      (100, 0.01, 2011, False), (100, 0.004, 1943, False)]


def _empty_window_p_value(n: int, t: float, seed: int) -> float:
    """Chi-squared p-value of the empty-window counts of 20 000 trials
    through `_tally` against their exact law."""
    from cechcircle import montecarlo

    trials = 20_000
    tally = montecarlo._tally(_empty_windows, n, t, trials, seed, workers=1)
    law = _empty_window_law(n, t)
    assert sum(law) == 1
    law = list(map(float, law))
    lo, hi = 0, n  # pool j <= lo and j >= hi into the end cells, each expecting at least 5
    while trials * sum(law[:lo + 1]) < 5:
        lo += 1
    while trials * sum(law[hi:]) < 5:
        hi -= 1
    expected = [sum(law[:lo + 1]), *law[lo + 1:hi], sum(law[hi:])]
    observed = [sum(tally[j] for j in range(lo + 1)), *(tally[j] for j in range(lo + 1, hi)),
                sum(tally[j] for j in range(hi, n + 1))]
    statistic = sum((o - trials * p) ** 2 / (trials * p) for o, p in zip(observed, expected))
    return _chi2_tail(statistic, len(expected) - 1)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("n, t, seed, kernel", EMPTY_WINDOW_CASES)
def test_empty_window_count_follows_its_exact_law(monkeypatch, n, t, seed, kernel, planted):
    # the planted defect copies each sorted row's second draw over its first,
    # so one of the n draws is replaced, and the test must reject it
    from cechcircle import montecarlo

    assert (n <= montecarlo.PHILOX_KERNEL_MAX_N) == kernel
    if planted:
        count = montecarlo.window_counts
        monkeypatch.setattr(montecarlo, "window_counts",
                            lambda xs, t: count(np.concatenate([xs[:, 1:2], xs[:, 1:]], axis=1), t))
    assert (_empty_window_p_value(n, t, seed) < EMPTY_WINDOW_ALPHA) == planted


@pytest.mark.parametrize("n, t, seed, kernel", EMPTY_WINDOW_CASES)
def test_empty_window_count_rejects_windows_two_percent_too_wide(monkeypatch, n, t, seed, kernel):
    # the second planted defect: every window counted at 1.02 t
    from cechcircle import montecarlo

    assert (n <= montecarlo.PHILOX_KERNEL_MAX_N) == kernel
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: count(xs, 1.02 * t))
    assert _empty_window_p_value(n, t, seed) < EMPTY_WINDOW_ALPHA


def _pools_started(monkeypatch, workers):
    """The sizes of the process pools that `_tally` starts from here on.

    At two workers a real pool runs every block of every call of two or more
    blocks: blocks of 4 096 positions, POOL_POSITIONS 4 096 and two usable
    CPUs, whatever the machine has.  A pool of min(2, blocks) processes, so
    a recorded 2 means the call ran at least two blocks."""
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    if workers == 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(montecarlo, "POOL_POSITIONS", 4096)
        monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4096)
    return started


def test_empty_window_tally_is_the_same_in_a_pool_and_at_a_second_block_size(monkeypatch):
    # 20 000 trials in 500 blocks of 40 rows, all in a real pool
    from cechcircle import montecarlo

    n, t, seed, _ = EMPTY_WINDOW_CASES[3]
    serial = montecarlo._tally(_empty_windows, n, t, 20_000, seed, workers=1)
    started = _pools_started(monkeypatch, workers=2)
    assert montecarlo._tally(_empty_windows, n, t, 20_000, seed, workers=2) == serial
    assert started == [2]


def test_outcome_error_names_the_failing_sample(monkeypatch):
    from cechcircle import InternalInconsistencyError

    guard = importlib.import_module("cechcircle.classify")
    euler = guard._eulers_from_counts
    monkeypatch.setattr(guard, "_eulers_from_counts",  # wrong first at trial 18
                        lambda c: np.where(c.sum(1) > 14, -1, euler(c)))
    with pytest.raises(InternalInconsistencyError) as err:
        run_census(6, 0.2, 60, master_seed=1)
    positions = tuple(np.sort(trial_rng(1, 18).random(6)).tolist())
    assert str(err.value).endswith(f" at t=0.2, positions {positions}")


def test_duplicate_position_is_one_more_vertex():
    # the multiset's complex has the type, chi and coverage of the set
    from cechcircle import PointConfig, allowed_types, classify
    from cechcircle.circle import _eulers_from_counts, window_counts
    from cechcircle.classify import _classified
    from reference import _covers, betti_gf2, build_complex

    rng = np.random.default_rng(61)
    for _ in range(400):
        d = int(rng.integers(1, 13))
        idx = sorted(rng.choice(d, size=int(rng.integers(1, min(d, 9) + 1)), replace=False))
        xs = sorted([Fraction(int(i), d) for i in idx] + [Fraction(int(rng.choice(idx)), d)])
        t = Fraction(int(rng.integers(1, 2 * d)), 4 * d)  # ties between windows and gaps
        unique = PointConfig(xs)
        counts, unique_counts = window_counts([xs], t), window_counts([unique.positions], t)
        (ht,), _ = _classified(counts, allowed_types(len(xs), t), True)
        assert ht == classify(unique, t)
        multiset = SimpleNamespace(n=len(xs), positions=tuple(xs))  # a PointConfig deduplicates
        assert ht.betti() == betti_gf2(build_complex(multiset, t))
        assert _eulers_from_counts(counts).tolist() == _eulers_from_counts(unique_counts).tolist()
        for radius in (t, Fraction(1, 2) - t, Fraction(1, 2)):
            assert _covers(window_counts(xs, radius), radius) == \
                _covers(window_counts(unique.positions, radius), radius)


def test_census_rejects_bad_trials():
    with pytest.raises(DomainError):
        run_census(5, 0.2, 0, master_seed=1)


@pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_t_not_finite_and_positive_raises_before_any_trial(monkeypatch, t):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    for run in (estimate_chi, run_census, verify_theorem_a1):
        with pytest.raises(DomainError):
            run(5, t, 10, 1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def test_estimate_chi_matches_exact():
    est = estimate_chi(3, 0.25, 20000, master_seed=41)
    assert abs(est.mean - 0.75) <= 3 * est.std_error


def test_estimate_chi_single_point():
    est = estimate_chi(1, 0.3, 100, master_seed=0)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_estimate_chi_larger_n():
    est = estimate_chi(100, 0.2525, 1000, master_seed=42)
    assert abs(est.mean - expected_euler_char(100, 0.2525)) <= 3 * est.std_error


def test_estimate_betti_component_count():
    est = estimate_betti(10, 0.02, 0, 2000, master_seed=5)
    # at tiny t only disjoint unions of arcs occur, so b_0 = chi
    assert abs(est.mean - expected_euler_char(10, 0.02)) <= 3 * est.std_error


def test_estimate_betti_contractible_regime():
    for dim in (1, 2):
        est = estimate_betti(5, 0.49, dim, 100, master_seed=6)
        assert est.mean == 0.0


def test_estimate_betti_rejects_a_negative_degree_before_any_trial(monkeypatch):
    # a negative dim would index the Betti numbers from the top
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(DomainError, match="dim must be >= 0"):
        estimate_betti(30, 0.26, -1, 200, 1)


def test_estimate_coverage():
    est = estimate_coverage(3, 0.25, 20000, master_seed=7)
    assert abs(est.mean - 0.25) <= 3 * est.std_error + 1e-9
    est = estimate_coverage(1, 0.49, 100, master_seed=8)
    assert est.mean == 0.0
    est = estimate_coverage(2, 0.3, 20000, master_seed=9)
    assert abs(est.mean - 0.2) <= 3 * est.std_error + 1e-9


def test_estimate_coverage_with_arcs_of_length_one_or_more():
    # a window of length 2 * radius >= 1 holds every further point, and a lone
    # point's empty window still counts as covered
    for n in (1, 2, 7):
        for radius in (0.5, 0.75, 3.0):
            assert estimate_coverage(n, radius, 50, master_seed=n).mean == 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-10**6, 10**6), st.integers(1, 1000), min_size=1, max_size=20))
def test_estimate_from_the_tally_equals_the_per_trial_list(tally):
    # value * count summed exactly over the distinct values and rounded once
    # is the float that the list's fsum over every trial's value gives
    counts = Counter(tally)
    if counts.total() < 2:
        with pytest.raises(DomainError):
            _mean_estimate(counts)
        return
    assert _mean_estimate(counts) == Estimate(*list_estimate(list(counts.elements())))


def _artificial_census(counts, n=100, t=0.2525, trials=None):
    total = sum(counts.values())
    return Census(
        n=n, t=t, trials=trials or total, master_seed=0,
        counts=counts, chi_checked=0, elapsed=0.0,
    )


def test_estimate_B_artificial_census():
    census = _artificial_census({
        HomotopyType.wedge_even(30, 1): 50,
        HomotopyType.odd_sphere(1): 50,
    })
    est = estimate_B(census, 2, 0.5)  # a + 1 = 31 in [25, 50]
    assert est.mean == 0.5


def test_estimate_B_no_wedges():
    census = _artificial_census({HomotopyType.odd_sphere(1): 80})
    assert estimate_B(census, 2, 0.3).mean == 0.0


@pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, -0.5, math.nan])
def test_estimate_B_rejects_delta_outside_the_open_unit_interval(delta):
    census = _artificial_census({HomotopyType.wedge_even(30, 1): 50, HomotopyType.odd_sphere(1): 50})
    with pytest.raises(DomainError, match=r"delta must be in \(0,1\)"):
        estimate_B(census, 2, delta)


def test_estimate_B_k_mismatch():
    census = _artificial_census({HomotopyType.odd_sphere(1): 10})
    with pytest.raises(DomainError):
        estimate_B(census, 3, 0.3)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def test_verify_a1_passes():
    report = verify_theorem_a1(50, 0.2525, 2000, master_seed=3)
    assert report.passed
    assert report.details["abs_delta"] <= report.details["tolerance"]


def test_verify_a1_passes_where_every_sample_is_the_full_simplex():
    # n (1 - 2t) = 0.6 <= 1: chi is 1 in every trial, so the standard error
    # and the tolerance are 0, and the closed form must be exactly 1
    report = verify_theorem_a1(3, 0.4, 1000, 3)
    assert report.passed
    assert report.details["empirical_mean"] == report.details["exact"] == 1.0
    assert report.details["tolerance"] == 0.0


def test_verify_a2_sandwich():
    report = verify_theorem_a2(2, 50, 800, master_seed=3)
    assert report.passed
    chi, b = report.details["chi_normalized"], report.details["betti_normalized"]
    assert chi - 0.05 <= b <= chi
    with pytest.raises(DomainError):
        verify_theorem_a2(1, 50, 100, master_seed=3)


def test_verify_b_trivial_bound():
    report = verify_theorem_b(0, 3, 0.125, 200, master_seed=1)
    assert report.passed
    assert report.details["bound"] < 0.01


def test_verify_b_k1():
    report = verify_theorem_b(1, 200, 7 / 24, 100, master_seed=4)
    assert report.passed
    assert report.details["frequency"] >= report.details["bound"] - 3 * report.details["std_error"]


def test_theorem_b_s1_count_follows_the_coverage_law():
    # below t = 1/4 a sample is S^1 exactly when its arcs cover the circle, so
    # the S^1 count is Binomial(trials, Q) with Q = coverage_probability(n, 2t).
    # One two-sided test at alpha = 1e-3, normal approximation (trials Q (1 - Q)
    # is about 40 000), on the count pooled over seeds fixed in advance
    n, t, trials, seeds = 20, 0.1, 50_000, (1, 2, 3, 4)
    s1 = sum(run_census(n, t, trials, seed, cross_check=False).counts.get(HomotopyType.odd_sphere(0), 0)
             for seed in seeds)
    total, q = trials * len(seeds), coverage_probability(n, 2 * t)
    z = (s1 - total * q) / math.sqrt(total * q * (1 - q))
    assert abs(z) <= NormalDist().inv_cdf(1 - 1e-3 / 2), z


def test_verify_b_at_k0_fails_a_planted_wrong_frequency(monkeypatch):
    # at k = 0 the S^1 frequency has the exact law Q_20(0.2) = 0.7233; moving
    # 2% of the trials from S^1 to the point gives z of about -5.7, which the
    # one-sided bound Q_20(0.1) = 0.0037 would still pass
    from cechcircle import montecarlo

    args = (0, 20, 0.1, 20_000, 3)
    report = verify_theorem_b(*args)
    assert report.passed and report.details["check"] == "two-sided"
    assert report.details["exact"] == coverage_probability(20, 0.2) and abs(report.details["z"]) < 1

    def planted(*census_args, **kwargs):
        census = run_census(*census_args, **kwargs)
        census.counts[HomotopyType.odd_sphere(0)] -= census.trials // 50
        census.counts[HomotopyType.point()] += census.trials // 50
        return census

    monkeypatch.setattr(montecarlo, "run_census", planted)
    report = verify_theorem_b(*args)
    assert not report.passed
    assert report.details["frequency"] >= report.details["bound"] and report.details["z"] < -5


def test_verify_b_rejects_t_outside_window():
    with pytest.raises(DomainError):
        verify_theorem_b(0, 50, 0.3, 100, master_seed=1)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_verify_rejects_a_margin_or_slack_that_is_not_finite(monkeypatch, value):
    # inf would make the window vacuous (and write -Infinity into the
    # report), nan would fail every comparison; neither runs a trial
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(DomainError, match=r"^margin must be >= 0"):
        verify_theorem_a2(2, 50, 10, 1, margin=value)
    with pytest.raises(DomainError, match=r"^slack must be >= 0"):
        verify_theorem_elder_c(2, 100, 10, 1, slack=value)


def test_verify_elder_c_small():
    report = verify_theorem_elder_c(2, 100, 1000, master_seed=42)
    assert report.passed
    lo, hi = report.details["window"]
    assert lo <= report.details["B_empirical"] <= hi
    assert report.details["delta"] == pytest.approx(omega(2), rel=1e-12)


# ---------------------------------------------------------------------------
# Trial engine: payloads pinned bit for bit, at one worker and in a pool of two
# ---------------------------------------------------------------------------

GOLDEN_DETAILS = {
    "a1": (verify_theorem_a1, (60, 0.2525, 300, 3), {
        "n": 60, "t": 0.2525, "trials": 300, "master_seed": 3,
        "empirical_mean": 9.83, "std_error": 0.11205638411911484,
        "exact": 9.881310652297701, "abs_delta": 0.051310652297701154,
        "tolerance": 0.3361691523573445,
    }),
    "a2": (verify_theorem_a2, (2, 50, 300, 3), {
        "k": 2, "n": 50, "t": 0.25510204081632654, "trials": 300, "master_seed": 3,
        "chi_normalized": 0.18583929831199605, "betti_normalized": 0.16726666666666667,
        "margin": 0.05, "std_error": 0.0019915055582907836,
    }),
    "b": (verify_theorem_b, (0, 200, 0.125, 200, 3), {
        "k": 0, "n": 200, "t": 0.125, "trials": 200, "master_seed": 3,
        "frequency": 1.0, "std_error": 0.0, "bound": 0.9999999994237213, "r_prime": 0.125,
        "check": "two-sided", "exact": 1.0, "z": None,
    }),
    "c": (verify_theorem_elder_c, (2, 100, 300, 3), {
        "k": 2, "n": 100, "t": 0.25252525252525254, "trials": 300, "master_seed": 3,
        "delta": 0.18393972058572122, "slack": 0.1,
        "B_empirical": 1.0, "std_error": 0.0,
        "beta_lower": 0.22539967356056415, "beta_upper": 2.0,
        "window": [0.12539967356056414, 1.0],
    }),
}

# run_census(30, 0.26, 400, 11): wedge multiplicity a of wedge^a(S^2) -> count
GOLDEN_CENSUS = {1: 2, 2: 15, 3: 62, 4: 108, 5: 114, 6: 76, 7: 21, 8: 2}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("theorem", sorted(GOLDEN_DETAILS))
def test_verify_payloads_pinned(monkeypatch, theorem, workers):
    verify, args, details = GOLDEN_DETAILS[theorem]
    started = _pools_started(monkeypatch, workers)
    assert verify(*args, workers=workers).details == details
    assert started == ([2] if workers == 2 else [])


# verify a1 at the parameters of the chi_dp benchmark workload, where the gap
# DP is the whole per-trial cost
A1_N400_DETAILS = {
    "n": 400, "t": 0.2525, "trials": 200, "master_seed": 5,
    "empirical_mean": 14.565, "std_error": 0.16158410228284453,
    "exact": 14.615387729298218, "abs_delta": 0.050387729298218886,
    "tolerance": 0.4847523068485336,
}


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_a1_n400_payload_pinned(monkeypatch, workers):
    started = _pools_started(monkeypatch, workers)
    assert verify_theorem_a1(400, 0.2525, 200, 5, workers=workers).details == A1_N400_DETAILS
    assert started == ([2] if workers == 2 else [])


# verify a1 at n <= DISTINCT_ROWS_MAX_N, where the engine hands the gap DP each
# distinct count row of a block once; every t has n (1 - 2t) > 1, so the
# closed form sums its summands rather than returning the full simplex's 1
A1_SMALL_N_DETAILS = {
    (3, 0.2): (1.0746666666666667, 0.007097932473637561, 1.0800000000000007,
               0.005333333333334078, 0.021293797420912683),
    (3, 0.3): (0.959, 0.003620870553866287, 0.9600000000000007,
               0.001000000000000778, 0.01086261166159886),
    (5, 0.2): (0.636, 0.009349832191518666, 0.6480000000000008,
               0.012000000000000788, 0.028049496574556),
    (5, 0.38): (0.9983333333333333, 0.0007448587569592658, 0.9984000000000005,
                6.666666666721444e-05, 0.0022345762708777975),
    (7, 0.2): (0.3283333333333333, 0.0086398019859108, 0.32659199999999966,
               0.00174133333333365, 0.0259194059577324),
    (7, 0.42): (1.0, 0.0, 0.9999970140160008, 2.985983999170827e-06, 0.0),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, t", sorted(A1_SMALL_N_DETAILS))
def test_small_n_verify_a1_payload_pinned(monkeypatch, n, t, workers):
    mean, std_error, exact, abs_delta, tolerance = A1_SMALL_N_DETAILS[n, t]
    started = _pools_started(monkeypatch, workers)
    assert verify_theorem_a1(n, t, 3000, 9, workers=workers).details == {
        "n": n, "t": t, "trials": 3000, "master_seed": 9,
        "empirical_mean": mean, "std_error": std_error,
        "exact": exact, "abs_delta": abs_delta, "tolerance": tolerance,
    }
    assert started == ([2] if workers == 2 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_census_counts_pinned(monkeypatch, workers):
    started = _pools_started(monkeypatch, workers)
    census = run_census(30, 0.26, 400, 11, workers=workers)
    assert census.counts == {HomotopyType.wedge_even(a, 1): c for a, c in GOLDEN_CENSUS.items()}
    assert census.chi_checked == 400
    assert started == ([2] if workers == 2 else [])


# run_census at n <= DISTINCT_ROWS_MAX_N, where the engine hands the guard step
# each distinct count row of a block once: the census_tiny benchmark call, and a
# census at the cut-off n = 7 in the k = 2 band with four types
GOLDEN_SMALL_CENSUS = {
    (5, 0.2, 2000, 0): {HomotopyType.point(): 1234, HomotopyType.wedge_even(1, 0): 31,
                        HomotopyType.odd_sphere(0): 735},
    (7, 0.28, 2000, 5): {HomotopyType.point(): 1123, HomotopyType.odd_sphere(0): 78,
                         HomotopyType.wedge_even(1, 1): 727, HomotopyType.wedge_even(2, 1): 72},
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("args", sorted(GOLDEN_SMALL_CENSUS), ids=lambda args: f"n{args[0]}")
def test_small_n_census_counts_pinned(monkeypatch, args, workers):
    started = _pools_started(monkeypatch, workers)
    census = run_census(*args, workers=workers)
    assert census.counts == GOLDEN_SMALL_CENSUS[args]
    assert census.chi_checked == args[2]
    assert started == ([2] if workers == 2 else [])
