"""Seeded censuses, estimators with confidence intervals, and the
statistical verification harness."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cechcircle import (
    Census,
    DomainError,
    HomotopyType,
    estimate_B,
    estimate_betti,
    estimate_chi,
    estimate_coverage,
    expected_euler_char,
    omega,
    run_census,
    verify_theorem_a1,
    verify_theorem_a2,
    verify_theorem_b,
    verify_theorem_elder_c,
)
from cechcircle.montecarlo import GENERATOR_ID, trial_rng, wilson_estimate


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
    assert a.chi_checked == a.chi_agreed == 200
    assert a.generator_id == GENERATOR_ID
    da, dc = a.to_json_dict(), c.to_json_dict()
    da.pop("metadata"), dc.pop("metadata")
    assert da == dc


def test_census_two_points():
    census = run_census(2, 0.1, 20000, master_seed=100)
    # P(edge) = 4t = 0.4: connected (point) vs two components (S^0)
    freq_edge = census.frequency(HomotopyType.point())
    freq_split = census.frequency(HomotopyType.wedge_even(1, 0))
    assert abs(freq_edge - 0.4) < 0.02
    assert abs(freq_split - 0.6) < 0.02
    assert freq_edge + freq_split == 1.0


def test_census_contractible_regime():
    census = run_census(5, 0.49, 100, master_seed=2)
    assert census.counts == {HomotopyType.point(): 100}


def test_census_constraint_keys_k2():
    census = run_census(50, 0.2525, 300, master_seed=3)
    assert census.chi_checked == census.chi_agreed == 300
    assert sum(census.counts.values()) == 300


def test_census_cross_check_raises_at_the_disagreeing_sample(monkeypatch):
    from cechcircle import InternalInconsistencyError, montecarlo

    monkeypatch.setattr(montecarlo, "_eulers_from_counts", lambda c: np.full(len(c), -1))
    with pytest.raises(InternalInconsistencyError, match=r"t=0\.2, positions \(0\."):
        run_census(6, 0.2, 5, master_seed=1)
    assert run_census(6, 0.2, 5, master_seed=1, cross_check=False).chi_checked == 0


def _in_process_pool(started):
    """A stand-in for ProcessPoolExecutor that records its size and runs the
    chunks in this process."""

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    return InProcessPool


def test_tally_starts_at_most_one_process_per_chunk_and_cpu(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 10 chunks
    serial = run_census(6, 0.2, 10, master_seed=4).counts
    assert run_census(6, 0.2, 10, master_seed=4, workers=2).counts == serial
    assert started == []  # far shorter than POOL_AFTER_S: no pool
    monkeypatch.setattr(montecarlo, "POOL_AFTER_S", 0.0)
    for cpus, workers in ((3, 2), (3, 64), (None, 64)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_census(6, 0.2, 10, master_seed=4, workers=workers).counts == serial
    assert started == [2, 3]
    with pytest.raises(DomainError):
        run_census(6, 0.2, 10, master_seed=4, workers=0)


def test_tally_starts_no_pool_for_one_stalled_chunk(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import montecarlo

    now = [0.0]
    chunk = montecarlo._tally_chunk

    def first_chunk_stalls(*args):  # 0.09 s, then 0.1 ms a chunk
        now[0] += 0.09 if now[0] == 0 else 1e-4
        return chunk(*args)

    started = []
    monkeypatch.setattr(montecarlo.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(montecarlo, "_tally_chunk", first_chunk_stalls)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 30 chunks
    run_census(6, 0.2, 60, master_seed=1, workers=2)
    assert started == []  # the stall predicted 2.8 s more, but only 0.09 s had passed


def test_tally_in_a_pool_matches_serial(monkeypatch):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "POOL_AFTER_S", 0.0)  # a real pool after the first chunk
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 4 * 12)  # 4-row blocks: 25 chunks
    assert run_census(12, 0.2, 200, master_seed=9, workers=2).counts == \
        run_census(12, 0.2, 200, master_seed=9).counts


def test_tally_raises_the_serial_error_after_the_switch_to_a_pool(monkeypatch):
    import concurrent.futures
    import os

    from cechcircle import InternalInconsistencyError, montecarlo

    euler = montecarlo._eulers_from_counts
    monkeypatch.setattr(montecarlo, "_eulers_from_counts",  # wrong first at trial 18, then at 6 more
                        lambda c: np.where(c.sum(1) > 14, -1, euler(c)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool([]))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", 6)  # one-row blocks: 30 chunks
    with pytest.raises(InternalInconsistencyError) as serial:
        run_census(6, 0.2, 60, master_seed=1)
    for after in (0.0, 10.0):  # the pool runs all chunks but the first, or none
        monkeypatch.setattr(montecarlo, "POOL_AFTER_S", after)
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


def test_tally_cuts_chunks_at_block_boundaries(monkeypatch):
    # 100 trials at n = 100 with 2 workers: blocks of 40 rows, not 25 chunks of 4
    import concurrent.futures

    from cechcircle import montecarlo

    rows, started = [], []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: rows.append(len(xs)) or count(xs, t))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(started))
    t = 0.25252525252525254
    pooled = run_census(100, t, 100, master_seed=12, workers=2).counts
    assert rows == [40, 40, 20]
    assert started == []
    assert pooled == run_census(100, t, 100, master_seed=12).counts


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("n", [1, 5, 100, 1000])
def test_chunk_rows_are_the_sorted_trial_streams(monkeypatch, n, block_rows):
    # chunks from 0 and from mid-range; the default block, or blocks of 3
    # rows that split each chunk
    from cechcircle import montecarlo

    blocks = []
    count = montecarlo.window_counts
    monkeypatch.setattr(montecarlo, "window_counts", lambda xs, t: blocks.append(xs.copy()) or count(xs, t))
    if block_rows:
        monkeypatch.setattr(montecarlo, "BLOCK_POSITIONS", block_rows * n)
    rows = max(1, montecarlo.BLOCK_POSITIONS // n)
    seed = 2**64 - 3
    for trials in (range(0, 7), range(37, 46)):
        blocks.clear()
        montecarlo._tally_chunk(montecarlo._eulers, n, 0.2, seed, (), trials)
        sizes = [min(rows, trials.stop - lo) for lo in range(trials.start, trials.stop, rows)]
        assert [len(block) for block in blocks] == sizes
        want = np.array([np.sort(trial_rng(seed, i).random(n)) for i in trials])
        assert np.concatenate(blocks).tobytes() == want.tobytes()  # bit for bit


def test_outcome_error_names_the_failing_sample(monkeypatch):
    from cechcircle import InternalInconsistencyError, montecarlo

    euler = montecarlo._eulers_from_counts
    monkeypatch.setattr(montecarlo, "_eulers_from_counts",  # wrong first at trial 18
                        lambda c: np.where(c.sum(1) > 14, -1, euler(c)))
    with pytest.raises(InternalInconsistencyError) as err:
        run_census(6, 0.2, 60, master_seed=1)
    positions = tuple(np.sort(trial_rng(1, 18).random(6)).tolist())
    assert str(err.value).endswith(f" at t=0.2, positions {positions}")


def test_duplicate_position_is_one_more_vertex():
    # the multiset's complex has the type, chi and coverage of the set
    from cechcircle import PointConfig, betti_gf2, build_complex, classify
    from cechcircle.circle import _eulers_from_counts, window_counts
    from cechcircle.montecarlo import _classified, _covers

    rng = np.random.default_rng(61)
    for _ in range(400):
        d = int(rng.integers(1, 13))
        idx = sorted(rng.choice(d, size=int(rng.integers(1, min(d, 9) + 1)), replace=False))
        xs = sorted([Fraction(int(i), d) for i in idx] + [Fraction(int(rng.choice(idx)), d)])
        t = Fraction(int(rng.integers(1, 2 * d)), 4 * d)  # ties between windows and gaps
        unique = PointConfig.from_points(xs)
        counts, unique_counts = window_counts([xs], t), window_counts([unique.positions], t)
        ht, = _classified(counts, True)
        assert ht == classify(unique, t)
        assert ht.betti() == betti_gf2(build_complex(PointConfig(tuple(xs)), t))
        assert _eulers_from_counts(counts).tolist() == _eulers_from_counts(unique_counts).tolist()
        for radius in (t, Fraction(1, 2) - t, Fraction(1, 2)):
            assert _covers(window_counts(xs, radius), radius) == \
                _covers(window_counts(unique.positions, radius), radius)


def test_census_rejects_bad_trials():
    with pytest.raises(DomainError):
        run_census(5, 0.2, 0, master_seed=1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def test_estimate_chi_matches_exact():
    est = estimate_chi(3, 0.25, 20000, master_seed=41)
    assert abs(est.mean - 0.75) <= 3 * est.std_error
    assert est.ci_low <= est.mean <= est.ci_high
    assert est.method == "normal"


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


def test_estimate_coverage():
    est = estimate_coverage(3, 0.25, 20000, master_seed=7)
    assert abs(est.mean - 0.25) <= 3 * est.std_error + 1e-9
    assert est.method == "wilson"
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


def test_wilson_interval_contains_mean():
    for successes, trials in [(0, 50), (50, 50), (17, 100), (3, 7)]:
        est = wilson_estimate(successes, trials)
        assert est.ci_low <= est.mean <= est.ci_high
        assert 0 <= est.ci_low and est.ci_high <= 1


def _artificial_census(counts, n=100, t=0.2525, trials=None):
    total = sum(counts.values())
    return Census(
        n=n, t=t, trials=trials or total, master_seed=0,
        generator_id=GENERATOR_ID, counts=counts,
        chi_checked=0, chi_agreed=0, elapsed=0.0,
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


def test_verify_b_rejects_t_outside_window():
    with pytest.raises(DomainError):
        verify_theorem_b(0, 50, 0.3, 100, master_seed=1)


def test_verify_elder_c_small():
    report = verify_theorem_elder_c(2, 100, 1000, master_seed=42)
    assert report.passed
    lo, hi = report.details["window"]
    assert lo <= report.details["B_empirical"] <= hi
    assert report.details["delta"] == pytest.approx(omega(2), rel=1e-12)


# ---------------------------------------------------------------------------
# Trial engine: payloads pinned bit for bit, at one and at two workers
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
    }),
    "c": (verify_theorem_elder_c, (2, 100, 300, 3), {
        "k": 2, "n": 100, "t": 0.2525252525252525, "trials": 300, "master_seed": 3,
        "delta": 0.18393972058572122, "epsilon": 0.1, "slack": 0.1,
        "B_empirical": 1.0, "std_error": 0.0,
        "beta_lower": 0.22539967356056415, "beta_upper": 2.0,
        "window": [0.12539967356056414, 1.0],
    }),
}

# run_census(30, 0.26, 400, 11): wedge multiplicity a of wedge^a(S^2) -> count
GOLDEN_CENSUS = {1: 2, 2: 15, 3: 62, 4: 108, 5: 114, 6: 76, 7: 21, 8: 2}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("theorem", sorted(GOLDEN_DETAILS))
def test_verify_payloads_pinned(theorem, workers):
    verify, args, details = GOLDEN_DETAILS[theorem]
    assert verify(*args, workers=workers).details == details


# verify a1 at the parameters of the chi_dp benchmark workload, where the gap
# DP is the whole per-trial cost
A1_N400_DETAILS = {
    "n": 400, "t": 0.2525, "trials": 200, "master_seed": 5,
    "empirical_mean": 14.565, "std_error": 0.16158410228284453,
    "exact": 14.615387729298218, "abs_delta": 0.050387729298218886,
    "tolerance": 0.4847523068485336,
}


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_a1_n400_payload_pinned(workers):
    assert verify_theorem_a1(400, 0.2525, 200, 5, workers=workers).details == A1_N400_DETAILS


@pytest.mark.parametrize("workers", [1, 2])
def test_census_counts_pinned(workers):
    census = run_census(30, 0.26, 400, 11, workers=workers)
    assert census.counts == {HomotopyType.wedge_even(a, 1): c for a, c in GOLDEN_CENSUS.items()}
    assert census.chi_checked == census.chi_agreed == 400
