"""Homotopy-type classification: window counts, the rotation rule, and its
agreement with the orbit-walk reference, the homology oracle, the Euler DP
and the known types of blown-up evenly spaced points."""
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cechcircle import HomotopyType, PointConfig, allowed_types, classify, montecarlo
from cechcircle.circle import window_counts
from cechcircle.classify import _classified, types_from_counts
from cechcircle.errors import DomainError, InternalInconsistencyError
from cechcircle.montecarlo import DISTINCT_ROWS_MAX_N

from conftest import philox_block, random_config, rational_grid_instance
from reference import betti_gf2, build_complex, euler_char_exact, n_k_homotopy, trial_rng, uniform_config


# ---------------------------------------------------------------------------
# HomotopyType bookkeeping
# ---------------------------------------------------------------------------

def test_homotopy_type_derived_invariants():
    s3 = HomotopyType.odd_sphere(1)
    assert s3.euler_characteristic() == 0
    assert s3.betti() == (1, 0, 0, 1)
    assert s3.display() == "S^3"
    w = HomotopyType.wedge_even(2, 1)
    assert w.euler_characteristic() == 3
    assert w.betti() == (1, 0, 2)
    assert w.display() == "wedge^2(S^2)"
    pts = HomotopyType.wedge_even(3, 0)
    assert pts.betti() == (4,)
    assert HomotopyType.point().display() == "point"
    assert HomotopyType.wedge_even(0, 5) == HomotopyType.point()
    with pytest.raises(DomainError):
        HomotopyType("even", 5, 0)  # the point has the one representation a = l = 0


def test_homotopy_type_json_round_trip():
    assert HomotopyType.odd_sphere(1).to_json() == {"kind": "odd", "l": 1}
    assert HomotopyType.wedge_even(1, 1).to_json() == {"kind": "even", "a": 1, "l": 1}


def test_crowded_point_has_the_type_of_its_blow_down():
    # at t = 0.26 a set of these points lies in a closed arc of length 2t
    # exactly when it does with 0.01 moved onto 0, so the complex is that of
    # uniform_config(4), whose windows all hold 2 further points, with the
    # vertex 0 blown up to an edge, and has its type N(4, 2) = S^2
    crowded = PointConfig([0, 0.01, 0.25, 0.5, 0.75])
    reduced = uniform_config(4)
    assert window_counts(reduced.positions, Fraction(26, 100)).tolist() == [2, 2, 2, 2]
    assert classify(crowded, 0.26) == classify(reduced, 0.26) == n_k_homotopy(4, 2)
    assert betti_gf2(build_complex(crowded, 0.26)) == betti_gf2(build_complex(reduced, 0.26))


# ---------------------------------------------------------------------------
# classify pipeline
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(PointConfig([0, 0.5]), 0.2) == HomotopyType.wedge_even(1, 0)
    assert classify(uniform_config(5), 0.31) == HomotopyType.odd_sphere(1)
    connected_arc = PointConfig([0, 0.1, 0.45, 0.55])
    assert classify(connected_arc, 0.2) == HomotopyType.point()
    assert betti_gf2(build_complex(connected_arc, 0.2)) == (1,)
    assert classify(uniform_config(5), 0.5) == HomotopyType.point()
    # a crowded fifth point leaves N(4, 2) = S^2
    crowded = PointConfig([0, 0.01, 0.25, 0.5, 0.75])
    assert classify(crowded, 0.26) == HomotopyType.wedge_even(1, 1)


def test_classify_unsorted_constructor_input():
    # the arcs of radius 0.2 around 0.1, 0.4, 0.7 cover the circle: S^1
    assert classify(PointConfig((0.7, 0.1, 0.4)), 0.2) == HomotopyType.odd_sphere(0)


@pytest.mark.parametrize("t", [0.0, -0.3, float("nan"), float("inf"), float("-inf")])
def test_classify_rejects_t_not_finite_and_positive(t):
    with pytest.raises(DomainError):
        classify(PointConfig([0, 0.5]), t)


def test_classify_matches_oracle():
    rng = np.random.default_rng(34)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        config = random_config(rng, n)
        t = float(rng.uniform(0.01, 0.49))
        ht = classify(config, t)
        assert ht.betti() == betti_gf2(build_complex(config, t))


def test_classify_euler_consistency_large_n():
    rng = np.random.default_rng(35)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        config = random_config(rng, n)
        t = float(rng.uniform(0.01, 0.49))
        ht = classify(config, t)
        assert ht.euler_characteristic() == euler_char_exact(config, t)
        assert allowed_types(n, t).allows(ht)


def test_classify_evenly_spaced_ground_truth():
    for m in range(1, 31):
        grid = [Fraction(i, 102) for i in range(1, 51)]
        # exact boundary values 2tm integer, decided by the closed-arc rule
        grid += [Fraction(k, 2 * m) for k in range(1, m) if Fraction(k, 2 * m) < Fraction(1, 2)]
        for t in grid:
            k = int(2 * t * m)
            want = n_k_homotopy(m, min(k, m - 1))
            assert classify(uniform_config(m), t) == want, (m, t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_grid_instance())
def test_classify_exact_ties_match_oracle_and_dp(instance):
    config, t = instance
    ht = classify(config, t)
    assert ht.betti() == betti_gf2(build_complex(config, t))
    assert ht.euler_characteristic() == euler_char_exact(config, t)
    assert ht == _reference_type(window_counts(config.positions, t).tolist())


def test_classify_philox_sample_with_wrap_tie():
    # the wrap distance from the last point forward to the second ties 2t;
    # counting the tie, f has the single periodic orbit {1, 6} with q = 1,
    # the wedge of no 2-spheres
    xs = [float.fromhex(h) for h in (
        "0x1.db390f61624a0p-6", "0x1.dccc3ae421bfep-2", "0x1.7ad3fd76d4330p-1",
        "0x1.7bcb84164d839p-1", "0x1.972395bc8fbbcp-1", "0x1.d83afa6eb8c9ep-1",
        "0x1.e288db0c11fdep-1")]
    config = PointConfig(xs)
    t = float.fromhex("0x1.0bdd4265fee21p-2")
    ht = classify(config, t)
    assert ht == HomotopyType.point()
    assert ht.euler_characteristic() == euler_char_exact(config, t)
    assert ht.betti() == betti_gf2(build_complex(config, t))


@st.composite
def decimal_grid_instance(draw):
    """Float points k/d and t = j/(4d) < 1/2, as a user types them in decimal."""
    d = draw(st.sampled_from([8, 10, 20, 25, 40, 100]))
    idx = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=min(d, 10)))
    j = draw(st.integers(1, 2 * d - 1))
    return PointConfig(k / d for k in idx), j / (4 * d)


def _assert_classify_agrees(config, t):
    ht = classify(config, t)
    assert ht.euler_characteristic() == euler_char_exact(config, t)
    assert ht.betti() == betti_gf2(build_complex(config, t))


def test_classify_decimal_floats_pinned():
    config = PointConfig([0.125, 0.3, 0.35, 0.6, 0.625, 0.85])
    _assert_classify_agrees(config, 0.0125)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(decimal_grid_instance())
def test_classify_decimal_floats_match_dp_and_oracle(instance):
    _assert_classify_agrees(*instance)


# ---------------------------------------------------------------------------
# types_from_counts against the orbit walk it replaced
# ---------------------------------------------------------------------------

def _reference_winding_type(counts: list[int]) -> HomotopyType:
    """Homotopy type of a covering nerve from its forward window counts.

    A periodic orbit of f(i) = i + c_i of length p winds W / n times around
    the circle, with W the sum of c over the orbit; its winding fraction is
    w = W / (n p), the same on every orbit.  With P periodic orbits and
    q = w / (1 - w) = W / (n p - W): an integer q = l gives the wedge of P - 1
    copies of S^(2l), otherwise the type is S^(2 floor(q) + 1).  Counts are
    below n, so n p - W > 0.
    """
    n = len(counts)
    walk = [-1] * n  # the start of the walk that first reached each index
    orbits = 0
    winding = None  # (W, n p) of the first periodic orbit found
    for start in range(n):
        v = start
        while walk[v] < 0:
            walk[v] = start
            v = (v + counts[v]) % n
        if walk[v] != start:
            continue  # ran into a walk that is already accounted for
        orbits += 1  # v lies on a periodic orbit seen for the first time
        total, u = counts[v], (v + counts[v]) % n
        length = 1
        while u != v:
            total += counts[u]
            u = (u + counts[u]) % n
            length += 1
        if winding is None:
            winding = (total, n * length)
        elif total * winding[1] != winding[0] * n * length:
            raise InternalInconsistencyError(
                f"periodic orbits wind {winding[0]}/{winding[1]} and "
                f"{total}/{n * length} times per step"
            )
    wound, steps = winding
    l, r = divmod(wound, steps - wound)
    if r == 0:
        return HomotopyType.wedge_even(orbits - 1, l)
    return HomotopyType.odd_sphere(l)


def _reference_type(counts: list[int]) -> HomotopyType:
    """Type of one count row: empty windows and full windows first, then the walk."""
    breaks = counts.count(0)
    if breaks > 1:
        return HomotopyType.wedge_even(breaks - 1, 0)
    if breaks == 1 or max(counts) == len(counts) - 1:
        return HomotopyType.point()
    return _reference_winding_type(counts)


def _row_types(counts) -> list[HomotopyType]:
    """The type of each row, from `types_from_counts`' distinct types and
    row indices, which must list each type once."""
    types, index = types_from_counts(counts)
    assert len(set(types)) == len(types) == index.max() + 1
    return [types[i] for i in index.tolist()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(philox_block())
def test_types_from_counts_match_the_orbit_walk_on_philox_blocks(block):
    counts = window_counts(*block)
    assert _row_types(counts) == [_reference_type(row) for row in counts.tolist()]


def test_types_from_counts_decide_each_row_of_a_mixed_block_alone():
    block = np.array([
        [1, 0, 1, 0, 0, 0],  # four empty windows: four components
        [1, 1, 1, 1, 1, 0],  # one empty window: an arc
        [5, 4, 3, 2, 2, 1],  # the first window holds every point
        [2, 2, 1, 2, 2, 1],  # f rotates its periodic set {0, 2, 3, 5} by 1
        [3, 3, 3, 4, 4, 4],
        [3, 3, 3, 3, 3, 3],  # N(6, 3): three orbits of length 2
        [2, 2, 2, 4, 4, 3],
        [4, 4, 4, 4, 4, 4],  # N(6, 4)
    ])
    want = [
        HomotopyType.wedge_even(3, 0),
        HomotopyType.point(),
        HomotopyType.point(),
        HomotopyType.odd_sphere(0),
        HomotopyType.odd_sphere(1),
        HomotopyType.wedge_even(2, 1),
        HomotopyType.wedge_even(1, 1),
        HomotopyType.wedge_even(1, 2),
    ]
    got = _row_types(block)
    assert got == want
    assert got == [_row_types(block[i:i + 1])[0] for i in range(len(block))]
    assert got == [_reference_type(row) for row in block.tolist()]
    assert want[5] == n_k_homotopy(6, 3) and want[7] == n_k_homotopy(6, 4)


@st.composite
def repeating_block(draw):
    """A block of count rows at n <= DISTINCT_ROWS_MAX_N + 2 and a t = j/(4d):
    Philox rows, and rows of points i/d whose gaps and windows tie, each
    repeated, all in a drawn order."""
    n = draw(st.integers(1, DISTINCT_ROWS_MAX_N + 2))
    d = draw(st.integers(n, 24))
    t = Fraction(draw(st.integers(1, 2 * d - 1)), 4 * d)
    seed = draw(st.integers(0, 2**64 - 1))
    xs = np.reshape([trial_rng(seed, i).random(n) for i in range(draw(st.integers(0, 40)))], (-1, n))
    rows = list(window_counts(np.sort(xs, axis=1), t))  # float rows, exact against a Fraction t
    for idx in draw(st.lists(st.sets(st.integers(0, d - 1), min_size=n, max_size=n), min_size=1, max_size=6)):
        ties = window_counts(np.array(sorted(Fraction(i, d) for i in idx), dtype=object), t)
        rows += [ties] * draw(st.integers(1, 8))
    return np.array(draw(st.permutations(rows))), t


@settings(max_examples=200, deadline=None, derandomize=True)
@given(repeating_block())
def test_guard_step_counts_each_row_of_a_repeating_block_as_alone(block):
    # on either side of DISTINCT_ROWS_MAX_N, where the trial engine hands the
    # guard step each distinct row once and weights it by its repeats
    counts, t = block
    n = counts.shape[1]
    want = Counter(types_from_counts(row[None])[0][0] for row in counts)
    outcome = partial(_classified, allowed=allowed_types(n, t), cross_check=True)
    with mock.patch.object(montecarlo, "window_counts", lambda xs, t: counts):
        assert montecarlo._tally_block(outcome, n, t, 0, range(len(counts))) == want


# ---------------------------------------------------------------------------
# Blow-ups of evenly spaced points: a known type at every n
# ---------------------------------------------------------------------------

GRID = 2**53  # a Philox double is a multiple of 2^-53


def _blow_up(rng, m: int, j: int, n: int, upper: bool, exact: bool):
    """n points near m evenly spaced ones, each base point used at least
    once, and a t with 2t in (j/m, (j+1)/m), 2^-e/m from its upper or lower
    end for a drawn e in [1, 30].

    Each point lies less than half the margin of 2t to either end from its
    base point, so a set of points lies in a closed arc of length 2t exactly
    when its base points do.  The complex is then N(m, j) with each vertex
    blown up to a simplex of its copies, of type n_k_homotopy(m, j).  With
    `exact` the base points are i/m and the offsets and t are Fractions;
    otherwise every position is a multiple of 2^-53, as a Philox draw is,
    and t is a float.  Either way the points are rotated by a shift on that
    grid.
    """
    d = Fraction(1, m * 2 ** int(rng.integers(1, 31)))
    two_t = Fraction(j + 1, m) - d if upper else Fraction(j, m) + d
    t = two_t / 2 if exact else float(two_t / 2)
    margin = min(2 * Fraction(t) - Fraction(j, m), Fraction(j + 1, m) - 2 * Fraction(t))
    base = np.r_[np.arange(m), rng.integers(0, m, n - m)]
    shift = int(rng.integers(0, GRID))
    if exact:
        offsets = (margin * Fraction(int(r), 2000) for r in rng.integers(-999, 1000, n))
        return [(Fraction(i, m) + o + Fraction(shift, GRID)) % 1 for i, o in zip(base.tolist(), offsets)], t
    # i/m rounded to the grid moves a distance by up to one step, so 2w + 1 < margin * 2^53
    w = (math.floor(margin * GRID) - 2) // 2
    steps = (2 * GRID * base + m) // (2 * m) + rng.integers(-w, w + 1, n) + shift
    return (steps % GRID / GRID).tolist(), t  # exact: every step count is below 2^53


def test_classify_blow_ups_of_evenly_spaced_points():
    rng = np.random.default_rng(81)
    for m in range(2, 13):
        for j in range(m):
            want = n_k_homotopy(m, j)
            for upper in (False, True):
                for exact, most in ((True, 40), (False, 3000)):
                    n = m + int(rng.integers(0, most))
                    points, t = _blow_up(rng, m, j, n, upper, exact)
                    config = PointConfig(points)
                    assert classify(config, t) == want, (m, j, n, t)
                    assert allowed_types(config.n, t).allows(want)


@pytest.mark.parametrize("n", [12, 13, 40, 1000, 4000])
def test_types_from_counts_on_blocks_of_blow_ups(n):
    # every (m, j) with m <= min(n, 12), 2t near each end of its interval,
    # as float rows, and as Fraction rows up to n = 13, in one block
    rng = np.random.default_rng(n)
    rows, want = [], []
    kinds = (False, True) if n <= 13 else (False,)
    for m in range(2, min(n, 12) + 1):
        for j in range(m):
            for upper in (False, True):
                for exact in kinds:
                    points, t = _blow_up(rng, m, j, n, upper, exact)
                    rows.append(window_counts(np.array(sorted(points), dtype=object if exact else float), t))
                    want.append(n_k_homotopy(m, j))
                    assert allowed_types(n, t).allows(want[-1])
    assert _row_types(np.array(rows)) == want
