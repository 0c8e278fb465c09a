"""Homotopy-type classification: window counts, the rotation rule, and its
agreement with the orbit-walk reference, the homology oracle and the Euler DP."""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from cechcircle import (
    HomotopyType,
    PointConfig,
    allowed_types,
    betti_gf2,
    build_complex,
    classify,
    euler_char_exact,
    n_k_homotopy,
    uniform_config,
)
from cechcircle.circle import window_counts
from cechcircle.classify import types_from_counts
from cechcircle.errors import InternalInconsistencyError

from conftest import philox_block, random_config, rational_grid_instance


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
    assert HomotopyType.wedge_even(0, 5).canonical() == HomotopyType.point()


def test_homotopy_type_json_round_trip():
    assert HomotopyType.odd_sphere(1).to_json() == {"kind": "odd", "l": 1}
    assert HomotopyType.wedge_even(1, 1).to_json() == {"kind": "even", "a": 1, "l": 1}


def test_dismantle_removes_crowded_point():
    # 0.01 is dominated by 0: dropping it leaves uniform_config(4), whose
    # windows at t = 0.26 all hold 2 further points, i.e. N(4, 2) = S^2
    crowded = PointConfig.from_points([0, 0.01, 0.25, 0.5, 0.75])
    reduced = uniform_config(4)
    assert window_counts(reduced.positions, Fraction(26, 100)).tolist() == [2, 2, 2, 2]
    assert classify(crowded, 0.26) == classify(reduced, 0.26) == n_k_homotopy(4, 2)
    assert betti_gf2(build_complex(crowded, 0.26)) == betti_gf2(build_complex(reduced, 0.26))


# ---------------------------------------------------------------------------
# classify pipeline
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(PointConfig.from_points([0, 0.5]), 0.2) == HomotopyType.wedge_even(1, 0)
    assert classify(uniform_config(5), 0.31) == HomotopyType.odd_sphere(1)
    connected_arc = PointConfig.from_points([0, 0.1, 0.45, 0.55])
    assert classify(connected_arc, 0.2) == HomotopyType.point()
    assert betti_gf2(build_complex(connected_arc, 0.2)) == (1,)
    assert classify(uniform_config(5), 0.5) == HomotopyType.point()
    # a crowded fifth point leaves N(4, 2) = S^2
    crowded = PointConfig.from_points([0, 0.01, 0.25, 0.5, 0.75])
    assert classify(crowded, 0.26) == HomotopyType.wedge_even(1, 1)


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
            want = n_k_homotopy(m, min(k, m - 1)).canonical()
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
    config = PointConfig.from_points(xs)
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
    return PointConfig.from_points(k / d for k in idx), j / (4 * d)


def _assert_classify_agrees(config, t):
    ht = classify(config, t)
    assert ht.euler_characteristic() == euler_char_exact(config, t)
    assert ht.betti() == betti_gf2(build_complex(config, t))


def test_classify_decimal_floats_pinned():
    config = PointConfig.from_points([0.125, 0.3, 0.35, 0.6, 0.625, 0.85])
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
        return HomotopyType.wedge_even(orbits - 1, l).canonical()
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
