"""Circle geometry, the simplex predicate, window counts, the
Euler-characteristic DP, coverage, the homology oracle, and the point-file
format."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cechcircle import (
    DomainError,
    PointConfig,
    PointFileError,
    SimplicialComplex,
    SizeError,
    betti_gf2,
    build_complex,
    euler_char_exact,
    expected_euler_char,
    is_simplex,
    load_point_file,
    uniform_config,
)
from cechcircle.circle import _eulers_from_counts, parse_decimal, window_counts
from cechcircle.montecarlo import _covers, estimate_chi, estimate_coverage, trial_rng

from conftest import philox_block, random_config, rational_grid_instance


# ---------------------------------------------------------------------------
# PointConfig and sampling
# ---------------------------------------------------------------------------

def test_config_sorted_deduplicated():
    config = PointConfig.from_points([0.5, 0.1, 0.5, 0.9])
    assert config.positions == (0.1, 0.5, 0.9)
    assert config.n == 3
    with pytest.raises(DomainError):
        PointConfig.from_points([0.2, 1.0])
    with pytest.raises(DomainError):
        PointConfig.from_points([])


def test_uniform_config():
    assert uniform_config(4).positions == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    assert uniform_config(1).positions == (0,)
    assert window_counts(uniform_config(5).positions, Fraction(1, 10)).tolist() == [1] * 5  # gaps 1/5
    with pytest.raises(DomainError):
        uniform_config(0)


# ---------------------------------------------------------------------------
# Simplex predicate and coverage
# ---------------------------------------------------------------------------

def test_is_simplex_examples():
    config = PointConfig.from_points([0, 0.4, 0.8])
    assert not is_simplex(config, [0, 1, 2], 0.225)  # max gap 0.4 < 0.55
    pair = PointConfig.from_points([0, 0.5])
    assert is_simplex(pair, [0, 1], 0.25)  # antipodal arcs of radius 1/4 touch
    assert is_simplex(pair, [0], 0.01)
    with pytest.raises(DomainError):
        is_simplex(pair, [], 0.2)


def test_is_simplex_monotone():
    rng = np.random.default_rng(21)
    cases = 0
    while cases < 10**5:
        n = int(rng.integers(2, 11))
        config = random_config(rng, n)
        for _ in range(10):
            size = int(rng.integers(1, config.n + 1))
            subset = list(rng.choice(config.n, size=size, replace=False))
            t1, t2 = sorted(rng.uniform(0.01, 0.49, size=2))
            if is_simplex(config, subset, t1):
                # monotone in t
                assert is_simplex(config, subset, t2)
                # antitone under enlargement: every sub-subset is a simplex
                keep = int(rng.integers(1, size + 1))
                assert is_simplex(config, subset[:keep], t1)
            cases += 1


def test_covers_circle_examples():
    assert _covers(window_counts(uniform_config(4).positions, 0.125), 0.125)  # gaps 0.25 = 2 * 0.125
    assert not _covers(window_counts([0, 0.5], 0.2), 0.2)
    with pytest.raises(DomainError):
        estimate_coverage(4, 0, 10, 1)


def test_coverage_duality():
    # _covers(positions, 1/2 - t) is false iff the full vertex set is a
    # simplex at radius t (ties are measure-zero for random configs)
    rng = np.random.default_rng(22)
    for _ in range(10**5):
        n = int(rng.integers(1, 11))
        config = random_config(rng, n)
        t = float(rng.uniform(0.05, 0.45))
        covered = _covers(window_counts(config.positions, 0.5 - t), 0.5 - t)
        simplex = is_simplex(config, range(config.n), t)
        assert covered == (not simplex)


# ---------------------------------------------------------------------------
# Window counts: the one reach test
# ---------------------------------------------------------------------------

def _reference_counts(xs, t) -> list[int]:
    """O(n^2): further points within closed forward distance 2t, in exact rationals."""
    q = [Fraction(x) for x in xs]
    width = 2 * Fraction(t)
    return [sum(b != a and (b - a) % 1 <= width for b in q) for a in q]


@st.composite
def philox_grid_wrap_tie(draw):
    """Floats on the 2^-53 grid of Philox samples, with t such that the wrap
    distance 1 - (x_a - x_b) from point a forward to point b < a equals 2t."""
    ks = draw(st.sets(st.integers(0, 2**53 - 1), min_size=2, max_size=12))
    xs = tuple(k * 2.0**-53 for k in sorted(ks))
    a = draw(st.integers(1, len(xs) - 1))
    b = draw(st.integers(0, a - 1))
    return xs, (1 - (xs[a] - xs[b])) / 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_grid_instance())
def test_window_counts_match_exact_reference_on_rational_grids(instance):
    config, t = instance
    assert window_counts(config.positions, t).tolist() == _reference_counts(config.positions, t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(philox_grid_wrap_tie())
def test_window_counts_exact_at_wrap_ties_on_the_philox_grid(instance):
    xs, t = instance
    assert window_counts(xs, t).tolist() == _reference_counts(xs, t)


@st.composite
def philox_grid_rows(draw):
    """Rows of n distinct floats on the 2^-53 grid, with t a wrap tie of one
    row, a width 2t >= 1, or any t."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.sets(st.integers(0, 2**53 - 1), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    xs = np.array([sorted(row) for row in rows], dtype=float) * 2.0**-53
    kind = draw(st.sampled_from(["wrap tie", "wide", "any"]))
    if kind == "wrap tie" and n > 1:
        r = draw(st.integers(0, len(xs) - 1))
        a = draw(st.integers(1, n - 1))
        b = draw(st.integers(0, a - 1))
        return xs, float(1 - (xs[r, a] - xs[r, b])) / 2
    if kind == "wide":
        return xs, draw(st.floats(0.5, 2))
    return xs, draw(st.floats(2.0**-53, 0.5))


@st.composite
def rational_grid_rows(draw):
    """Object-array rows of n distinct points i/d, with t = j/(4d) up to past 1/2."""
    d = draw(st.integers(1, 24))
    n = draw(st.integers(1, min(d, 10)))
    rows = draw(st.lists(st.sets(st.integers(0, d - 1), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    xs = np.array([[Fraction(i, d) for i in sorted(row)] for row in rows], dtype=object)
    return xs, Fraction(draw(st.integers(1, 4 * d + 2)), 4 * d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(philox_grid_rows())
@example((np.array([[0.25], [0.0]]), 0.1))  # n = 1
@example((np.array([[0.0, 0.5], [0.25, 0.75]]), 0.5))  # 2t = 1
def test_window_counts_of_many_rows_match_the_reference_row_by_row(instance):
    xs, t = instance
    assert window_counts(xs, t).tolist() == [_reference_counts(row, t) for row in xs.tolist()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_grid_rows())
def test_window_counts_of_fraction_rows_match_the_reference_row_by_row(instance):
    xs, t = instance
    assert window_counts(xs, t).tolist() == [_reference_counts(row, t) for row in xs.tolist()]


def test_window_counts_of_a_large_block_leave_no_tie_to_rounding():
    # row r of a block is searched shifted by 4r, which rounds away low bits;
    # every row here has ties or near-ties that only the exact test decides
    rng = np.random.default_rng(71)
    w = int(rng.integers(1, 2**53))  # 2t = w 2^-53
    ks = rng.integers(0, 2**53, (300, 4))
    ties = np.sort(np.concatenate([ks, (ks + w) % 2**53], axis=1), axis=1) * 2.0**-53  # x, x + 2t
    near = np.sort([rng.choice(13, 6, replace=False) for _ in range(300)], axis=1)
    clustered = 0.5 + (near - 6) * 2.0**-52
    for xs, t in ((ties, w * 2.0**-54), (clustered, 3 * 2.0**-53)):
        assert window_counts(xs, t).tolist() == [_reference_counts(row, t) for row in xs.tolist()]
    decimals = np.sort(rng.integers(0, 100, (300, 8)), axis=1) / 100
    for t in (0.05, 0.15, 0.25, 0.35):
        assert window_counts(decimals, t).tolist() == [window_counts(row, t).tolist() for row in decimals]


# ---------------------------------------------------------------------------
# Oracle complex and homology
# ---------------------------------------------------------------------------

def test_build_complex_cycle():
    cx = build_complex(uniform_config(4), 0.13)  # N(4, 1) = C_4
    layers = cx.by_dimension()
    assert [len(layer) for layer in layers] == [4, 4]
    assert cx.check_face_closure()
    assert betti_gf2(cx) == (1, 1)


def test_build_complex_two_sphere():
    cx = build_complex(uniform_config(4), 0.26)  # N(4, 2) = S^2
    layers = cx.by_dimension()
    assert [len(layer) for layer in layers] == [4, 6, 4]  # no 3-simplex
    assert cx.euler_characteristic() == 2
    assert betti_gf2(cx) == (1, 0, 1)


def test_build_complex_isolated_vertices():
    cx = build_complex(PointConfig.from_points([0, 0.5]), 0.2)
    assert [len(layer) for layer in cx.by_dimension()] == [2]
    assert betti_gf2(cx) == (2,)


def test_build_complex_guard():
    with pytest.raises(SizeError):
        build_complex(uniform_config(21), 0.1)


def test_betti_single_vertex():
    assert betti_gf2(SimplicialComplex(1, [1])) == (1,)


def test_complex_rejects_empty_simplex():
    with pytest.raises(DomainError):
        SimplicialComplex(2, [0, 1])


# ---------------------------------------------------------------------------
# Exact Euler characteristic
# ---------------------------------------------------------------------------

def test_euler_examples():
    assert euler_char_exact(PointConfig.from_points([0, 0.5]), 0.2) == 2
    assert euler_char_exact(uniform_config(4), 0.26) == 2  # chi(S^2)
    rng = np.random.default_rng(8)
    assert euler_char_exact(random_config(rng, 17), 0.5) == 1
    assert euler_char_exact(random_config(rng, 17), 0.7) == 1


def test_euler_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(1, 16))
        config = random_config(rng, n)
        t = float(rng.uniform(0.01, 0.49))
        cx = build_complex(config, t)
        chi = euler_char_exact(config, t)
        assert chi == cx.euler_characteristic()
        betti = betti_gf2(cx)
        assert chi == sum((-1) ** d * b for d, b in enumerate(betti))


def _reference_euler(xs, t) -> int:
    """O(n^2) chain-count DP over every lowest chosen index, in exact ints."""
    counts = window_counts(xs, t)
    n = len(xs)
    if max(counts) == n - 1:
        return 1  # one window holds every point: the full simplex
    # S spans a simplex iff some window holds all of S, i.e. the window of a
    # chosen point b reaches the chosen point cyclically before it.  Across
    # the wrap, b's window reaches point a < b iff a < first[b].
    first = [c - (n - 1 - j) for j, c in enumerate(counts)]
    total = 0  # sum over subsets spanning no simplex of (-1)^{|S|}
    for i in range(n):
        reach = i + counts[i]  # a last chosen point j > reach is outside i's window
        # h[j] = signed count of index-increasing chains i = j_0 < ... < j_last = j
        # in which no window reaches the previous chain point; sign is
        # (-1)^(chain length).
        pref = [0] * (n + 1)  # pref[j+1] = h[i] + ... + h[j]
        pref[i + 1] = acc = -1  # acc = pref[j]
        for j in range(i + 1, n):
            lo = first[j]
            if lo < i:
                lo = i
            if lo < j:
                hj = pref[lo] - acc
                if hj:
                    acc += hj
                    if j > reach:
                        total += hj
            pref[j + 1] = acc
    return 1 + total


def _reference_tree_euler(counts: list[int]) -> int:
    """The tree DP of `_eulers_from_counts`, one row at a time in Python."""
    n = len(counts)
    if max(counts) == n - 1:
        return 1  # one window holds every point: the full simplex
    # parent[k] = max(first_{k-1}, 0) with first_{k-1} = c_{k-1} + k - n
    parent = [0] + [k + c - n if k + c > n else 0 for k, c in enumerate(counts, 1)]
    chi = 1
    for top, c in enumerate(counts, 1):  # top = i + 1
        node = top + c
        if node > n:
            node = n
        while node > top:
            node = parent[node]
        if node == top:
            chi += 1
    node = n
    while node:
        chi -= 1
        node = parent[node]
    return chi


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rational_grid_instance())
def test_euler_matches_reference_dp_on_rational_grids(instance):
    config, t = instance
    assert euler_char_exact(config, t) == _reference_euler(config.positions, t)
    counts = window_counts([config.positions] * 2, t)
    assert _eulers_from_counts(counts).tolist() == [_reference_tree_euler(counts[0].tolist())] * 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 400), st.integers(0, 2**64 - 1),
       st.floats(0.01, 0.49, allow_nan=False, allow_infinity=False))
def test_euler_matches_reference_dp_on_philox_samples(n, seed, t):
    config = PointConfig(tuple(np.sort(trial_rng(seed, 0).random(n)).tolist()))
    assert euler_char_exact(config, t) == _reference_euler(config.positions, t)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(philox_block(max_t=0.499))
def test_block_euler_matches_the_references_row_by_row(block):
    xs, t = block
    counts = window_counts(xs, t)
    got = _eulers_from_counts(counts)
    assert got.dtype == np.int64 and got.shape == (len(xs),)
    assert got.tolist() == [_reference_tree_euler(row) for row in counts.tolist()]
    if xs.shape[1] <= 60:
        assert got.tolist() == [_reference_euler(row, t) for row in xs]


def test_block_euler_decides_each_row_of_a_mixed_block_alone():
    block = np.array([
        [5, 4, 3, 2, 2, 1],  # the first window holds every point: chi 1
        [1, 0, 1, 0, 0, 0],  # four empty windows: four components
        [1, 1, 1, 1, 1, 0],  # one empty window: an arc
        [2, 2, 1, 2, 2, 1],  # S^1
        [3, 3, 3, 4, 4, 4],  # S^3
        [3, 3, 3, 3, 3, 3],  # N(6, 3), the wedge of two 2-spheres
        [2, 2, 2, 4, 4, 3],  # S^2
    ])
    got = _eulers_from_counts(block).tolist()
    assert got == [1, 4, 1, 0, 0, 3, 2]
    assert got == [_eulers_from_counts(block[i:i + 1])[0] for i in range(len(block))]
    assert got == [_reference_tree_euler(row) for row in block.tolist()]


@pytest.mark.parametrize("n,t", [(10, 0.1), (50, 0.2525), (100, 0.33)])
def test_euler_mean_matches_closed_form(n, t):
    est = estimate_chi(n, t, 10**4, master_seed=1234)
    exact = expected_euler_char(n, t)
    # the floor covers the degenerate zero-variance case at (100, 0.33),
    # where chi-bar ~ 6e-14 and every sampled chi is exactly 0
    assert abs(est.mean - exact) <= 3 * est.std_error + 1e-12


# ---------------------------------------------------------------------------
# Point files
# ---------------------------------------------------------------------------

def test_load_point_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# a comment\n0.5\n0.25  # trailing comment\n\n0.75\n0.0\n")
    config = load_point_file(path)
    assert config.positions == (0.0, 0.25, 0.5, 0.75)


def test_parse_decimal_is_exact_with_float_syntax():
    for text, want in [("0.2", Fraction(1, 5)), (" +.5 ", Fraction(1, 2)),
                       ("5.", Fraction(5)), ("1_0e-2", Fraction(1, 10)),
                       ("-2.5E-1", Fraction(-1, 4))]:
        assert float(text) == float(want)
        assert parse_decimal(text) == want
    for text in ("1/2", "0x1p-1", "", "1__0", "inf", "-Infinity", "nan"):
        with pytest.raises(ValueError):
            parse_decimal(text)


def test_load_point_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n1.25\n")
    with pytest.raises(PointFileError) as err:
        load_point_file(path)
    assert err.value.line_no == 2


def test_load_point_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nhello\n")
    with pytest.raises(PointFileError) as err:
        load_point_file(path)
    assert err.value.line_no == 2


def test_load_point_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(PointFileError):
        load_point_file(path)


# ---------------------------------------------------------------------------
# Per-trial streams
# ---------------------------------------------------------------------------

def test_trial_rng_streams():
    a = trial_rng(7, 0).random(4)
    b = trial_rng(7, 0).random(4)
    c = trial_rng(7, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
