"""Closed-form quantities: coverage probability, expected Euler
characteristic, spike analytics, theorem parameter packs, and the
canonical-complex homotopy table."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cechcircle import (
    DomainError, HomotopyType, allowed_types, coverage_probability, elder_c_bounds,
    expected_euler_char, omega, spike_analysis, theorem_b_params,
)
from reference import (
    coverage_probability_exact, expected_euler_char_all_terms, expected_euler_char_exact, n_k_homotopy,
    spike_a_exact, spike_center_exact,
)


# ---------------------------------------------------------------------------
# Coverage probability
# ---------------------------------------------------------------------------

def test_coverage_one_short_arc_never_covers():
    assert coverage_probability(1, 0.7) == 0.0
    assert coverage_probability_exact(1, Fraction(7, 10)) == 0


def test_coverage_two_arcs():
    # second arc's start must fall in an interval of length 2a - 1 = 0.2
    assert coverage_probability_exact(2, Fraction(3, 5)) == Fraction(1, 5)
    assert coverage_probability(2, 0.6) == pytest.approx(0.2, abs=1e-15)


def test_coverage_three_semicircle_arcs():
    # complement event: all 3 centers in an open semicircle, probability 3/4
    assert coverage_probability_exact(3, Fraction(1, 2)) == Fraction(1, 4)
    assert coverage_probability(3, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_coverage_full_arc_certain():
    assert coverage_probability(5, 1.0) == 1.0
    assert coverage_probability_exact(5, Fraction(3, 2)) == 1


def test_coverage_domain_errors():
    with pytest.raises(DomainError):
        coverage_probability(0, 0.5)
    with pytest.raises(DomainError):
        coverage_probability(3, 0.0)
    with pytest.raises(DomainError):
        coverage_probability(3, -0.1)


def test_coverage_zero_below_total_length_one():
    # k arcs of total length < 1 cannot cover: exactly 0 in rational mode
    for k, a in [(2, Fraction(2, 5)), (3, Fraction(1, 4)), (7, Fraction(1, 8)),
                 (10, Fraction(9, 100))]:
        assert k * a < 1
        assert coverage_probability_exact(k, a) == 0


def test_coverage_monotone_in_k_and_arc():
    arcs = [0.05 * i for i in range(1, 20)]
    for a in arcs:
        prev = -1.0
        for k in range(1, 40):
            q = coverage_probability(k, a)
            assert q >= prev - 1e-12
            prev = q
    for k in [2, 5, 10, 25]:
        prev = -1.0
        for a in arcs:
            q = coverage_probability(k, a)
            assert q >= prev - 1e-12
            prev = q


def test_coverage_raw_values_near_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 30))
        a = float(rng.uniform(0.01, 1.2))
        q = coverage_probability(k, a)
        assert -1e-9 <= q <= 1 + 1e-9


@pytest.mark.parametrize("k", [200, 400, 1000])
def test_coverage_survives_cancellation(k):
    # arcs of length tau_10 at t = nu_10: float terms reach 10^29 and beyond
    a = theorem_b_params(10).tau_k
    q = coverage_probability(k, a)
    assert 0 <= q <= 1
    assert abs(q - coverage_probability_exact(k, a)) < 1e-12


def test_coverage_pinned_and_near_certain():
    assert coverage_probability(200, 0.125) == 0.9999999994237213  # the pinned verify b bound
    assert abs(coverage_probability(10**5, 0.12) - 1) < 1e-12
    assert coverage_probability(10**30, 1e-17) == 1.0  # k a = 10^13: no spacing can exceed a


# ---------------------------------------------------------------------------
# Expected Euler characteristic
# ---------------------------------------------------------------------------

def test_chi_exact_spot_values():
    assert expected_euler_char_exact(3, Fraction(1, 4)) == Fraction(3, 4)
    assert expected_euler_char_exact(2, Fraction(1, 10)) == Fraction(8, 5)
    assert expected_euler_char(3, 0.25) == pytest.approx(0.75, abs=1e-14)
    assert expected_euler_char(2, 0.1) == pytest.approx(1.6, abs=1e-14)


def test_chi_single_surviving_term():
    # floor(1/0.998) = 1: only the k=1 term
    assert expected_euler_char(5, 0.001) == pytest.approx(5 * 0.998**4, rel=1e-13)


def test_chi_full_simplex_regime():
    assert expected_euler_char(7, 0.5) == 1.0
    assert expected_euler_char(7, 0.73) == 1.0
    assert expected_euler_char_exact(7, Fraction(1, 2)) == 1


def test_chi_domain_errors():
    with pytest.raises(DomainError):
        expected_euler_char(0, 0.25)
    with pytest.raises(DomainError):
        expected_euler_char(3, 0.0)
    with pytest.raises(DomainError):
        expected_euler_char(3, -0.2)


def test_chi_limits():
    for n in [1, 2, 5, 10, 50]:
        assert abs(expected_euler_char(n, 1e-6) - n) < 1e-3 * n
        assert abs(expected_euler_char(n, 0.5 - 1e-6) - 1) < 1e-3 * n


def chi_breakpoint_jump(n: int, j: int, eps: float = 1e-9) -> float:
    """One-sided limits of chi-bar at the breakpoint r = 1/j, by linear
    extrapolation from t +- eps and t +- 2*eps (removes the slope term that
    would otherwise dominate a symmetric secant at this step size)."""
    t = (1 - 1 / j) / 2
    left = 2 * expected_euler_char(n, t - eps) - expected_euler_char(n, t - 2 * eps)
    right = 2 * expected_euler_char(n, t + eps) - expected_euler_char(n, t + 2 * eps)
    return abs(right - left)


def test_chi_continuous_at_breakpoints():
    for n in range(1, 51):
        for j in range(2, 11):
            assert chi_breakpoint_jump(n, j) < 1e-6, (n, j)


def test_chi_float_matches_rational():
    for n in [*range(1, 21), 100, 400]:
        for i in range(1, 101):
            t = i / 256  # dyadic: float and Fraction agree exactly
            got = expected_euler_char(n, t)
            want = expected_euler_char_exact(n, t)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 20_000), t=st.floats(1e-6, 0.5, exclude_max=True))
@example(n=10**5, t=0.5 - 1e-9)  # 10^5 summands, the mode at k = 99 981
@example(n=400, t=0.2525)  # verify a1's pinned payload
@example(n=1000, t=0.4375)  # 8 * r == 1: the last summand is 0
@example(n=7, t=0.0625)
def test_chi_summed_from_the_mode_is_the_sum_of_every_term(n, t):
    assert expected_euler_char(n, t) == expected_euler_char_all_terms(n, t)


def test_chi_curve_basic():
    chi = expected_euler_char(3, 0.25)
    assert chi == pytest.approx(0.75, abs=1e-14)
    assert chi / 3 == pytest.approx(0.25, abs=1e-14)


def test_chi_curve_single_point_is_constant_one():
    assert all(expected_euler_char(1, t) == 1.0 for t in [0.01, 0.1, 0.3, 0.49])


def test_chi_curve_full_simplex_limit():
    assert abs(expected_euler_char(10, 0.499) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Spike analytics
# ---------------------------------------------------------------------------

def test_omega_values():
    assert omega(1) == pytest.approx(1.0, abs=1e-15)  # 0^0 = 1
    assert omega(2) == pytest.approx(1 / (2 * math.e), rel=1e-14)
    assert omega(3) == pytest.approx(2 / (3 * math.e**2), rel=1e-14)
    with pytest.raises(DomainError):
        omega(0)


def test_spike_analysis_center_and_window():
    spike = spike_analysis(2, 100)
    assert spike.center_t == pytest.approx(100 / 396, rel=1e-15)
    assert spike_center_exact(2, 100) == Fraction(100, 396)
    lo, hi = spike.window_rho
    assert lo < (100 - 2) / (99 * 2) < hi
    assert spike.a_mn <= spike.a_mn + spike.b_mn
    assert spike.a_mn == pytest.approx(float(spike_a_exact(2, 100)), rel=1e-12)
    assert spike.omega_m > 0


def test_spike_bounds_only_mode():
    # Below n > 2m^2 there is no localization window, but the exact height
    # bound and center are still defined for every 2 <= m < n.
    with pytest.raises(DomainError, match="2m"):
        spike_analysis(2, 6)  # 6 <= 2*2^2
    assert spike_a_exact(2, 4) == Fraction(2, 9)
    assert spike_center_exact(2, 4) == Fraction(1, 3)
    with pytest.raises(DomainError, match="m < n"):
        spike_a_exact(4, 4)
    with pytest.raises(DomainError, match="m < n"):
        spike_center_exact(4, 4)


def test_spike_height_limit():
    # a_{2,n} -> omega_2 = 1/(2e)
    assert abs(spike_analysis(2, 100000).a_mn - omega(2)) < 1e-4


def test_spike_precondition_errors_name_the_inequality():
    with pytest.raises(DomainError, match="m >= 2"):
        spike_analysis(1, 100)
    with pytest.raises(DomainError, match="sqrt"):
        spike_analysis(5, 20)
    with pytest.raises(DomainError, match="2m"):
        spike_analysis(2, 7)  # 7 <= 2*2^2
    with pytest.raises(DomainError, match="epsilon"):
        spike_analysis(2, 100, 1.5)


def _exact_grid_max(m: int, n: int, points: int = 41) -> Fraction:
    """Max of chi-bar/n over a rational grid spanning the spike window."""
    spike = spike_analysis(m, n)
    t_lo = (1 - Fraction(spike.window_rho[1])) / 2
    t_hi = (1 - Fraction(spike.window_rho[0])) / 2
    grid = [t_lo + (t_hi - t_lo) * Fraction(i, points - 1) for i in range(points)]
    grid.append(spike_center_exact(m, n))
    return max(expected_euler_char_exact(n, t) for t in grid) / n


@pytest.mark.parametrize("m,n", [(2, 50), (2, 100), (3, 50), (3, 100)])
def test_spike_sandwich(m, n):
    peak = _exact_grid_max(m, n)
    a = spike_a_exact(m, n)
    b = spike_analysis(m, n).b_mn
    assert peak >= a
    assert float(peak - a) <= b


# ---------------------------------------------------------------------------
# Theorem parameter packs
# ---------------------------------------------------------------------------

def test_theorem_b_params():
    p0 = theorem_b_params(0)
    assert (p0.nu_k, p0.tau_k) == (1 / 8, 1 / 8)
    assert p0.r_prime(1 / 8) == pytest.approx(1 / 8, rel=1e-15)
    p1 = theorem_b_params(1)
    assert p1.nu_k == pytest.approx(7 / 24, rel=1e-15)
    assert p1.tau_k == pytest.approx(1 / 24, rel=1e-15)
    for k in range(12):
        p = theorem_b_params(k)
        assert 0 <= p.nu_k - p.tau_k and p.nu_k + p.tau_k < 0.5
    with pytest.raises(DomainError):
        theorem_b_params(-1)


def test_elder_c_bounds():
    kw2 = 2 * omega(2)  # 1/e
    # at delta = k*omega_k both bounds pinch the trivial window [0, 1]
    b = elder_c_bounds(2, kw2)
    assert b[0] == pytest.approx(0.0, abs=1e-12)
    assert b[1] == pytest.approx(1.0, rel=1e-12)

    b = elder_c_bounds(2, 0.1)
    assert b[1] == pytest.approx(math.exp(-1) / 0.1, rel=1e-12)

    b = elder_c_bounds(3, 0.2)
    assert b[0] == pytest.approx((2 * math.e**-2 - 0.2) / 0.8, rel=1e-10)

    for k in (2, 3, 5):
        for delta in (0.05, 0.3, 0.9):
            b = elder_c_bounds(k, delta)
            kw = k * omega(k)
            assert b[0] <= kw <= b[1]
            assert (b[0] > 0) == (delta < kw)
    with pytest.raises(DomainError):
        elder_c_bounds(2, 0.0)
    with pytest.raises(DomainError):
        elder_c_bounds(1, 0.5)


# ---------------------------------------------------------------------------
# Canonical complexes and the constraint set
# ---------------------------------------------------------------------------

def test_n_k_homotopy_table():
    assert n_k_homotopy(4, 2) == HomotopyType.wedge_even(1, 1)   # S^2
    assert n_k_homotopy(5, 3) == HomotopyType.odd_sphere(1)      # S^3
    assert n_k_homotopy(6, 3) == HomotopyType.wedge_even(2, 1)   # wedge^2(S^2)
    with pytest.raises(DomainError):
        n_k_homotopy(4, 4)
    with pytest.raises(DomainError):
        n_k_homotopy(4, -1)


def test_n_k_homotopy_edge_rows():
    for n in range(1, 15):
        assert n_k_homotopy(n, n - 1) == HomotopyType.wedge_even(0, n - 1)
        assert n_k_homotopy(n, 0) == HomotopyType.wedge_even(n - 1, 0)


def test_allowed_types_k2():
    allowed = allowed_types(12, 0.26)  # rho = 0.48, k = 2
    assert allowed.k == 2
    assert allowed.allows(HomotopyType.wedge_even(5, 1))
    assert not allowed.allows(HomotopyType.wedge_even(6, 1))
    assert allowed.allows(HomotopyType.wedge_even(1, 0))
    assert not allowed.allows(HomotopyType.wedge_even(2, 0))
    assert allowed.allows(HomotopyType.odd_sphere(1))
    assert not allowed.allows(HomotopyType.odd_sphere(2))


def test_allowed_types_k1_disjoint_points():
    allowed = allowed_types(9, 0.01)  # k = 1
    assert allowed.k == 1
    for a in range(9):
        assert allowed.allows(HomotopyType.wedge_even(a, 0))
    assert not allowed.allows(HomotopyType.wedge_even(9, 0))


def test_allowed_types_accepts_known_realization():
    assert allowed_types(4, 0.26).allows(HomotopyType.wedge_even(1, 1))
    with pytest.raises(DomainError):
        allowed_types(4, 0.5)
    with pytest.raises(DomainError):
        allowed_types(4, 0.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_allowed_types_rejects_non_finite_t(t):
    with pytest.raises(DomainError):
        allowed_types(5, t)


def test_nan_domain_errors():
    with pytest.raises(DomainError):
        expected_euler_char(5, float("nan"))
    with pytest.raises(DomainError):
        coverage_probability(5, float("nan"))
