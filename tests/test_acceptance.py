"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All statistical checks use the pinned master seed below; tolerances are the
ones stated with each criterion.
"""
from fractions import Fraction

from cechcircle import (
    classify, estimate_chi, omega, run_census, spike_analysis, verify_theorem_a2,
    verify_theorem_b, verify_theorem_elder_c,
)
from reference import (
    betti_gf2, build_complex, coverage_probability_exact, estimate_coverage,
    expected_euler_char_exact, spike_a_exact, spike_center_exact,
)
from test_exact import chi_breakpoint_jump

import numpy as np

from conftest import random_config

SEED = 20260823


def _report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_exact_spot_values():
    exact_ok = (
        expected_euler_char_exact(3, Fraction(1, 4)) == Fraction(3, 4)
        and expected_euler_char_exact(2, Fraction(1, 10)) == Fraction(8, 5)
    )
    est3 = estimate_chi(3, 0.25, 10**5, SEED)
    est2 = estimate_chi(2, 0.1, 10**5, SEED)
    mc_ok = (abs(est3.mean - 0.75) <= 3 * est3.std_error
             and abs(est2.mean - 1.6) <= 3 * est2.std_error)
    _report(1, exact_ok and mc_ok,
            f"chi(3,1/4)=3/4 and chi(2,1/10)=8/5 exactly; "
            f"MC means {est3.mean:.5f}, {est2.mean:.5f} within 3 SE")


def test_criterion_2_stevens_coverage():
    exact_ok = (
        coverage_probability_exact(2, Fraction(3, 5)) == Fraction(1, 5)
        and coverage_probability_exact(3, Fraction(1, 2)) == Fraction(1, 4)
    )
    est2 = estimate_coverage(2, 0.3, 10**5, SEED)  # arcs of length 0.6
    est3 = estimate_coverage(3, 0.25, 10**5, SEED)
    mc_ok = (abs(est2.mean - 0.2) <= 3 * est2.std_error
             and abs(est3.mean - 0.25) <= 3 * est3.std_error)
    _report(2, exact_ok and mc_ok,
            f"Q_2(0.3)=1/5 and Q_3(0.25)=1/4 exactly; "
            f"frequencies {est2.mean:.4f}, {est3.mean:.4f} within 3 SE")


def test_criterion_3_spike_structure():
    details = []
    ok = True
    for m, n in [(2, 50), (2, 100), (3, 100)]:
        spike = spike_analysis(m, n)
        t_lo = (1 - Fraction(spike.window_rho[1])) / 2
        t_hi = (1 - Fraction(spike.window_rho[0])) / 2
        grid = [t_lo + (t_hi - t_lo) * Fraction(i, 50) for i in range(51)]
        grid.append(spike_center_exact(m, n))
        peak = max(expected_euler_char_exact(n, t) for t in grid) / n
        a = spike_a_exact(m, n)
        inside = a <= peak and float(peak - a) <= spike.b_mn
        ok = ok and inside
        details.append(f"({m},{n}) margin {float(peak - a):.2e} <= {spike.b_mn:.2e}")
    a_tail = spike_analysis(2, 1000).a_mn
    tail_ok = abs(a_tail - omega(2)) < 0.01
    ok = ok and tail_ok
    _report(3, ok, "; ".join(details) + f"; a_2,1000={a_tail:.5f} vs omega_2")


def test_criterion_4_classifier_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        config = random_config(rng, n)
        t = float(rng.uniform(0.01, 0.49))
        ht = classify(config, t)
        if ht.betti() != betti_gf2(build_complex(config, t)):
            mismatches += 1
    _report(4, mismatches == 0,
            f"500 instances n<=12, Betti mismatches: {mismatches}")


def test_criterion_5_per_sample_euler_cross_check():
    details = []
    ok = True
    for n, t in [(50, 0.2525), (100, 0.33)]:
        census = run_census(n, t, 1000, SEED)  # raises on any chi disagreement
        good = census.chi_checked == 1000
        ok = ok and good
        details.append(f"(n={n}, t={t}) agreed {census.chi_checked}/1000")
    _report(5, ok, "; ".join(details))


def test_criterion_6_theorem_a2_sandwich():
    report = verify_theorem_a2(2, 50, 2000, SEED)
    chi = report.details["chi_normalized"]
    b = report.details["betti_normalized"]
    _report(6, report.passed,
            f"b_2/n = {b:.4f} in [{chi - 0.05:.4f}, {chi:.4f}]")


def test_criterion_7_theorem_b():
    report = verify_theorem_b(0, 200, 0.125, 500, SEED)
    bound = report.details["bound"]
    ok = report.passed and bound > 0.99
    _report(7, ok,
            f"S^1 frequency {report.details['frequency']:.4f} >= "
            f"Q_200(1/16) = {bound:.6f} - 3 SE")


def test_criterion_8_theorem_elder_c_window():
    report = verify_theorem_elder_c(2, 100, 10**4, SEED)
    lo, hi = report.details["window"]
    _report(8, report.passed,
            f"B empirical {report.details['B_empirical']:.4f} in "
            f"[{lo:.4f}, {hi:.4f}]")


def test_criterion_9_breakpoint_continuity():
    worst = max(chi_breakpoint_jump(n, j)
                for n in range(1, 51) for j in range(2, 11))
    _report(9, worst < 1e-6, f"max breakpoint jump {worst:.2e} < 1e-6")
