"""Closed-form quantities for random Cech complexes of circular arcs.

Conventions used throughout:

* The circle has unit circumference.
* The public coordinate is always the filtration radius ``t``; the dual gap
  parameter ``rho = 1 - 2t`` appears only internally and in window outputs
  explicitly labelled as rho-coordinates.
* ``0**0 == 1`` everywhere.
* Expected Euler characteristics are evaluated through the all-nonnegative
  sum (log-gamma term computation); the alternating coverage sum in 60-digit
  decimals.  Exact rational forms of both live with the test references
  (tests/reference.py) as ground truth.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .homotopy import HomotopyType


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# ---------------------------------------------------------------------------
# Coverage probability (Stevens)
# ---------------------------------------------------------------------------

def coverage_probability(k: int, arc_length) -> float:
    """Probability that k i.i.d. uniform arcs of the given length cover the circle.

    Stevens' sum sum_{l*a < 1} (-1)^l C(k,l) (1 - l*a)^(k-1) at the float a.
    The k spacings of the starts are negatively associated (Joag-Dev and
    Proschan, Ann. Statist. 1983), so it is at most exp(-S), S = k (1-a)^(k-1):
    0 beyond S = 40.  Below, the terms stay under e^S < 10^18 but may cancel;
    60 decimal digits sum them to within 1e-17 for k up to 10^20, in [0, 1].
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not arc_length > 0:  # nan fails too
        raise DomainError("arc_length must be > 0")
    a = float(arc_length)
    if a >= 1.0:
        return 1.0
    if math.log(k) + (k - 1) * math.log1p(-a) > math.log(40):
        return 0.0
    num, den = a.as_integer_ratio()
    with decimal.localcontext(decimal.Context(prec=60)):
        total, comb = decimal.Decimal(0), decimal.Decimal(1)  # comb = C(k, l)
        for l in range(min(k, (den - 1) // num) + 1):  # l * a < 1; at l * a == 1 a term is 0
            term = comb * (decimal.Decimal(den - l * num) / den) ** (k - 1)
            total += -term if l % 2 else term
            if term < decimal.Decimal("1e-60"):
                break  # the terms' logs are concave in l, from 0: every later term is smaller
            comb = comb * (k - l) / (l + 1)
    return max(0.0, float(total))  # a sum of 0 can come out as -1e-42


# ---------------------------------------------------------------------------
# Expected Euler characteristic (piecewise polynomial in the gap parameter)
# ---------------------------------------------------------------------------

def expected_euler_char(n: int, t) -> float:
    """Expected Euler characteristic of the Cech complex of n uniform points.

    With r = 1 - 2t this is sum_{k=1}^{floor(1/r)} C(n,k)(1-kr)^(k-1)(kr)^(n-k);
    all summands are nonnegative.  Returns exactly 1 where n r <= 1 (t >= 1/2
    included): every sample is then the full simplex, as its largest gap is
    at least 1/n >= r, and with every summand kept the sum is 1 by Abel's
    identity.
    The log of a summand is concave in k, so the summands rise to one mode
    and fall away from it: they are summed outward from the mode until the
    ones left, each at most the last summed on its side, cannot change the
    correctly rounded `fsum` of all of them.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not t > 0:  # nan fails too
        raise DomainError("t must be > 0")
    r = 1.0 - 2.0 * float(t)
    if n * r <= 1.0:
        return 1.0
    last = min(n, int(1.0 / r) + 1)
    while last * r > 1.0:
        last -= 1  # the summands are those with k * r <= 1 in floats

    def log_term(k: int) -> float:
        lg = _log_comb(n, k)
        if k > 1:
            base = 1.0 - k * r
            if base <= 0.0:
                return -math.inf  # kr == 1: (1 - kr)^(k-1) is 0 (at k = 1 it is 0**0 == 1)
            lg += (k - 1) * math.log(base)
        if k < n:
            lg += (n - k) * math.log(k * r)
        return lg

    lo, hi = 1, last
    while lo < hi:  # the mode: the first k whose successor is no larger
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if log_term(mid + 1) > log_term(mid) else (lo, mid)
    terms = [math.exp(log_term(lo))]
    total = terms[0]
    edge, step = {-1: total, 1: total}, {-1: lo - 1, 1: lo + 1}  # per side: last summand, next k
    while True:
        # the k left on a side number step[-1] and last - step[1] + 1; the 2
        # covers the rounding of the summands next to the mode
        bound = {-1: 2 * step[-1] * edge[-1], 1: 2 * (last + 1 - step[1]) * edge[1]}
        rest = bound[-1] + bound[1]
        if rest <= total * 2.0**-60 and math.fsum(terms + [rest]) == (chi := math.fsum(terms)):
            return chi
        side = max(bound, key=bound.get)
        terms.append(math.exp(log_term(step[side])))
        total += terms[-1]
        edge[side], step[side] = terms[-1], step[side] + side


# ---------------------------------------------------------------------------
# Spike analytics
# ---------------------------------------------------------------------------

def omega(m: int) -> float:
    """Normalized limiting spike height (m-1)^(m-1) / (m! e^(m-1))."""
    if m < 1:
        raise DomainError("m must be >= 1")
    lg = -math.lgamma(m + 1) - (m - 1)
    if m > 1:
        lg += (m - 1) * math.log(m - 1)
    return math.exp(lg)


@dataclass(frozen=True)
class SpikeAnalysis:
    """Per-spike record; window is in rho-coordinates (rho = 1 - 2t)."""

    m: int
    n: int
    center_t: float
    a_mn: float
    b_mn: float
    omega_m: float
    window_rho: tuple[float, float]


def spike_center(m: int, n: int) -> float:
    """t = n(m-1)/(2m(n-1)), the centre of the m-th Euler spike, correctly
    rounded: Python divides the two ints exactly and rounds once."""
    return (m - 1) * n / (2 * (n - 1) * m)


def spike_analysis(m: int, n: int, epsilon: float = 0.1) -> SpikeAnalysis:
    """Height bounds and localization window of the m-th Euler spike.

    Requires 2 <= m, m < sqrt(n), n > 2m^2 and epsilon in (0,1).  b_mn is
    inf where it exceeds the float range.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got m={m}")
    if not m * m < n:
        raise DomainError(f"need m < sqrt(n): m^2={m * m} >= n={n}")
    if not n > 2 * m * m:
        raise DomainError(f"need n > 2m^2: n={n} <= {2 * m * m}")
    if not 0 < epsilon < 1:
        raise DomainError(f"need epsilon in (0,1), got {epsilon}")

    lg_a = (
        _log_comb(n, m)
        + (m - 1) * math.log(m - 1)
        + (n - m) * math.log(n - m)
        - math.log(n)
        - (n - 1) * math.log(n - 1)
    )
    a_mn = math.exp(lg_a)
    try:
        b_mn = math.exp(1.0 + (m - 1) * math.log(n) + (n - 1) * math.log(m / (m + 1)))
    except OverflowError:  # the bound is past the float range
        b_mn = math.inf
    center_rho = (n - m) / ((n - 1) * m)
    half = epsilon * math.sqrt(m - 1) / n
    window = (center_rho * (1 - half), center_rho * (1 + half))
    return SpikeAnalysis(m, n, spike_center(m, n), a_mn, b_mn, omega(m), window)


# ---------------------------------------------------------------------------
# Theorem parameter packs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremBParams:
    """Odd-sphere plateau: S^(2k+1) dominates for |t - nu_k| < tau_k."""

    k: int
    nu_k: float
    tau_k: float

    def r_prime(self, t: float) -> float:
        """Coverage slack at radius t; the success bound is Q_n(r'/2)."""
        return self.tau_k - abs(t - self.nu_k)


def theorem_b_params(k: int) -> TheoremBParams:
    if k < 0:
        raise DomainError("k must be >= 0")
    denom = 4 * (k + 1) * (k + 2)
    return TheoremBParams(k, (2 * k * k + 4 * k + 1) / denom, 1 / denom)


def elder_c_bounds(k: int, delta: float) -> tuple[float, float]:
    """Raw analytic bounds (beta-, beta+) on the aggregated even-wedge
    probability B_{k,delta}; they may leave [0,1]."""
    if k < 2:
        raise DomainError("k must be >= 2")
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0,1)")
    kw = k * omega(k)
    return (kw - delta) / (1 - delta), kw / delta


# ---------------------------------------------------------------------------
# The constraint set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllowedTypes:
    """Realizable homotopy types of Cech complexes of n circle points at radius t."""

    n: int
    k: int  # floor(1/rho), rho = 1 - 2t

    def allows(self, ht: HomotopyType) -> bool:
        if ht.kind == "odd":
            return 2 * ht.l + 1 <= 2 * self.k - 1
        a, b = ht.a, ht.l
        if b + 1 <= self.k - 1 and (a + 1) * (self.k - b - 1) <= self.k:
            return True
        return b + 1 == self.k and (a + 1) * self.k <= self.n



def allowed_types(n: int, t) -> AllowedTypes:
    """The constraint set at (n, t)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 < t < Fraction(1, 2):  # nan and inf fail here, before Fraction(t)
        raise DomainError("t must be in (0, 1/2)")
    rho = 1 - 2 * Fraction(t)
    k = int(1 / rho)  # Fraction floor via int() is exact for positive values
    return AllowedTypes(n, k)
