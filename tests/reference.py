"""Test-only references: slow, independent forms that the package's fast
paths are checked against.  Nothing in `cechcircle` imports this module."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from cechcircle.circle import PointConfig, _eulers_from_counts, window_counts
from cechcircle.errors import CechCircleError, DomainError
from cechcircle.homotopy import HomotopyType
from cechcircle.montecarlo import Estimate, _tally, proportion_estimate


class SizeError(CechCircleError, ValueError):
    """An instance exceeds a hard size guard (oracle-only code paths)."""


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial; counter-based, order-free.  The trial
    engine draws row i of a census from exactly this stream, bit for bit.

    master_seed and trial are the two 64-bit words of the Philox key, so each
    must lie in [0, 2^64); `_tally` checks the seed before any trial runs.
    """
    key = np.array([master_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# GF(2) homology oracle
# ---------------------------------------------------------------------------

_SIMPLEX_GUARD = 1 << 20


@dataclass(frozen=True)
class SimplicialComplex:
    """Explicit simplex list over a small vertex set, closed under faces."""

    vertex_count: int
    simplices: list[int]  # nonempty vertex bitmasks

    def __post_init__(self):
        if any(m == 0 for m in self.simplices):
            raise DomainError("empty simplex in complex")

    @property
    def simplex_count(self) -> int:
        return len(self.simplices)

    def dimension(self) -> int:
        return max(m.bit_count() for m in self.simplices) - 1

    def by_dimension(self) -> list[list[int]]:
        layers: list[list[int]] = [[] for _ in range(self.dimension() + 1)]
        for m in self.simplices:
            layers[m.bit_count() - 1].append(m)
        return layers

    def euler_characteristic(self) -> int:
        return sum(-1 if m.bit_count() % 2 == 0 else 1 for m in self.simplices)

    def check_face_closure(self) -> bool:
        have = set(self.simplices)
        for m in self.simplices:
            v = m
            while v:
                low = v & -v
                if m ^ low and (m ^ low) not in have:
                    return False
                v ^= low
        return True


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def betti_gf2(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers of the complex over the two-element field.

    Trailing zeros are trimmed; b_0 >= 1 for nonempty complexes.
    """
    if complex_.simplex_count > _SIMPLEX_GUARD:
        raise SizeError(
            f"complex has {complex_.simplex_count} simplices, "
            f"guard is {_SIMPLEX_GUARD}"
        )
    layers = complex_.by_dimension()
    dim = len(layers) - 1
    index = [{m: i for i, m in enumerate(layer)} for layer in layers]
    ranks = [0] * (dim + 2)  # ranks[d] = rank of boundary map from dim d
    for d in range(1, dim + 1):
        face_index = index[d - 1]
        rows = []
        for m in layers[d]:
            row = 0
            v = m
            while v:
                low = v & -v
                row |= 1 << face_index[m ^ low]
                v ^= low
            rows.append(row)
        ranks[d] = _gf2_rank(rows)
    betti = []
    for d in range(dim + 1):
        betti.append(len(layers[d]) - ranks[d] - ranks[d + 1])
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


# ---------------------------------------------------------------------------
# Circle configurations and the oracle complex (small n only)
# ---------------------------------------------------------------------------

_ENUM_GUARD = 20  # build_complex enumerates 2^n subsets


def uniform_config(n: int) -> PointConfig:
    """n equally spaced points i/n, held as exact rationals."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return PointConfig(tuple(Fraction(i, n) for i in range(n)))


def is_simplex(config: PointConfig, subset, t) -> bool:
    """True iff closed arcs of radius t centered at the subset intersect.

    Equivalently, the subset's maximum cyclic gap is >= 1 - 2t (ties count).
    ``subset`` is an iterable of vertex indices into the configuration.
    """
    idx = sorted(set(subset))
    if not idx:
        raise DomainError("empty subset")
    xs = config.positions
    pts = [xs[i] for i in idx]
    if len(pts) == 1:
        return True  # single gap is the whole circle, 1 >= 1 - 2t
    mg = max(b - a for a, b in zip(pts, pts[1:]))
    mg = max(mg, 1 - pts[-1] + pts[0])
    return mg >= 1 - 2 * t


def euler_char_exact(config: PointConfig, t) -> int:
    """Exact Euler characteristic of Cech(config, t) via the gap DP of
    `_eulers_from_counts`: chi = sum_s (-1)^(s-1) (C(n,s) - M_s), with M_s
    the s-subsets that no window holds; O(n) steps on random samples, never
    more than O(n^2)."""
    return int(_eulers_from_counts(window_counts([config.positions], t))[0])


def build_complex(config: PointConfig, t):
    """Materialize Cech(config, t) as an explicit simplex list (n <= 20).

    Simplices are exactly the nonempty subsets of the closed windows of
    length 2t, so the complex is face-closed by construction.
    """
    n = config.n
    if n > _ENUM_GUARD:
        raise SizeError(f"build_complex limited to n <= {_ENUM_GUARD}, got {n}")
    window_masks = set()
    for i, c in enumerate(window_counts(config.positions, t).tolist()):
        mask = 0
        for d in range(c + 1):
            mask |= 1 << ((i + d) % n)
        window_masks.add(mask)
    maximal = [
        w for w in window_masks
        if not any(o != w and o | w == o for o in window_masks)
    ]
    masks: set[int] = set()
    for w in maximal:
        masks.update(_submasks_of(w, n))
    return SimplicialComplex(n, sorted(masks))


def _submasks_of(mask: int, n: int):
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


# ---------------------------------------------------------------------------
# Exact rational closed forms and the canonical complexes N(n, k)
# ---------------------------------------------------------------------------

def coverage_probability_exact(k: int, arc_length) -> Fraction:
    """`coverage_probability` in exact rational arithmetic: the arc length is
    taken as an exact rational and a Fraction is returned."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if arc_length <= 0:
        raise DomainError("arc_length must be > 0")
    a = Fraction(arc_length)
    if a >= 1:
        return Fraction(1)
    # over the common denominator den^(k-1): (1 - l*a)^(k-1) = (den - l*num)^(k-1) / den^(k-1)
    num, den = a.numerator, a.denominator
    total = sum((-1) ** l * math.comb(k, l) * (den - l * num) ** (k - 1)
                for l in range(min(k, den // num) + 1))  # l <= k and l * a <= 1
    return Fraction(total, den ** (k - 1))


def expected_euler_char_exact(n: int, t) -> Fraction:
    """`expected_euler_char` in exact rational arithmetic (t is converted to
    a Fraction, which is lossless for binary floats)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if t <= 0:
        raise DomainError("t must be > 0")
    tq = Fraction(t)
    if tq >= Fraction(1, 2):
        return Fraction(1)
    r = 1 - 2 * tq
    # over the common denominator q^(n-1), r = p/q: each summand is
    # C(n,k) (q - k*p)^(k-1) (k*p)^(n-k) / q^(n-1)
    p, q = r.numerator, r.denominator
    total = sum(math.comb(n, k) * (q - k * p) ** (k - 1) * (k * p) ** (n - k)
                for k in range(1, min(n, q // p) + 1))  # k * r <= 1
    return Fraction(total, q ** (n - 1))


def expected_euler_char_all_terms(n: int, t: float) -> float:
    """`expected_euler_char` for 0 < t < 1/2 as the `fsum` of every summand,
    each computed as the package computes it; the package stops early and
    must return the same float."""
    r = 1.0 - 2.0 * t
    terms = []
    for k in range(1, n + 1):
        kr = k * r
        if kr > 1.0:
            break
        lg = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        if k > 1:
            if 1.0 - kr <= 0.0:
                continue  # kr == 1: the summand is 0
            lg += (k - 1) * math.log(1.0 - kr)
        if k < n:
            lg += (n - k) * math.log(kr)
        terms.append(math.exp(lg))
    return math.fsum(terms)


def spike_center_exact(m: int, n: int) -> Fraction:
    """Exact spike center (m-1)n / (2(n-1)m) in t-coordinates."""
    if m < 2 or n <= m:
        raise DomainError("need 2 <= m < n")
    return Fraction((m - 1) * n, 2 * (n - 1) * m)


def spike_a_exact(m: int, n: int) -> Fraction:
    """Exact spike lower height a_mn = C(n,m)(m-1)^(m-1)(n-m)^(n-m) / (n(n-1)^(n-1)).

    The float field of SpikeAnalysis carries ~1e-13 relative error, which
    matters because the sandwich width b_mn can be smaller than that; the
    sandwich tests compare against this exact value instead.
    """
    if m < 2 or n <= m:
        raise DomainError("need 2 <= m < n")
    num = math.comb(n, m) * (m - 1) ** (m - 1) * (n - m) ** (n - m)
    return Fraction(num, n * (n - 1) ** (n - 1))


def n_k_homotopy(n: int, k: int) -> HomotopyType:
    """Homotopy type of N(n, k): the nerve on n equally spaced points whose
    maximal faces are k+1 consecutive points.  Exact rational comparison."""
    if not 0 <= k <= n - 1:
        raise DomainError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    q = Fraction(k, n - k)  # k/n = l/(l+1)  <=>  k/(n-k) = l
    if q.denominator == 1:
        return HomotopyType.wedge_even(n - k - 1, int(q))
    return HomotopyType.odd_sphere(q.numerator // q.denominator)


# ---------------------------------------------------------------------------
# Monte Carlo coverage
# ---------------------------------------------------------------------------

def _covers(counts: np.ndarray, radius: float):
    """Per row of window counts (a bool for one row), whether the closed arcs
    of the radius cover the circle: iff no window of length 2 * radius is
    empty, or if 2 * radius >= 1, though a lone point's window is empty."""
    return (counts.all(-1) | (2 * radius >= 1)).tolist()


def estimate_coverage(n: int, radius: float, trials: int, master_seed: int) -> Estimate:
    if trials < 2:
        raise DomainError("trials must be >= 2")
    if radius <= 0:
        raise DomainError("radius must be > 0")
    counts = _tally(partial(_coverage, radius=radius), n, radius, trials, master_seed, 1)
    return proportion_estimate(counts[True], trials)


def _coverage(counts: np.ndarray, radius: float) -> tuple[list[bool], np.ndarray]:
    """`_covers` as a trial-engine outcome: the distinct answers of the rows
    and each row's index among them."""
    values, index = np.unique(_covers(counts, radius), return_inverse=True)
    return values.tolist(), index


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------

def list_estimate(values: list) -> tuple[float, float]:
    """Mean and standard error of a list holding one value per trial; the
    estimators read the tally instead and must give the same floats."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)
