"""Circle geometry: point configurations, window counts, exact per-sample
Euler characteristics, and coverage.

Positions live on the unit-circumference circle [0, 1), as floats or exact
Fractions (equally spaced configurations and point files).  Every reach test
("the closed arc of length 2t from point a reaches point b") is made by
`window_counts`, whose counts the classifier, the Euler DP and the complex
builder all read, so each tie is decided once; its differences are exact on
Fractions and on Philox samples (2^-53 grid).  Coverage and the test
reference `is_simplex` compare cyclic gaps instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PointFileError, SizeError

_ENUM_GUARD = 20  # build_complex enumerates 2^n subsets


@dataclass(frozen=True)
class PointConfig:
    """Sorted, deduplicated finite point set on the circle."""

    positions: tuple

    def __post_init__(self):
        if not self.positions:
            raise DomainError("empty point configuration")

    @staticmethod
    def from_points(points) -> "PointConfig":
        pts = sorted(set(points))
        for p in pts:
            if not 0 <= p < 1:
                raise DomainError(f"position {p} outside [0, 1)")
        return PointConfig(tuple(pts))

    @property
    def n(self) -> int:
        return len(self.positions)

    def gaps(self) -> tuple:
        """Cyclic gaps between consecutive points; they sum to 1."""
        xs = self.positions
        if len(xs) == 1:
            return (1,)
        out = [b - a for a, b in zip(xs, xs[1:])]
        out.append(1 - xs[-1] + xs[0])
        return tuple(out)


def uniform_config(n: int) -> PointConfig:
    """n equally spaced points i/n, held as exact rationals."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return PointConfig(tuple(Fraction(i, n) for i in range(n)))


def sample_uniform(n: int, rng) -> PointConfig:
    """n i.i.d. uniform points from the supplied numpy Generator."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return PointConfig.from_points(float(x) for x in rng.random(n))


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


def covers_circle(config: PointConfig, radius) -> bool:
    """True iff closed arcs of the given radius cover the circle (ties covered)."""
    if radius <= 0:
        raise DomainError("radius must be > 0")
    return max(config.gaps()) <= 2 * radius


def window_counts(xs, t) -> list[int]:
    """For each of the sorted positions xs, how many further points lie in
    the closed forward arc of length 2t starting there (capped at n-1).
    Two-pointer, O(n); it compares only x_b - x_a and 1 - (x_a - x_b) with 2t.
    """
    n = len(xs)
    width = 2 * t
    ext = [x - 1 for x in xs] + list(xs)
    counts = [0] * n
    e = 0
    for i in range(n):
        if e < i + 1:
            e = i + 1
        while e < i + n and ext[e] - ext[i] <= width:
            e += 1
        counts[i] = e - i - 1
    return counts


def euler_char_exact(config: PointConfig, t) -> int:
    """Exact Euler characteristic of Cech(config, t) via the gap DP.

    chi = sum_s (-1)^(s-1) N_s with N_s = C(n,s) - M_s, where M_s counts
    s-subsets that span no simplex: no window holds them all.  The DP fixes
    the lowest-index chosen point and runs a prefix-sum-accelerated chain
    count over the remaining points; the alternating sum over s is
    accumulated directly inside the DP (each added point flips the sign), so
    the whole computation is O(n^2) in exact integer arithmetic.
    """
    return _euler_from_sorted(config.positions, t)


def _euler_from_sorted(xs, t) -> int:
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


# ---------------------------------------------------------------------------
# Oracle materialization (small n only)
# ---------------------------------------------------------------------------

def build_complex(config: PointConfig, t):
    """Materialize Cech(config, t) as an explicit simplex list (n <= 20).

    Simplices are exactly the nonempty subsets of the closed windows of
    length 2t, so the complex is face-closed by construction.
    """
    from .homology import SimplicialComplex

    n = config.n
    if n > _ENUM_GUARD:
        raise SizeError(f"build_complex limited to n <= {_ENUM_GUARD}, got {n}")
    window_masks = set()
    for i, c in enumerate(window_counts(config.positions, t)):
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
# Point-file format: one decimal in [0,1) per line, '#' comments allowed.
# ---------------------------------------------------------------------------

def parse_decimal(text: str) -> Fraction:
    """Exact rational value of a decimal string such as "0.2" or "1e-3".

    Accepts the syntax of float(), so that ties such as five points 0.2
    apart at t = 0.1 are decided exactly rather than after a binary round-off.
    Raises ValueError for anything else and for inf and nan.
    """
    if not math.isfinite(float(text)):
        raise ValueError(f"not a finite decimal: {text!r}")
    return Fraction(text.replace("_", ""))  # float() has checked the underscores


def load_point_file(path) -> PointConfig:
    """Points of a point file, held as exact rationals."""
    points = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = parse_decimal(line)
            except ValueError:
                raise PointFileError(line_no, f"not a decimal: {line!r}") from None
            if not 0 <= value < 1:
                raise PointFileError(line_no, f"value {value} outside [0, 1)")
            points.append(value)
    if not points:
        raise PointFileError(0, "no points in file")
    return PointConfig.from_points(points)
