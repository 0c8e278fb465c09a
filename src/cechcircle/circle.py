"""Circle geometry: point configurations, window counts, exact per-sample
Euler characteristics, the oracle complex and the point-file format.

Positions live on the unit-circumference circle [0, 1), as floats or exact
Fractions (equally spaced configurations and point files).  Every reach test
("the closed arc of length 2t from point a reaches point b") is made by
`window_counts`, whose counts the classifier, the Euler DP, coverage (no
empty window) and the complex builder all read, so each tie is decided once;
its differences are exact on Fractions and on Philox samples (2^-53 grid).
It counts one row or a whole block of rows in numpy: one searchsorted
guesses every window end and an exact fix-up settles each tie, on float
arrays and on object arrays of Fractions alike.  A Monte Carlo sample is
counted once, in its block.  The Euler DP needs nothing else: its chain
counts reduce to ancestor tests on a tree read from the counts, O(n) steps
on random samples, run for all rows of a block together.  Only the test
reference `is_simplex` compares cyclic gaps instead.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def window_counts(xs, t) -> np.ndarray:
    """For each of the sorted positions xs, how many further points lie in
    the closed forward arc of length 2t starting there (capped at n-1).

    xs is one sorted row of positions, or a (rows, n) array of sorted rows;
    the counts come back as an integer array of the same shape.  Fractions go
    through object arrays, so their arithmetic stays exact.  With ext the
    row's positions shifted by -1 followed by the row itself, c_i is the
    number of e in (i, i+n) with ext[e] - ext[i] <= 2t: x_b - x_a, or
    1 - (x_a - x_b) across the wrap, compared with 2t.  One searchsorted
    over all rows, row r shifted by 4r so that rows never interleave,
    guesses each window end; each end then moves by one until that exact
    test holds for it and fails for the next, so the rounding of the
    shifted values never decides a tie.
    """
    xs = np.asarray(xs)
    rows = xs.reshape(-1, xs.shape[-1])
    n = rows.shape[1]
    width = 2 * t
    ext = np.concatenate([rows - 1, rows], axis=1)
    start = ext[:, :n]
    row = np.arange(len(rows))[:, None]
    shifted = (ext + 4 * row).ravel()
    ext = ext.ravel()
    first = 2 * n * row + np.arange(n)  # flat index of ext[i]
    end = first + (n - 1)  # flat index of ext[i + n - 1], the farthest window end
    last = np.searchsorted(shifted, shifted[first] + width, side="right") - 1
    last = np.minimum(np.maximum(last, first), end)  # flat index of ext[i + c_i]
    while True:
        grow = (last < end) & (ext[last + 1] - start <= width)
        shrink = (last > first) & ~(ext[last] - start <= width)
        if not (grow.any() or shrink.any()):
            return (last - first).reshape(xs.shape)
        last += grow.astype(last.dtype) - shrink


def euler_char_exact(config: PointConfig, t) -> int:
    """Exact Euler characteristic of Cech(config, t) via the gap DP of
    `_eulers_from_counts`: chi = sum_s (-1)^(s-1) (C(n,s) - M_s), with M_s
    the s-subsets that no window holds; O(n) steps on random samples, never
    more than O(n^2)."""
    return int(_eulers_from_counts(window_counts([config.positions], t))[0])


def _eulers_from_counts(counts: np.ndarray) -> np.ndarray:
    """Euler characteristic of the Cech complex of each row c of a
    `(rows, n)` block of `window_counts`, as an int64 array.

    A set S spans no simplex iff no window of a chosen point reaches the
    chosen point cyclically before it.  Fix the lowest chosen index i and
    let h_i[j] be the signed count, (-1)^(length), of chains i = j_0 < ... <
    j_last = j in which no window reaches the previous chain point, with
    prefix sums pref_i[j+1] = h_i[i] + ... + h_i[j].  Across the wrap, j's
    window reaches a < j iff a < first_j = c_j - (n-1-j).  So pref_i[m] = 0
    for m <= i, pref_i[i+1] = -1, and pref_i[j+1] = pref_i[p(j+1)] for j > i,
    with parent p(j+1) = max(first_j, 0) <= j.  Hence pref_i[k] = -1 exactly
    when i+1 lies on the path k -> p(k) -> ... -> 0, and 0 otherwise.  A
    chain must end past i's window, beyond i + c_i, and the sum of h_i over
    those ends telescopes to pref_i[n] - pref_i[min(i + c_i + 1, n)]:

        chi = 1 + #{i : i+1 lies on the path from min(i + c_i + 1, n)}
                - #{nodes >= 1 on the path from n}.

    Each test walks the path down to i+1 in at most c_i steps, and in about
    2t/(1-2t) steps on random samples, where a step jumps back by about
    n(1-2t) points.  All rows advance together, row r's tree at flat
    indices offset by (n+1) r, so a block takes as many steps as its
    longest path.
    """
    rows, n = counts.shape
    chi = np.ones(rows, dtype=np.int64)  # a window holding every point: the full simplex
    split = np.flatnonzero(counts.max(1) < n - 1)
    c = counts[split]
    k = np.arange(1, n + 1)
    base = (n + 1) * np.arange(len(c))[:, None]
    # parent[k] = max(first_{k-1}, 0) with first_{k-1} = c_{k-1} + k - n
    parent = np.concatenate([base, base + np.maximum(k + c - n, 0)], axis=1).ravel()
    top = (base + k).ravel()  # top = i + 1
    node = (base + np.minimum(k + c, n)).ravel()
    up = np.flatnonzero(node > top)
    while len(up):
        step = parent[node[up]]
        node[up] = step
        up = up[step > top[up]]
    path, live = base[:, 0] + n, np.arange(len(c))  # rows whose node on the path from n is >= 1
    while len(live):
        chi[split[live]] -= 1
        path[live] = parent[path[live]]
        live = live[path[live] > base[live, 0]]
    chi[split] += (node == top).reshape(c.shape).sum(1)
    return chi


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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PointFileError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    points = []
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
