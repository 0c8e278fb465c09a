"""Circle geometry: point configurations, window counts, exact per-sample
Euler characteristics and the point-file format.

Positions live on the unit-circumference circle [0, 1), as floats or exact
Fractions (point files).  Every reach test ("the closed arc of length 2t
from point a reaches point b") is made by `window_counts`, whose counts the
classifier and the Euler DP read, and so do the test references for coverage
(no empty window) and the complex builder, so each tie is decided once;
its differences are exact on Fractions and on Philox samples (2^-53 grid).
It counts one row or a whole block of rows in numpy, on float arrays and on
object arrays of Fractions alike, by one binary search per window end whose
every probe is that exact test, so no rounded value ever decides a tie.
A Monte Carlo sample is counted once, in its block.  The Euler DP
needs nothing else: its chain counts reduce to ancestor tests on a tree read
from the counts, O(n) steps on random samples, run for all rows of a block
together.  Only the test references' subset predicate (tests/reference.py)
compares cyclic gaps.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PointFileError


@dataclass(frozen=True)
class PointConfig:
    """Non-empty point set on the circle.  Built from any iterable of
    positions, it holds them sorted and deduplicated, each in [0, 1)."""

    positions: tuple

    def __post_init__(self):
        positions = tuple(sorted(set(self.positions)))
        if not positions:
            raise DomainError("empty point configuration")
        for p in positions:
            if not 0 <= p < 1:  # nan fails too
                raise DomainError(f"position {p} outside [0, 1)")
        object.__setattr__(self, "positions", positions)

    @property
    def n(self) -> int:
        return len(self.positions)


def window_counts(xs, t) -> np.ndarray:
    """For each of the sorted positions xs, how many further points lie in
    the closed forward arc of length 2t starting there (capped at n-1).

    xs is one sorted row of positions, or a (rows, n) array of sorted rows;
    the counts come back as an integer array of the same shape.  Fractions go
    through object arrays, so their arithmetic stays exact.  With ext the
    row's positions shifted by -1 followed by the row itself, c_i is the
    number of e in (i, i+n) with ext[e] - ext[i] <= 2t: x_b - x_a, or
    x_b - (x_a - 1) across the wrap, compared with 2t.  ext is sorted, so
    the test holds for e = i+1 ... i+c_i and for no later e.

    A binary search finds every c_i at once in bit_length(n - 1) probes,
    each one gather and the exact test.  The end e starts at i, and
    c_i - (e - i) lies in [0, m] with m = n - 1 at first.  While m > 0, e
    moves on by d = m - m // 2 where the test holds at e + d; either way
    c_i - (e - i) then lies in [0, m // 2], the next m.  So no probe passes
    i + n - 1, inside the row of ext, and no rounded value decides a tie.
    """
    xs = np.asarray(xs)
    rows = xs.reshape(-1, xs.shape[-1])
    n = rows.shape[1]
    width = 2 * t
    start = rows - 1
    ext = np.concatenate([start, rows], axis=1).ravel()
    first = 2 * n * np.arange(len(rows))[:, None] + np.arange(n)  # flat index of ext[i]
    end = first.copy()
    m = n - 1
    while m:
        step = m - m // 2
        end += (ext[step:][end] - start <= width).astype(np.intp) * step
        m //= 2
    return (end - first).reshape(xs.shape)


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
    return PointConfig(points)
