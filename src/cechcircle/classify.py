"""Exact homotopy type of Cech complexes of circle points.

Every decision is read from the forward window counts c_i of
`circle.window_counts`, the number of further points in the closed forward
arc of length 2t from point i, so ties are decided exactly as the Euler DP
and the test reference complex builder decide them, and exactly on Fractions
and on Philox samples.  An empty window is a gap > 2t after its point:
several give a wedge of points, one an arc (contractible).  A window holding
every point makes the whole set one simplex.  Otherwise the arcs cover the
circle, and the type depends only on the rotation of the monotone circle map
f(i) = (i + c_i) mod n on its periodic set S (Adamaszek, Adams, Frick,
Peterson and Previte-Johnson, "Nerve complexes of circular arcs", DCG 2016):
f rotates S by s places, so each of the P = gcd(|S|, s) periodic orbits
winds w = s/|S| times per step.  `types_from_counts` decides a whole block
of count rows at once and gives its distinct types and each row's index.
`_classified`, the one guard step, checks each type of a block against the
realizability constraint set and, on request, its Euler characteristic
against the gap DP's; a failure is an internal error.  For n up to
DISTINCT_ROWS_MAX_N (7), where a block repeats most of its count rows, it
classifies and checks each distinct row once and counts it with its
repeats.  The census runs every block of samples through it, `classify` its
one row with the cross-check.
"""
from __future__ import annotations

import math

import numpy as np

from .circle import PointConfig, _eulers_from_counts, window_counts
from .errors import DomainError, InternalInconsistencyError
from .exact import AllowedTypes, allowed_types
from .homotopy import HomotopyType

# `_classified` decides each distinct count row of a block once for n <= this.
# A block holds 16 384 // n rows, of at most C(2n-1, n-1) possible ones (462
# at n = 6, 1 716 at n = 7), so rows repeat at small n and are nearly all
# distinct at larger n, where the key and its sort are pure cost.
# `_classified` on one engine block (seed 7, cross-checked), every row ->
# distinct rows, µs, medians of 201 alternating calls, on a 2-core Xeon VM at
# numpy 2.4, in a fast run A and a slower run B:
#   n    t = 0.2: A       B              t = 0.42: A     B
#   4    1 211 ->   286   1 624 ->   395     501 -> 247    545 -> 291
#   5    1 242 ->   331   1 273 ->   343     446 -> 222    436 -> 209
#   6    1 430 ->   507   1 635 ->   588     376 -> 225    380 -> 220
#   7    1 129 ->   612   1 202 ->   671     351 -> 263    343 -> 259
#   8    1 099 ->   834   1 641 -> 1 278     356 -> 345    343 -> 344
#   9    1 090 -> 1 054   1 478 -> 1 436     372 -> 432    368 -> 426
#   10   1 016 -> 1 051   1 077 -> 1 132     376 -> 479    344 -> 436
# On a grid of t from 0.05 to 0.49, n = 7 won at every t, by 13% or more,
# while n = 8 lost at t = 0.4 and 0.42 (660 -> 696 and 511 -> 572 µs).
DISTINCT_ROWS_MAX_N = 7


def classify(config: PointConfig, t) -> HomotopyType:
    """Exact homotopy type of Cech(config, t) for finite t > 0, through the guard step."""
    if not 0 < t < math.inf:  # nan fails too
        raise DomainError("t must be > 0" if t <= 0 else f"t must be finite, got {t}")
    if 1 - 2 * t <= 0:
        return HomotopyType.point()
    allowed = allowed_types(config.n, t)
    try:
        (ht,) = _classified(window_counts([config.positions], t), allowed, cross_check=True)
    except InternalInconsistencyError as exc:
        raise InternalInconsistencyError(f"{exc.args[0]} at t={float(t)}") from None
    return ht


def _classified(counts: np.ndarray, allowed: AllowedTypes, cross_check: bool) -> dict[HomotopyType, int]:
    """The homotopy types of a `(rows, n)` block of window count rows, each
    with its number of rows.  The first row whose type `allowed` rejects or,
    with `cross_check`, whose Euler characteristic is not the gap DP's raises
    InternalInconsistencyError(message, row).

    The type, the constraint check and the DP's chi each depend on the count
    row alone, so for n <= DISTINCT_ROWS_MAX_N each distinct row is decided
    once, in the order of its key sum(c_i n^i) (exact in int64 for n <= 15),
    and each type counted with the number of rows of its distinct rows.  On
    a failure the verdicts go back to every row, so the first failing row
    is named, as without the step."""
    rows, n = counts.shape
    weight = None
    if n <= DISTINCT_ROWS_MAX_N:
        key = counts @ n ** np.arange(n, dtype=np.int64)
        order = key.argsort()
        new = np.diff(key[order], prepend=-1) != 0  # keys are >= 0
        starts = np.flatnonzero(new)
        weight = np.diff(starts, append=rows)
        counts = counts[order[starts]]
    types, index = types_from_counts(counts)
    outside = ~np.array([allowed.allows(ht) for ht in types])[index]
    wrong = outside.copy()
    if cross_check:
        wrong |= np.array([ht.euler_characteristic() for ht in types])[index] != _eulers_from_counts(counts)
    if wrong.any():
        if weight is not None:  # each row's distinct row, for the earliest failing row
            distinct = np.empty(rows, dtype=np.intp)
            distinct[order] = new.cumsum() - 1
            index, outside, wrong = index[distinct], outside[distinct], wrong[distinct]
        ht, row = types[index[wrong.argmax()]], int(wrong.argmax())
        raise InternalInconsistencyError(
            f"classified type {ht.display()} outside the constraint set for n={allowed.n}"
            if outside[row] else f"Euler cross-check failed for {ht.display()}", row)
    return dict(zip(types, np.bincount(index, weight).astype(np.int64).tolist()))


def types_from_counts(counts: np.ndarray) -> tuple[list[HomotopyType], np.ndarray]:
    """The distinct homotopy types of the rows of a `(rows, n)` block of
    `window_counts`, unvalidated, and for each row the index of its type.

    A covering row has every c_i in [1, n - 2] and non-decreasing window
    ends i + c_i + 1, so f is a monotone degree-one circle map without fixed
    points.  S is the image of f^m for any m >= n, reached by ceil(log2 n)
    squarings, and s the rank in S of f(min S).  With
    l, r = divmod(s, |S| - s) the type is the wedge of P - 1 copies of
    S^(2l) if r = 0, else S^(2l+1).
    """
    rows, n = counts.shape
    breaks = (counts == 0).sum(1)
    covering = (breaks == 0) & (counts.max(1) < n - 1)
    a = np.maximum(breaks - 1, 0)
    l = np.zeros(rows, dtype=np.int64)
    odd = np.zeros(rows, dtype=bool)
    # f and its powers as flat indices into the covering rows, row j's
    # points at n j .. n j + n - 1, so that squaring is one fancy index
    cov = counts[covering]
    base = n * np.arange(len(cov))
    f = ((np.arange(n) + cov) % n + base[:, None]).ravel()
    image = f
    for _ in range((n - 1).bit_length()):
        image = image[image]
    periodic = np.zeros(f.shape, dtype=bool)
    periodic[image] = True
    periodic = periodic.reshape(cov.shape)
    size = periodic.sum(1)
    rank = periodic.cumsum(1).ravel() - 1
    s = rank[f[base + periodic.argmax(1)]]
    l[covering], r = np.divmod(s, size - s)
    odd[covering] = r != 0
    a[covering] = np.gcd(size, s) - 1
    l[~odd & (a == 0)] = 0  # the point has one code, as wedge_even(0, l) is the point
    a[odd] = 0  # and an odd sphere has no wedge multiplicity
    codes, index = np.unique((a * (n + 1) + l) * 2 + odd, return_inverse=True)
    a, l = np.divmod(codes // 2, n + 1)  # a, l <= n
    types = [HomotopyType.odd_sphere(l) if odd else HomotopyType.wedge_even(a, l)
             for odd, l, a in zip((codes % 2).tolist(), l.tolist(), a.tolist())]
    return types, index
