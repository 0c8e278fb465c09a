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
against the gap DP's; a failure is an internal error.  The census runs every
block of samples through it, as the trial engine hands it over (each
distinct count row once for small n), and `classify` its one row with the
cross-check.
"""
from __future__ import annotations

import math

import numpy as np

from .circle import PointConfig, _eulers_from_counts, window_counts
from .errors import DomainError, InternalInconsistencyError
from .exact import AllowedTypes, allowed_types
from .homotopy import HomotopyType


def classify(config: PointConfig, t) -> HomotopyType:
    """Exact homotopy type of Cech(config, t) for finite t > 0, through the guard step."""
    if not 0 < t < math.inf:  # nan fails too
        raise DomainError("t must be > 0" if t <= 0 else f"t must be finite, got {t}")
    if 1 - 2 * t <= 0:
        return HomotopyType.point()
    allowed = allowed_types(config.n, t)
    try:
        (ht,), _ = _classified(window_counts([config.positions], t), allowed, cross_check=True)
    except InternalInconsistencyError as exc:
        raise InternalInconsistencyError(f"{exc.args[0]} at t={float(t)}") from None
    return ht


def _classified(counts: np.ndarray, allowed: AllowedTypes,
                cross_check: bool) -> tuple[list[HomotopyType], np.ndarray]:
    """The distinct homotopy types of a `(rows, n)` block of window count
    rows and each row's index among them, as `types_from_counts` gives them.
    The first row whose type `allowed` rejects or, with `cross_check`, whose
    Euler characteristic is not the gap DP's raises
    InternalInconsistencyError(message, row)."""
    types, index = types_from_counts(counts)
    outside = ~np.array([allowed.allows(ht) for ht in types])[index]
    wrong = outside.copy()
    if cross_check:
        wrong |= np.array([ht.euler_characteristic() for ht in types])[index] != _eulers_from_counts(counts)
    if wrong.any():
        ht, row = types[index[wrong.argmax()]], int(wrong.argmax())
        raise InternalInconsistencyError(
            f"classified type {ht.display()} outside the constraint set for n={allowed.n}"
            if outside[row] else f"Euler cross-check failed for {ht.display()}", row)
    return types, index


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
