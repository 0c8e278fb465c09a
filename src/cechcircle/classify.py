"""Exact homotopy type of Cech complexes of circle points.

Every decision is read from the forward window counts c_i of
`circle.window_counts`, the number of further points in the closed forward
arc of length 2t from point i, so ties are decided exactly as the Euler DP
and the complex builder decide them, and exactly on Fractions and on Philox
samples.  An empty window is a gap > 2t after its point: several give a
wedge of points, one an arc (contractible).  A window holding every point
makes the whole set one simplex.  Otherwise the arcs cover the circle, and
the type depends only on the rotation of the monotone circle map
f(i) = (i + c_i) mod n on its periodic set S (Adamaszek, Adams, Frick,
Peterson and Previte-Johnson, "Nerve complexes of circular arcs", DCG 2016):
f rotates S by s places, so each of the P = gcd(|S|, s) periodic orbits
winds w = s/|S| times per step.  `types_from_counts` decides a whole block
of count rows at once, so a Monte Carlo sample is counted once for its type
and its Euler cross-check.  `classify` counts one configuration and
validates the answer against the realizability constraint set; a violation
is an internal error.  A census checks each distinct type against that set
once.
"""
from __future__ import annotations

import numpy as np

from .circle import PointConfig, window_counts
from .errors import DomainError, InternalInconsistencyError
from .exact import allowed_types
from .homotopy import HomotopyType


def classify(config: PointConfig, t) -> HomotopyType:
    """Exact homotopy type of Cech(config, t)."""
    if t <= 0:
        raise DomainError("t must be > 0")
    if 1 - 2 * t <= 0:
        return HomotopyType.point()
    ht, = types_from_counts(window_counts([config.positions], t))
    return _validated(ht, config.n, t)


def types_from_counts(counts: np.ndarray) -> list[HomotopyType]:
    """Homotopy type of each row of a `(rows, n)` block of `window_counts`,
    unvalidated.

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
    keys = list(zip(odd.tolist(), l.tolist(), a.tolist()))
    types = {
        key: HomotopyType.odd_sphere(key[1]) if key[0]
        else HomotopyType.wedge_even(key[2], key[1]).canonical()
        for key in set(keys)
    }
    return [types[key] for key in keys]


def _validated(result: HomotopyType, n: int, t) -> HomotopyType:
    if not allowed_types(n, t).allows(result):
        raise InternalInconsistencyError(
            f"classified type {result.display()} violates the constraint "
            f"set for n={n}, t={t}"
        )
    return result
