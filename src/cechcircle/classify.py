"""Exact homotopy type of Cech complexes of circle points.

Every decision is read from the forward window counts c_i of
`circle.window_counts`, the number of further points in the closed forward
arc of length 2t from point i, so ties are decided exactly as the Euler DP
and the complex builder decide them, and exactly on Fractions and on Philox
samples.  An empty window is a gap > 2t after its point: several give a
wedge of points, one an arc (contractible).  A window holding every point
makes the whole set one simplex.  Otherwise the arcs cover the circle and the
type is decided by the winding fraction of the orbit map f(i) = i + c_i
(mod n) (Adamaszek, Adams, Frick, Peterson and Previte-Johnson, "Nerve
complexes of circular arcs", DCG 2016).  `type_from_counts` decides from a
count row alone, so a Monte Carlo sample is counted once for its type and
its Euler cross-check.  `classify` counts one configuration and validates
the answer against the realizability constraint set; a violation is an
internal error.  A census checks each distinct type against that set once.
"""
from __future__ import annotations

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
    return _validated(type_from_counts(window_counts(config.positions, t)), config.n, t)


def type_from_counts(counts: list[int]) -> HomotopyType:
    """Homotopy type of a Cech complex from its `window_counts`, unvalidated."""
    breaks = counts.count(0)
    if breaks > 1:
        return HomotopyType.wedge_even(breaks - 1, 0)
    if breaks == 1 or max(counts) == len(counts) - 1:
        # one gap > 2t leaves a single arc, and a window holding every point
        # makes the whole set one simplex: both contractible
        return HomotopyType.point()
    return _winding_type(counts)


def _winding_type(counts: list[int]) -> HomotopyType:
    """Homotopy type of a covering nerve from its forward window counts.

    A periodic orbit of f(i) = i + c_i of length p winds W / n times around
    the circle, with W the sum of c over the orbit; its winding fraction is
    w = W / (n p), the same on every orbit.  With P periodic orbits and
    q = w / (1 - w) = W / (n p - W): an integer q = l gives the wedge of P - 1
    copies of S^(2l), otherwise the type is S^(2 floor(q) + 1).  Counts are
    below n, so n p - W > 0.
    """
    n = len(counts)
    walk = [-1] * n  # the start of the walk that first reached each index
    orbits = 0
    winding = None  # (W, n p) of the first periodic orbit found
    for start in range(n):
        v = start
        while walk[v] < 0:
            walk[v] = start
            v = (v + counts[v]) % n
        if walk[v] != start:
            continue  # ran into a walk that is already accounted for
        orbits += 1  # v lies on a periodic orbit seen for the first time
        total, u = counts[v], (v + counts[v]) % n
        length = 1
        while u != v:
            total += counts[u]
            u = (u + counts[u]) % n
            length += 1
        if winding is None:
            winding = (total, n * length)
        elif total * winding[1] != winding[0] * n * length:
            raise InternalInconsistencyError(
                f"periodic orbits wind {winding[0]}/{winding[1]} and "
                f"{total}/{n * length} times per step"
            )
    wound, steps = winding
    l, r = divmod(wound, steps - wound)
    if r == 0:
        return HomotopyType.wedge_even(orbits - 1, l).canonical()
    return HomotopyType.odd_sphere(l)


def _validated(result: HomotopyType, n: int, t) -> HomotopyType:
    if not allowed_types(n, t).allows(result):
        raise InternalInconsistencyError(
            f"classified type {result.display()} violates the constraint "
            f"set for n={n}, t={t}"
        )
    return result
