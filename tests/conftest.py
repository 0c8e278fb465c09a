"""Shared helpers for the test suite."""
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from cechcircle import PointConfig, trial_rng


def random_config(rng: np.random.Generator, n: int) -> PointConfig:
    """Random n-point configuration from a seeded generator."""
    return PointConfig.from_points(float(x) for x in rng.random(n))


@st.composite
def rational_grid_instance(draw):
    """Points i/d and t = j/(4d) < 1/2: gaps and window ends tie exactly."""
    d = draw(st.integers(1, 24))
    idx = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=min(d, 12)))
    j = draw(st.integers(1, 2 * d - 1))
    return PointConfig.from_points(Fraction(i, d) for i in idx), Fraction(j, 4 * d)


@st.composite
def philox_block(draw, max_t=0.49):
    """Sorted Philox samples of n points, a few trials of one seed, and t."""
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**64 - 1))
    first = draw(st.integers(0, 2**32))
    rows = draw(st.integers(1, 6))
    t = draw(st.floats(0.01, max_t))
    xs = np.sort([trial_rng(seed, i).random(n) for i in range(first, first + rows)], axis=1)
    return xs, t
