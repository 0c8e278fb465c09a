"""Shared helpers for the test suite."""
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from cechcircle import PointConfig


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
