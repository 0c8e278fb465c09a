"""Random Cech complexes on the circle: exact closed forms, per-sample
homotopy classification, and seeded Monte Carlo verification."""

from .circle import PointConfig, load_point_file
from .classify import classify
from .errors import (
    CechCircleError,
    DomainError,
    InternalInconsistencyError,
    PointFileError,
)
from .exact import (
    AllowedTypes,
    SpikeAnalysis,
    TheoremBParams,
    allowed_types,
    coverage_probability,
    elder_c_bounds,
    expected_euler_char,
    omega,
    spike_analysis,
    theorem_b_params,
)
from .homotopy import HomotopyType
from .montecarlo import (
    Census,
    estimate_B,
    estimate_betti,
    estimate_chi,
    run_census,
    verify_theorem_a1,
    verify_theorem_a2,
    verify_theorem_b,
    verify_theorem_elder_c,
)

__version__ = "0.1.0"
