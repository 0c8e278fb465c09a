"""Random Cech complexes on the circle: exact closed forms, per-sample
homotopy classification, and seeded Monte Carlo verification."""

from .circle import (
    PointConfig,
    build_complex,
    euler_char_exact,
    is_simplex,
    load_point_file,
    uniform_config,
)
from .classify import classify
from .errors import (
    CechCircleError,
    DomainError,
    InternalInconsistencyError,
    PointFileError,
    SizeError,
)
from .exact import (
    AllowedTypes,
    ElderCBounds,
    SpikeAnalysis,
    TheoremBParams,
    allowed_types,
    coverage_probability,
    elder_c_bounds,
    expected_euler_char,
    n_k_homotopy,
    omega,
    spike_a_exact,
    spike_analysis,
    spike_center_exact,
    theorem_b_params,
)
from .homology import SimplicialComplex, betti_gf2
from .homotopy import HomotopyType
from .montecarlo import (
    Census,
    EstimateWithCI,
    estimate_B,
    estimate_betti,
    estimate_chi,
    estimate_coverage,
    run_census,
    trial_rng,
    verify_theorem_a1,
    verify_theorem_a2,
    verify_theorem_b,
    verify_theorem_elder_c,
)

__version__ = "0.1.0"
