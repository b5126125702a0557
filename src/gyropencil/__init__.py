"""Spectra of selfadjoint quadratic matrix pencils with a gyroscopic term.

Compute, classify, and track the eigenvalues of L(lambda, eta) =
lambda^2 M - lambda eta G - A with symmetric PSD M and G, symmetric A,
featuring the rank-one coupling case; verify the location, multiplicity,
interlacing, and counting statements that hold for such pencils; and
reproduce them on discretized string boundary-value problems with the
eigenparameter in the boundary condition.
"""

from . import fixtures, serialize
from .checks import (
    Type2Stats,
    check_halfplane,
    check_negative_semisimple,
    check_real_when_a_psd,
    check_symmetry,
    check_type1_axes,
    check_type2_interlacing,
    check_zero_multiplicity,
    run_all,
    run_sl,
    type2_statistics,
)
from .errors import (
    BoundaryZero,
    ConditionViolation,
    DenominatorVanishes,
    DimensionMismatch,
    EnumerationAmbiguous,
    GyropencilError,
    HypothesisViolated,
    InvalidInput,
    MassNotDefinite,
    MatchingAmbiguous,
    NoConvergence,
    NotAnEigenvalue,
    PreconditionInteger,
    PreconditionKerMA,
    ShiftExhausted,
    SubdivisionStall,
)
from .homotopy import (
    Branch,
    CollisionEvent,
    PairingReport,
    TrajectorySet,
    count_identity,
    lambda_derivative,
    pair_spectrum,
    track,
)
from .pencil import (
    EigenRecord,
    PencilSpec,
    RankOneCoupling,
    SpectrumResult,
    classify_type,
    evaluate,
    geometric_multiplicity,
    is_semisimple,
    nonreal_region,
    nonsimple_real_interval,
    spectrum,
    validate_condition_I,
)
from .report import Check, VerificationReport
from .rootfind import (
    ResonantCountReport,
    RootWindow,
    ZeroRecord,
    find_zeros,
    verify_resonant_counts,
    winding_count,
)
from .sturm import (
    SLProblem,
    discretize,
    discretize_double,
    discretize_single,
    effective_q,
    omega,
    shoot_charfn,
    type1_lambdas,
)

__version__ = "0.1.0"
