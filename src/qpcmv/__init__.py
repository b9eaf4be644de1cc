"""CMV operators with quasiperiodic Verblunsky coefficients.

Library layout:

- ``frequency``: continued fractions, approximation scores, constructed
  well-approximable frequencies
- ``dynamics``: torus rotations and the skew-shift, repetition certificates
- ``sampling``: sampling functions, orbit-tube constructions, coefficient
  windows
- ``transfer``: transfer matrices, Lipschitz budgets, Gordon certification,
  three-block lower bounds
- ``cmv``: finite unitary truncations, spectra, eigenvector profiles
- ``pipeline`` / ``cli``: configuration-driven experiment runs
- ``artifacts``: the CSV and JSON artifact formats both of them write
"""

__version__ = "0.1.0"

from .arith import DEFAULT_PRECISION_BITS, as_fraction, dist_to_int, working_precision
from .cmv import (
    CMVOperator,
    SpectralDecomposition,
    assemble,
    eigenvector_profile,
    spectrum,
)
from .dynamics import (
    RepetitionCertificate,
    Rotation,
    SkewShift,
    TorusPoint,
    block_displacement,
    find_even_repetition,
    iterate,
    skew_repetition_times,
)
from .errors import (
    ConstructionError,
    DegenerateOrbitError,
    DomainError,
    EigensolverError,
    InvariantViolation,
    PrecisionError,
    QpcmvError,
    WindowError,
)
from .frequency import (
    Frequency,
    badly_approximable_score,
    continued_fraction,
    golden_mean,
    liouville_frequency,
)
from .sampling import (
    ConstantFunction,
    HarmonicFunction,
    PerturbedFunction,
    TentBump,
    TubeFunction,
    VerblunskySequence,
    ball_radius,
    distance_to_tubes,
    min_enclosing_circle,
    periodic_defect_maxima,
    tube_function,
    tube_tolerance_verdict,
    verblunsky_window,
)
from .transfer import (
    EvidenceTable,
    GordonCertificate,
    certify_gordon,
    coefficient_tolerance,
    min_max_over_unit_vectors,
    no_point_spectrum_evidence,
    spectral_norm_2x2,
    szego_matrix,
    three_step_lipschitz,
    validate_three_step_lipschitz,
)
