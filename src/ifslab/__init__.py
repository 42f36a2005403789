"""Numerical laboratory for infinite iterated function systems on [0, 1].

Systems have countably many C1 branches whose contraction rates decay like
a power of the branch index, and admissible digit sequences obey a growth
restriction: each digit must exceed a floor function of its predecessor.
The package constructs the standard examples (continued fractions, linear
affine families, gap-filling self-maps), builds ladder index sequences and
mass distributions adapted to the restriction, and estimates Hausdorff and
box dimensions of the resulting attractors by root finding, cover sums and
Monte Carlo local scaling.
"""

__version__ = "0.1.0"

from .systems import (  # noqa: E402
    DecaySystem,
    NumericFailure,
    PreconditionError,
    cylinder_interval,
    verify_power_decay,
)
from .restrictions import (  # noqa: E402
    Ladder,
    Phi,
    build_ladder,
    count_restricted_words,
    enumerate_restricted_words,
    growth_ratio_bound,
    parse_phi,
)
from .families import (  # noqa: E402
    build_gap_system,
    make_gauss,
    make_linear_power,
    validate_gap_system,
)
from .dimension import (  # noqa: E402
    DimensionEstimate,
    bowen_root,
    box_dim_estimate,
    cover_sum,
    predict_dimensions,
    subsystem_dim_bounds,
)
from .measures import (  # noqa: E402
    FrostmanMeasure,
    PowerLawDigitMeasure,
    build_frostman_measure,
    digit_transition,
    frostman_mass,
    local_dim_estimate,
    verify_frostman,
)

__all__ = [
    "DecaySystem",
    "DimensionEstimate",
    "FrostmanMeasure",
    "Ladder",
    "NumericFailure",
    "Phi",
    "PowerLawDigitMeasure",
    "PreconditionError",
    "__version__",
    "bowen_root",
    "box_dim_estimate",
    "build_frostman_measure",
    "build_gap_system",
    "build_ladder",
    "count_restricted_words",
    "cover_sum",
    "cylinder_interval",
    "digit_transition",
    "enumerate_restricted_words",
    "frostman_mass",
    "growth_ratio_bound",
    "local_dim_estimate",
    "make_gauss",
    "make_linear_power",
    "parse_phi",
    "predict_dimensions",
    "subsystem_dim_bounds",
    "validate_gap_system",
    "verify_frostman",
]
