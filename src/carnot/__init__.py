"""Numerical toolkit for graded nilpotent Lie groups with CC metrics.

The layers, bottom up:

* ``algebra``: structure-constant graded Lie algebras and verification.
* ``group``: exact BCH arithmetic (Baker's integral) in exponential coordinates.
* ``metric``: certified two-sided Carnot-Caratheodory distance bounds.
* ``measure``: Monte-Carlo ball volumes, dimension fits, the End sampler.
* ``derivate``: derivates of Lipschitz distances, the spread.
* ``divergence``: geodesic-pair divergence versus model spaces.
* ``cli``: the ``carnot`` command.
"""

from .algebra import (
    GradedAlgebra,
    GradingReport,
    descending_central_sequence,
    load_algebra,
    nilpotency_degree,
    verify_graded,
)
from .catalog import abelian, engel, free_step2, heisenberg
from .errors import (
    CalibrationError,
    CarnotError,
    InputError,
    LipschitzViolation,
    NotNilpotentError,
    OptimizerFailure,
    UnreachableError,
)
from .group import BchTable, CarnotGroup, conjugate, dilate, inverse
from .measure import (
    DimensionFit,
    VolumeEstimate,
    ball_volume,
    fit_dimension,
    homogeneous_dimension,
)
from .metric import (
    BallBoxConstant,
    CCSpace,
    ControlPath,
    DistanceEstimate,
    HorizontalMetric,
    LayerBounds,
    OptimizerBudget,
    calibrate_ballbox,
    cc_lower_abelian,
    cc_lower_ballbox,
    estimate_distance,
)
from .derivate import (
    BoxSpec,
    DerivateEstimate,
    LipschitzDistance,
    cc_distance,
    derivate,
    sample_end,
    spread_estimate,
)
from .divergence import (
    DivergenceFit,
    GeodesicPair,
    ModelLine,
    ModelSpace,
    divergence_profile,
    model_divergence,
    obstruction_report,
)

__version__ = "0.1.0"

__all__ = [
    "GradedAlgebra", "GradingReport", "descending_central_sequence",
    "load_algebra", "nilpotency_degree", "verify_graded",
    "abelian", "engel", "free_step2", "heisenberg",
    "CarnotError", "InputError", "NotNilpotentError", "OptimizerFailure",
    "CalibrationError", "LipschitzViolation", "UnreachableError",
    "BchTable", "CarnotGroup", "conjugate", "dilate", "inverse",
    "BallBoxConstant", "CCSpace", "ControlPath", "DistanceEstimate",
    "HorizontalMetric", "LayerBounds", "OptimizerBudget", "calibrate_ballbox",
    "cc_lower_abelian", "cc_lower_ballbox", "estimate_distance",
    "DimensionFit", "VolumeEstimate", "ball_volume", "fit_dimension",
    "homogeneous_dimension",
    "BoxSpec", "DerivateEstimate", "LipschitzDistance", "cc_distance",
    "derivate", "sample_end", "spread_estimate",
    "DivergenceFit", "GeodesicPair", "ModelLine", "ModelSpace",
    "divergence_profile", "model_divergence", "obstruction_report",
    "__version__",
]
