"""Computable algebraic correspondences on the Riemann sphere: fibers and
branch indices, circle-family dynamics, weighted Hilbert-module structure,
and K-groups of the associated algebras."""

from .correspondence import (
    BranchedSets,
    Correspondence,
    SpherePoint,
    WeightedFiber,
    chordal_distance,
    unit_circle_points,
)
from .errors import (
    CorrdynError,
    InvalidInputError,
    ResourceLimitError,
    RootFindingError,
    UndecidedError,
)
from .polyalg import (
    BivariatePolynomial,
    roots,
    squarefree_check,
)

__version__ = "0.1.0"
