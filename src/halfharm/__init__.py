"""halfharm: energies and certificates for half-harmonic maps
of the circle into the circle and their free-boundary harmonic extensions."""

__version__ = "0.1.0"

from .errors import (
    DomainViolation,
    HalfharmError,
    InvalidArgument,
    NumericalFailure,
    PreconditionViolation,
    Undersampled,
)

__all__ = [
    "__version__",
    "HalfharmError",
    "InvalidArgument",
    "DomainViolation",
    "PreconditionViolation",
    "NumericalFailure",
    "Undersampled",
]
