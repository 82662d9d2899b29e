"""halfharm: energies and certificates for half-harmonic maps
of the circle into the circle and their free-boundary harmonic extensions.

Importing halfharm, or any of its modules, loads only numpy and the
standard library.  scipy loads on the first call that needs it: building a
`competitors.Profile` (its cubic spline), a competitor kernel table
(`competitors._xi_table`, behind the radial kernels and the epsilon sweeps),
or `jacobian.bcl_lower_bound` (its simplex descent).  The certificate battery
`certificates.standard_certificates()` never loads it.
"""

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
