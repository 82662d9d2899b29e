"""halfharm: energies and certificates for half-harmonic maps
of the circle into the circle and their free-boundary harmonic extensions.

halfharm runs on numpy and the standard library alone; no call loads
scipy.  The profile and kernel-table splines are the package's own
not-a-knot cubic spline (`competitors._Spline`, equal bit for bit to scipy's
CubicSpline on the package's grids), and `jacobian.bcl_lower_bound`
minimizes by damped Newton with the potential's exact gradient and Hessian.
The tests use scipy as the independent reference for both.
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
