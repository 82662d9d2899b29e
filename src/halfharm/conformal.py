"""Conformal charts between plane, 2-sphere, upper half-plane, and unit disc.

The plane chart of the sphere is inverse stereographic projection from the
south pole, with the area density that converts integrals between the two
models; the half-plane chart of the disc is the Moebius map w -> (w-i)/(w+i).
The point at infinity is a tagged sentinel (INF), never a large float.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation

__all__ = [
    "INF",
    "is_inf",
    "stereo",
    "stereo_inv",
    "stereo_density",
    "cayley",
    "cayley_inv",
]


class _Infinity:
    """The single point at infinity of the compactified plane / line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INF"


INF = _Infinity()


def is_inf(p) -> bool:
    """True exactly for the INF sentinel."""
    return p is INF


# ------------------------------------------------------------------ sphere chart


def stereo(z):
    """Map plane point(s) z (complex) to unit 3-vector(s) on the sphere.

    z = 0 goes to the north pole (0,0,1); INF goes to the south pole.
    Arrays of shape (...,) map to arrays of shape (..., 3).
    """
    if is_inf(z):
        return np.array([0.0, 0.0, -1.0])
    z = np.asarray(z, dtype=complex)
    x, y = np.real(z), np.imag(z)
    s = 1.0 + x * x + y * y
    out = np.stack([2.0 * x / s, 2.0 * y / s, (2.0 - s) / s], axis=-1)
    return out if z.ndim else out.reshape(3)


def stereo_inv(p):
    """Map unit 3-vector(s) back to the plane, (p1 + i p2)/(1 + p3).

    The south pole returns INF (scalar input only; arrays must avoid it).
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise DomainViolation("expected 3-vectors")
    norms = np.sqrt(np.sum(p * p, axis=-1))
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise DomainViolation("points must lie on the unit sphere")
    denom = 1.0 + p[..., 2]
    if p.ndim == 1:
        if denom == 0.0:
            return INF
        return complex((p[0] + 1j * p[1]) / denom)
    if np.any(denom == 0.0):
        raise DomainViolation("south pole in array input; map it separately")
    return (p[..., 0] + 1j * p[..., 1]) / denom


def stereo_density(z):
    """Area density 4/(1+|z|^2)^2 pulling sphere area back to the plane."""
    if is_inf(z):
        return 0.0
    z = np.asarray(z, dtype=complex)
    return 4.0 / (1.0 + np.abs(z) ** 2) ** 2


# -------------------------------------------------------------------- disc chart


def cayley(w):
    """Map the closed upper half-plane (and INF) onto the closed unit disc.

    w -> (w - i)/(w + i); INF -> 1.  Points with Im w < -1e-12 are rejected.
    """
    if is_inf(w):
        return 1.0 + 0.0j
    w = np.asarray(w, dtype=complex)
    if np.any(np.imag(w) < -1e-12):
        raise DomainViolation("cayley expects Im w >= -1e-12")
    out = (w - 1j) / (w + 1j)
    return complex(out) if out.ndim == 0 else out


def cayley_inv(z):
    """Inverse of cayley: z -> i(1+z)/(1-z) on the closed disc; 1 -> INF."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise DomainViolation("cayley_inv expects |z| <= 1")
    if z.ndim == 0:
        if complex(z) == 1.0 + 0.0j:
            return INF
        return complex(1j * (1.0 + z) / (1.0 - z))
    if np.any(z == 1.0 + 0.0j):
        raise DomainViolation("z = 1 in array input; map it separately")
    return 1j * (1.0 + z) / (1.0 - z)
