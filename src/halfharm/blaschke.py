"""Finite Blaschke products: the non-constant critical circle-to-circle maps.

A product is e^{i*theta} * prod_j (z - a_j)/(1 - conj(a_j) z) with all zeros
a_j strictly inside the unit disc, optionally followed by complex conjugation.
This module evaluates products and their derivatives, extracts boundary
traces, winding numbers and degrees, the closed-form trace energy, the
0-homogeneous extension to the upper half-space, a modulus-growth margin,
and the first-moment balance vector of the derivative density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import stereo_inv
from .errors import (
    DomainViolation,
    InvalidArgument,
    NumericalFailure,
    Undersampled,
)
from .quadrature import disc_rule, integrate

__all__ = [
    "BlaschkeProduct",
    "CircleSample",
    "eval_product",
    "derivative",
    "boundary_trace",
    "winding_number",
    "degree_of",
    "circle_energy_analytic",
    "homogeneous_extension",
    "modulus_bound_margin",
    "balance_vector",
]


@dataclass(frozen=True)
class BlaschkeProduct:
    """Rotation angle, ordered zeros in the open disc, and a conjugation flag.

    The analytic product is always stored un-conjugated; `conjugated` records
    that the map is its complex conjugate.
    """

    theta: float = 0.0
    zeros: tuple[complex, ...] = ()
    conjugated: bool = False

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise InvalidArgument("theta must be finite")
        object.__setattr__(self, "theta", theta % (2.0 * math.pi))
        zs = tuple(complex(a) for a in self.zeros)
        if not all(abs(a) < 1.0 - 1e-12 for a in zs):
            raise InvalidArgument("every zero must satisfy |a| < 1 - 1e-12")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "conjugated", bool(self.conjugated))

    @property
    def zero_count(self) -> int:
        return len(self.zeros)

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "zeros": [[a.real, a.imag] for a in self.zeros],
            "conjugated": self.conjugated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "BlaschkeProduct":
        return cls(
            theta=float(d.get("theta", 0.0)),
            zeros=tuple(complex(re, im) for re, im in d.get("zeros", [])),
            conjugated=bool(d.get("conjugated", False)),
        )

    @classmethod
    def from_json(cls, s: str) -> "BlaschkeProduct":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class CircleSample:
    """Values of a circle map at n uniform angles 2*pi*k/n."""

    values: np.ndarray
    unit_tolerance: float = field(default=float("inf"))

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.shape[0] < 8:
            raise InvalidArgument("need at least 8 samples")
        if not np.all(np.isfinite(vals)):
            raise InvalidArgument("samples must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if np.isfinite(self.unit_tolerance):
            if np.max(np.abs(np.abs(vals) - 1.0)) > self.unit_tolerance:
                raise InvalidArgument("samples exceed the declared unit-modulus tolerance")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n


def _check_closed_disc(z: np.ndarray) -> None:
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise DomainViolation("point not in the closed unit disc")


def eval_product(B: BlaschkeProduct, z):
    """Evaluate the product at z (|z| <= 1), factor by factor in zero order."""
    zz = np.asarray(z, dtype=complex)
    _check_closed_disc(zz)
    acc = _underlying_value(B, np.atleast_1d(zz))
    if B.conjugated:
        acc = np.conj(acc)
    return complex(acc[0]) if zz.ndim == 0 else acc


def _underlying_value(B: BlaschkeProduct, zz: np.ndarray) -> np.ndarray:
    """The un-conjugated product at the points zz (at least 1-d)."""
    acc = np.full(zz.shape, np.exp(1j * B.theta), dtype=complex)
    for a in B.zeros:
        # numpy's complex multiply is not bitwise commutative: `*` swaps its
        # operands from numpy's temporary-elision size on, and an in-place
        # multiply of one value takes a scalar loop; this call rounds a
        # point the same at every call size
        acc = np.multiply((zz - a) / (1.0 - np.conj(a) * zz), acc)
    return acc


def derivative(B: BlaschkeProduct, z):
    """Complex derivative of the underlying (un-conjugated) product at z.

    One vectorized product rule, sum_j f_j'(z) * e^{i*theta} *
    prod_{k != j} f_k(z), over the factors f_j(z) = (z - a_j)/(1 - conj(a_j) z)
    with f_j'(z) = (1 - |a_j|^2)/(1 - conj(a_j) z)^2.  The products over
    k != j are running products from both ends, so no factor is divided out
    and a zero of the product is an ordinary point; a product without zeros
    has derivative 0.  Every multiply is a plain np.multiply in a fixed
    operand order, so a point is rounded the same at every call size.  For
    conjugated maps the conjugation tag lives on B; the map itself is the
    conjugate of the product this differentiates.
    """
    zz = np.asarray(z, dtype=complex)
    _check_closed_disc(zz)
    z1 = np.atleast_1d(zz)
    inv = [1.0 / (1.0 - np.conj(a) * z1) for a in B.zeros]
    factors = [np.multiply(z1 - a, r) for a, r in zip(B.zeros, inv)]
    # after[j] = prod_{k > j} f_k; before = e^{i*theta} * prod_{k < j} f_k
    after = [np.ones(z1.shape, dtype=complex)]
    for f in factors[:0:-1]:
        after.append(np.multiply(f, after[-1]))
    after.reverse()
    before = np.full(z1.shape, np.exp(1j * B.theta), dtype=complex)
    out = np.zeros(z1.shape, dtype=complex)
    for a, r, f, rest in zip(B.zeros, inv, factors, after):
        slope = (1.0 - abs(a) ** 2) * np.multiply(r, r)
        out = np.add(out, np.multiply(slope, np.multiply(before, rest)))
        before = np.multiply(f, before)
    return complex(out[0]) if zz.ndim == 0 else out


def boundary_trace(B: BlaschkeProduct, n: int) -> CircleSample:
    """Sample the product on the unit circle at n uniform angles."""
    if n < 8:
        raise InvalidArgument("boundary_trace needs n >= 8")
    angles = 2.0 * np.pi * np.arange(n) / n
    return CircleSample(eval_product(B, np.exp(1j * angles)), unit_tolerance=1e-12)


def winding_number(s: CircleSample) -> int:
    """Total phase increment / 2*pi of the sampled loop, an exact integer.

    Requires every consecutive phase jump to be under pi in absolute value;
    otherwise the sampling cannot distinguish windings and the call refuses.
    """
    v = s.values
    if np.any(np.abs(v) < 1e-300):
        raise InvalidArgument("zero sample has no phase")
    ratios = np.roll(v, -1) * np.conj(v)
    jumps = np.angle(ratios)
    if np.max(np.abs(jumps)) >= np.pi * (1.0 - 1e-12):
        raise Undersampled("phase jump >= pi between consecutive samples; increase n")
    total = float(np.sum(jumps)) / (2.0 * np.pi)
    return int(round(total))


def degree_of(B: BlaschkeProduct) -> int:
    """Signed degree: +(number of zeros), negated by conjugation."""
    d = B.zero_count
    return -d if B.conjugated else d


def circle_energy_analytic(B: BlaschkeProduct) -> float:
    """Closed-form nonlocal circle energy of the boundary trace: pi * (zero count)."""
    return math.pi * B.zero_count


def homogeneous_extension(B: BlaschkeProduct, X):
    """0-homogeneous extension to the upper half-space: eval at the chart
    image of X/|X|.  X must be nonzero with nonnegative third coordinate."""
    Xa = np.asarray(X, dtype=float)
    if Xa.shape[-1] != 3:
        raise DomainViolation("expected 3-vectors")
    norms = np.sqrt(np.sum(Xa * Xa, axis=-1))
    if np.any(norms == 0.0):
        raise DomainViolation("the extension is singular at the origin")
    p = Xa / norms[..., None]
    if np.any(p[..., 2] < -1e-12):
        raise DomainViolation("the extension lives on the upper half-space")
    return eval_product(B, stereo_inv(p))


def modulus_bound_margin(B: BlaschkeProduct) -> float:
    """max over sampled disc points of |w(z)| * ((|z|+3)/(3|z|+1))^d.

    A value <= 1 certifies |w(z)| <= ((3|z|+1)/(|z|+3))^d on the sample set.
    The samples are the origin and a polar grid of 256 interior radii on 256
    full radial lines (the negative real axis among them, where the
    single-zero bound is tight at a = 1/3).
    """
    d = B.zero_count
    if d < 1:
        raise InvalidArgument("modulus bound needs at least one zero")
    radii = (np.arange(256) + 1.0) / 257.0
    angles = 2.0 * np.pi * np.arange(256) / 256  # includes 0 and pi
    z = np.concatenate([[0.0 + 0.0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()])
    r = np.abs(z)
    vals = np.abs(eval_product(B, z)) * ((r + 3.0) / (3.0 * r + 1.0)) ** d
    return float(np.max(vals))


def balance_vector(B: BlaschkeProduct) -> complex:
    """Disc integral of |w'(z)|^2 * z/(1+|z|^2), the first-moment balance of
    the derivative density (up to an overall positive constant), on the
    96 x 256 disc rule.

    Vanishes exactly when the single-zero product is centered at the origin.
    """
    rule = disc_rule(96, 256)

    def f(z):
        return np.abs(derivative(B, z)) ** 2 * z / (1.0 + np.abs(z) ** 2)

    out = integrate(rule, f)
    if not np.isfinite(out.real) or not np.isfinite(out.imag):
        raise NumericalFailure("balance integrand produced non-finite samples")
    return complex(out)
