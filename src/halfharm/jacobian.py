"""Distributional Jacobian of unit-modulus boundary data on the half-ball.

Boundary data for half-ball maps lives on two faces: a smooth plane-valued
part on the upper hemisphere and a unit-modulus part on the flat disc that
may wind around finitely many vortex points.  Such data carries a
topological charge distribution: pairing the wedge field of any interior
extension against the gradient of a Lipschitz test function gives a number
that depends only on the boundary values.  This module evaluates that
pairing two independent ways — an interior volume quadrature and the
boundary representation (hemisphere determinant plus point charges) —
and computes the convex boundary potential whose minimum pins the
extension energy of unit-degree data at pi.

Every rule and difference step is fixed.  Test functions carry their exact
gradient, so only the extension is ever differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator

import numpy as np

from .blaschke import CircleSample, winding_number
from .energy import (
    _complex_gradient,
    _pairwise_leaf_sum,
    _sphere_difference,
    _tangent_frames,
    closed_xstar_ext,
)
from .errors import (
    InvalidArgument,
    NumericalFailure,
    PreconditionViolation,
    Undersampled,
)
from .quadrature import _panel_rule, circle_rule, disc_rule, hemisphere_rule

__all__ = [
    "AtomMeasure",
    "BclReport",
    "BoundaryField",
    "EnergyBoundReport",
    "LipschitzTest",
    "bcl_lower_bound",
    "coordinate_tests",
    "default_test_dictionary",
    "distance_test",
    "energy_lower_bound_check",
    "halfball_energy_fd",
    "jacobian_report",
    "pairing_surface",
    "pairing_volume",
    "product_vortex_field",
]

#: Two atoms closer than this are treated as one ill-posed position.
MIN_ATOM_SEPARATION = 1e-9

#: Atoms with less rim clearance than this cannot be circled for a winding
#: check, so the data is rejected rather than left unvalidated.
MIN_RIM_CLEARANCE = 1e-6

# Point pairs sampled by LipschitzTest.validate.
_LIPSCHITZ_PAIRS = 400

# Step of the central differences LipschitzTest.validate compares grad with.
_GRAD_STEP = 1e-7

# Largest deviation BoundaryField.validate allows from unit modulus on the
# flat face, and between the two faces on the equator.
_TRACE_TOL = 1e-6


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomMeasure:
    """Integer point charges at pairwise-distinct positions in the closed
    unit disc, written as (position, degree) pairs with complex positions."""

    atoms: tuple[tuple[complex, int], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for entry in self.atoms:
            try:
                a, d = entry
            except (TypeError, ValueError) as exc:
                raise InvalidArgument(
                    "each atom must be a (position, degree) pair"
                ) from exc
            a = complex(a)
            if not abs(a) <= 1.0 + 1e-12:
                raise InvalidArgument(
                    f"atom position {a} lies outside the closed unit disc"
                )
            try:
                degree = int(d)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidArgument(f"atom degree {d!r} is not an integer") from exc
            if d != degree:
                raise InvalidArgument(f"atom degree {d!r} is not an integer")
            cleaned.append((a, degree))
        object.__setattr__(self, "atoms", tuple(cleaned))
        if self.min_separation() <= MIN_ATOM_SEPARATION:
            raise InvalidArgument(
                "atom positions must be pairwise distinct "
                f"(separation above {MIN_ATOM_SEPARATION})"
            )

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.atoms)

    @property
    def positions(self) -> np.ndarray:
        """Atom positions embedded in the flat face as (k, 3) points."""
        return np.array([[a.real, a.imag, 0.0] for a, _ in self.atoms],
                        dtype=float).reshape(-1, 3)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.atoms)

    def min_separation(self) -> float:
        """Smallest pairwise distance between atom positions (inf if < 2)."""
        k = len(self.atoms)
        if k < 2:
            return math.inf
        return min(abs(self.atoms[i][0] - self.atoms[j][0])
                   for i in range(k) for j in range(i + 1, k))


@dataclass(frozen=True)
class LipschitzTest:
    """A scalar test function on the closed half-ball together with its
    exact gradient, its declared Lipschitz constant and a display name.

    func receives an (m, 3) float array and returns (m,) floats; grad
    receives the same points and returns the (m, 3) gradient of func there.
    The half-ball pass contracts grad directly, so it must be exact (closed
    form, not a difference quotient) wherever the rule puts nodes: on the
    open upper half-ball, x3 > 0.
    """

    func: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lip: float
    name: str

    def __post_init__(self) -> None:
        if not (callable(self.func) and callable(self.grad)):
            raise InvalidArgument("LipschitzTest.func and .grad must be callable")
        if not (self.lip > 0.0 and math.isfinite(self.lip)):
            raise InvalidArgument("declared Lipschitz constant must be a "
                                  "positive finite number")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.func(pts), dtype=float).reshape(pts.shape[0])

    def validate(self) -> None:
        """Check the declared constant and the gradient against func.

        400 random point pairs (seed 0) in the closed upper half-ball; a
        difference quotient above lip * (1 + 1e-6) rejects the declaration.
        At the sampled points with x3 > 1e-7, |grad| must be at most
        lip * (1 + 1e-6), and each component of grad must match the central
        difference of func of step 1e-7 along its axis to 1e-5 * lip.  A kink
        inside the stencil (such as a distance test's anchor) moves the
        central difference off grad by half the gap between the forward and
        backward quotients, so a component whose gap exceeds 1e-5 * lip is
        not compared; a smooth test loses only the points where its second
        derivative exceeds 100 * lip.
        """
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(2 * _LIPSCHITZ_PAIRS, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.0, 1.0, size=(2 * _LIPSCHITZ_PAIRS, 1)) ** (1.0 / 3.0)
        pts[:, 2] = np.abs(pts[:, 2])
        a, b = pts[:_LIPSCHITZ_PAIRS], pts[_LIPSCHITZ_PAIRS:]
        dist = np.linalg.norm(a - b, axis=1)
        keep = dist > 1e-9
        quot = np.abs(self(a[keep]) - self(b[keep])) / dist[keep]
        worst = float(np.max(quot)) if quot.size else 0.0
        if worst > self.lip * (1.0 + 1e-6):
            raise PreconditionViolation(
                f"test '{self.name}' has sampled difference quotient "
                f"{worst:.6g} above its declared constant {self.lip:.6g}"
            )

        x = pts[pts[:, 2] > _GRAD_STEP]
        grad = np.asarray(self.grad(x), dtype=float)
        if grad.shape != x.shape:
            raise PreconditionViolation(
                f"test '{self.name}' returned gradients of shape {grad.shape} "
                f"for points of shape {x.shape}")
        steepest = float(np.max(np.linalg.norm(grad, axis=1), initial=0.0))
        if steepest > self.lip * (1.0 + 1e-6):
            raise PreconditionViolation(
                f"test '{self.name}' has gradient norm {steepest:.6g} above "
                f"its declared constant {self.lip:.6g}")
        steps = _GRAD_STEP * np.eye(3)
        f0 = self(x)[:, None]
        fp = self((x[:, None, :] + steps).reshape(-1, 3)).reshape(x.shape)
        fm = self((x[:, None, :] - steps).reshape(-1, 3)).reshape(x.shape)
        smooth = np.abs((fp - f0) - (f0 - fm)) <= 1e-5 * self.lip * _GRAD_STEP
        miss = np.abs((fp - fm) / (2.0 * _GRAD_STEP) - grad)[smooth]
        worst = float(np.max(miss, initial=0.0))
        if worst > 1e-5 * self.lip:
            raise PreconditionViolation(
                f"test '{self.name}' has a gradient component {worst:.6g} away "
                f"from the central difference of its function")


def distance_test(c: complex) -> LipschitzTest:
    """The 1-Lipschitz test x -> |x - c| for a point c on the flat face,
    with gradient (x - c)/|x - c| (defined off the anchor c)."""
    c = complex(c)
    anchor = np.array([c.real, c.imag, 0.0])

    def f(pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.atleast_2d(pts) - anchor[None, :], axis=1)

    def grad(pts: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(pts) - anchor[None, :]
        return d / np.linalg.norm(d, axis=1)[:, None]

    return LipschitzTest(f, grad, 1.0, f"dist({c.real:g},{c.imag:g})")


def coordinate_tests() -> tuple[LipschitzTest, ...]:
    """The three 1-Lipschitz coordinate functions x1, x2, x3, with
    gradients the unit vectors e1, e2, e3."""
    def pick(i: int) -> LipschitzTest:
        e = np.eye(3)[i]
        return LipschitzTest(lambda pts: np.atleast_2d(pts)[:, i],
                             lambda pts: np.broadcast_to(e, np.atleast_2d(pts).shape),
                             1.0, f"x{i + 1}")

    return tuple(pick(i) for i in range(3))


def default_test_dictionary() -> tuple[LipschitzTest, ...]:
    """Distance tests on the points of a 5 x 5 square grid over [-1, 1]^2
    (origin included) that lie in the closed disc, plus the three
    coordinate functions."""
    ticks = np.linspace(-1.0, 1.0, 5)
    tests = [distance_test(complex(cx, cy))
             for cx in ticks for cy in ticks
             if math.hypot(cx, cy) <= 1.0 + 1e-12]
    tests.extend(coordinate_tests())
    return tuple(tests)


def _require_test(phi) -> None:
    """Reject anything but a LipschitzTest: the pairings need its exact
    gradient and its declared constant."""
    if not isinstance(phi, LipschitzTest):
        raise InvalidArgument(
            "test function must be a LipschitzTest (function, exact "
            "gradient and declared constant)"
        )


@dataclass(frozen=True)
class BoundaryField:
    """Boundary data on the half-ball: a smooth plane-valued map on the
    upper hemisphere, a flat-face map of unit modulus away from declared
    vortex atoms, and the atom measure itself.

    sphere receives (m, 3) unit vectors with third coordinate >= 0 and
    returns (m,) complex; flat receives (m,) complex disc points and
    returns (m,) complex.
    """

    sphere: Callable[[np.ndarray], np.ndarray]
    flat: Callable[[np.ndarray], np.ndarray]
    atoms: AtomMeasure

    def eval_sphere(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.sphere(pts), dtype=complex).reshape(pts.shape[0])

    def eval_flat(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return np.asarray(self.flat(z), dtype=complex).reshape(z.shape[0])

    def validate(self) -> None:
        """Check the structural invariants of partially regular data.

        Raises PreconditionViolation when the flat part strays from unit
        modulus on the nodes of a 16 x 48 disc rule farther than 0.05 from
        every atom, when the two faces disagree at 256 equator points, or
        when the winding of the flat part around any atom does not match its
        declared degree.  A degree mismatch is always an error, never
        silently corrected.
        """
        rule = disc_rule(16, 48)
        z = rule.nodes
        mask = np.ones(z.shape[0], dtype=bool)
        for a, _ in self.atoms.atoms:
            mask &= np.abs(z - a) > 0.05
        if np.any(mask):
            moduli = np.abs(self.eval_flat(z[mask]))
            worst = float(np.max(np.abs(moduli - 1.0)))
            if worst > _TRACE_TOL:
                raise PreconditionViolation(
                    f"flat part modulus deviates from 1 by {worst:.3g} away "
                    f"from atoms (tolerance {_TRACE_TOL:g})"
                )
        t = circle_rule(256).nodes
        ring = np.exp(1j * t)
        equator3 = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        gap = np.max(np.abs(self.eval_flat(ring) - self.eval_sphere(equator3)))
        if gap > _TRACE_TOL:
            raise PreconditionViolation(
                f"hemisphere and flat traces disagree on the equator by "
                f"{float(gap):.3g} (tolerance {_TRACE_TOL:g})"
            )
        self._validate_windings()

    def _validate_windings(self) -> None:
        sep = self.atoms.min_separation()
        for a, d in self.atoms.atoms:
            clearance = 1.0 - abs(a)
            if clearance < MIN_RIM_CLEARANCE:
                raise PreconditionViolation(
                    f"atom at {a} sits too close to the rim to circle for a "
                    "winding check"
                )
            radius = 0.5 * min(sep, clearance, 0.2)
            n = 256
            while True:
                circle = a + radius * np.exp(
                    2j * np.pi * np.arange(n) / n)
                try:
                    w = winding_number(CircleSample(self.eval_flat(circle)))
                    break
                except Undersampled:
                    n *= 2
                    if n > 1 << 16:
                        raise
            if w != d:
                raise PreconditionViolation(
                    f"flat part winds {w} times around the atom at {a}, but "
                    f"its declared degree is {d}"
                )


# ---------------------------------------------------------------------------
# canonical test fields with closed-form finite-energy extensions
# ---------------------------------------------------------------------------


def _ball_moebius(a2: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Conformal self-map of the unit ball sending the flat-face point a2
    to the origin; it preserves the upper half-ball, the hemisphere, and
    the flat face because the anchor has no vertical component.  X . a is
    formed elementwise, not as a BLAS product, so a point is rounded the
    same whatever the number of rows."""
    a = np.array([a2.real, a2.imag, 0.0])
    aa = float(a @ a)

    def T(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Xa = X - a[None, :]
        num = (1.0 - aa) * Xa - np.sum(Xa * Xa, axis=1, keepdims=True) * a[None, :]
        den = 1.0 - 2.0 * (X[:, 0] * a[0] + X[:, 1] * a[1]) + aa * np.sum(X * X, axis=1)
        return num / den[:, None]

    return T


def product_vortex_field(
    atoms: AtomMeasure,
) -> tuple[BoundaryField, Callable[[np.ndarray], np.ndarray]]:
    """Boundary data with the prescribed atoms plus a finite-energy
    closed-form extension realizing it.

    Each atom contributes one factor: the canonical unit vortex
    (energy.closed_xstar_ext) composed with the ball self-map that centers
    the atom, raised to the atom's degree (conjugated for negative degrees
    so the factor stays bounded).
    Returns the boundary field and the extension callable; the extension
    is smooth on the closed half-ball except at the atom positions.
    """
    factors = [(_ball_moebius(a), d) for a, d in atoms.atoms]

    def extension(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.ones(X.shape[0], dtype=complex)
        for T, d in factors:
            w = closed_xstar_ext(T(X))
            # not `out *=`: an in-place multiply of one value takes numpy's
            # scalar loop, which rounds differently from a batched call
            out = np.multiply(out, w ** d if d > 0 else np.conj(w) ** (-d))
        return out

    def flat(z: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.stack([z.real, z.imag, np.zeros(z.shape[0])], axis=1)
        return extension(pts)

    return BoundaryField(sphere=extension, flat=flat, atoms=atoms), extension


# ---------------------------------------------------------------------------
# wedge field and volume pairing
# ---------------------------------------------------------------------------


def _singular_positions(atoms: AtomMeasure | None) -> np.ndarray:
    return np.zeros((0, 3)) if atoms is None else atoms.positions


# Central-difference step of v, as a fraction of the distance to the
# nearest declared vortex (floored at 1e-3).
_FD_FRAC = 1e-3


def _fd_steps(X: np.ndarray, sing: np.ndarray) -> np.ndarray:
    if sing.shape[0] == 0:
        return np.full(X.shape[0], _FD_FRAC)
    d = np.min(np.stack([np.linalg.norm(X - s[None, :], axis=1)
                         for s in sing]), axis=0)
    return _FD_FRAC * np.maximum(d, 1e-3)


def _wedge(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> np.ndarray:
    """The wedge field H(v) = 2 (g2 ^ g3, g3 ^ g1, g1 ^ g2) of a plane-valued
    map from its partial derivatives g_i = d_i v, as (m, 3), with
    a ^ b = Im(conj(a) * b)."""
    return 2.0 * np.stack([np.imag(np.conj(g2) * g3), np.imag(np.conj(g3) * g1),
                           np.imag(np.conj(g1) * g2)], axis=1)


def _smooth_step_down(t: np.ndarray) -> np.ndarray:
    """Septic C^3 cutoff: 1 for t <= 0 decreasing to 0 for t >= 1.  A
    polynomial transition keeps Gauss rules accurate on the blended bulk."""
    t = np.clip(t, 0.0, 1.0)
    s = t * t * t * t * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t * t * t)
    return 1.0 - s


def _patch_radii(sing: np.ndarray) -> list[tuple[np.ndarray, float]]:
    patches = []
    for i in range(sing.shape[0]):
        a = sing[i]
        if np.linalg.norm(a) <= 0.05:
            continue  # the global polar rule is already centered there
        m = 0.45
        for j in range(sing.shape[0]):
            if j != i:
                m = min(m, 0.5 * float(np.linalg.norm(a - sing[j])))
        m = min(m, 0.85 * (1.0 - float(np.linalg.norm(a))))
        patches.append((a, max(m, 1e-3)))
    return patches


# (n_r, n_hr, n_ht, n_s) of every half-ball pass: Gauss radii, the
# hemisphere rule and the Gauss radii of each vortex patch
_HALFBALL_RULE = (24, 24, 48, 48)


def _halfball_blocks(sing: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Vortex-adapted rule for the upper half unit ball: yields (nodes (m, 3),
    weight * cutoff (m,)) blocks, one at a time, whose weighted sums add up
    to the integral.

    A global polar rule covers the bulk; around each flat-face singular
    point farther than 0.05 from the origin a locally centered polar patch
    takes over through a smooth partition of unity, so integrands
    concentrating like 1/dist^2 at the vortices are resolved by the patch's
    radial Jacobian.  The rule is _HALFBALL_RULE, read at call time.
    """
    n_r, n_hr, n_ht, n_s = _HALFBALL_RULE
    patches = _patch_radii(sing)

    def chi_sum(X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for a, rho in patches:
            s = np.linalg.norm(X - a[None, :], axis=1)
            out += _smooth_step_down(2.0 * s / rho - 1.0)
        return out

    hem = hemisphere_rule(n_hr, n_ht)

    # each block is built in its own call, so that the generator holds no
    # array of a block it has yielded
    def bulk() -> tuple[np.ndarray, np.ndarray]:
        r, wr = _panel_rule((0.0, 1.0), n_r)
        X = (r[:, None, None] * hem.nodes[None, :, :]).reshape(-1, 3)
        W = (wr[:, None] * r[:, None] ** 2 * hem.weights[None, :]).ravel()
        return X, W * (1.0 - chi_sum(X))

    def patch(a: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
        s, ws = _panel_rule((0.0, rho), n_s)
        Xa = (s[:, None, None] * hem.nodes[None, :, :]).reshape(-1, 3)
        Xa += a
        Wa = (ws[:, None] * s[:, None] ** 2 * hem.weights[None, :]).ravel()
        sa = np.linalg.norm(Xa - a[None, :], axis=1)
        return Xa, Wa * _smooth_step_down(2.0 * sa / rho - 1.0)

    yield bulk()
    for a, rho in patches:
        yield patch(a, rho)


def _halfball_pass(v, tests, atoms) -> tuple[float, np.ndarray]:
    """The discrete energy of v and its volume pairing with each test.

    One rule and one difference gradient of v per leaf serve them all:
    (1/2) sum w |grad v|^2 and sum w H(v) . phi.grad, with each test's
    exact gradient at the nodes; no test is differenced.  Each block is cut
    into the leaves of energy._pairwise_leaf_sum, so every block sum is the
    one np.sum over the whole block would give, bit for bit.  Returns
    (energy, pairings).
    """
    sing = _singular_positions(atoms)

    def block_sums(X: np.ndarray, w: np.ndarray) -> np.ndarray:
        def leaf(lo: int, hi: int) -> np.ndarray:
            Xl, wl = X[lo:hi], w[lo:hi]
            g = _complex_gradient(v, Xl, _fd_steps(Xl, sing))
            H = _wedge(*g)
            return np.array([np.sum(wl * sum(np.abs(gi) ** 2 for gi in g)),
                             *(np.sum(wl * np.sum(H * phi.grad(Xl), axis=1)) for phi in tests)])
        return _pairwise_leaf_sum(leaf, 0, w.size)

    # block by block in rule order, as one running float per output; starmap
    # drops each block before the next one is built
    totals = sum(starmap(block_sums, _halfball_blocks(sing)))
    return 0.5 * float(totals[0]), totals[1:]


def pairing_volume(v, phi, atoms=None) -> float:
    """Charge pairing through the interior: integral over the upper half
    unit ball of H(v) . grad(phi).

    v is any finite-energy extension of the boundary data; the result
    depends only on the trace.  phi is a LipschitzTest; its exact gradient
    is contracted at the nodes.  atoms, an AtomMeasure, declares the
    flat-face vortex points of v so the quadrature and difference steps
    can adapt; omit it for smooth extensions.  A constant phi gives
    exactly 0 because its gradient is zero.
    """
    _require_test(phi)
    _, pairings = _halfball_pass(v, [phi], atoms)
    return float(pairings[0])


def halfball_energy_fd(v, atoms=None) -> float:
    """Discrete Dirichlet energy (1/2) integral of |grad v|^2 over the
    upper half unit ball, with the same vortex-adapted quadrature and
    difference steps as pairing_volume."""
    return _halfball_pass(v, [], atoms)[0]


# ---------------------------------------------------------------------------
# surface representation
# ---------------------------------------------------------------------------


# (n_hr, n_ht) of the hemisphere rule of pairing_surface and of the BCL potential
_HEMISPHERE_RULE = (48, 96)


def pairing_surface(g: BoundaryField, phi) -> float:
    """Charge pairing through the boundary: twice the hemisphere integral
    of det(tangential gradient of the sphere part) times phi, minus
    2*pi*sum of degree_i * phi(atom_i) over the field's own atoms g.atoms.

    The determinant uses per-node orthonormal tangent frames (tau1, tau2)
    with (tau1, tau2, x) direct, and tangential central differences along
    renormalized great-circle displacements, on the 48 x 96 hemisphere
    rule.  Atoms closer together than the equatorial node spacing 2 pi / 96
    cannot be told apart by the rule and are rejected.
    """
    _require_test(phi)
    nu = g.atoms
    resolution = 2.0 * np.pi / _HEMISPHERE_RULE[1]
    if nu.min_separation() < resolution:
        raise PreconditionViolation(
            f"atoms are closer ({nu.min_separation():.3g}) than the grid "
            f"resolution ({resolution:.3g}), so the rule cannot tell them apart"
        )
    rule = hemisphere_rule(*_HEMISPHERE_RULE)
    P, W = rule.nodes, rule.weights
    t1, t2 = _tangent_frames(P)
    det = np.imag(np.conj(_sphere_difference(g.eval_sphere, P, t1))
                  * _sphere_difference(g.eval_sphere, P, t2))
    surface = 2.0 * float(np.sum(W * det * phi(P)))
    if len(nu.atoms) == 0:
        return surface
    atom_values = phi(nu.positions)
    charge = float(sum(d * av for (_, d), av in zip(nu.atoms, atom_values)))
    return surface - 2.0 * np.pi * charge


# ---------------------------------------------------------------------------
# sharp lower bound for unit-degree data
# ---------------------------------------------------------------------------


def _hemisphere_potential():
    """The convex hemisphere potential V(c) = integral over the upper unit
    hemisphere of |x - c| / (1 + x3)^2, as a function of c_xy = (Re c, Im c)
    for c on the flat face, on the 48 x 96 hemisphere rule with the weights
    w / (1 + x3)^2 computed once.  Returns (V, derivatives): derivatives(c_xy)
    is ((gx, gy), (hxx, hxy, hyy)), the exact gradient and Hessian of the
    rule's V, sum k (c - x)/r and sum k (I/r - (c - x)(c - x)^T/r^3) over
    the nodes' xy parts, with r = |x - c| > 0 because every node lies above
    the flat face.

    V(0) = pi exactly, and 0 is the unique minimizer.
    """
    rule = hemisphere_rule(*_HEMISPHERE_RULE)
    nodes = rule.nodes
    kernel = rule.weights / (1.0 + nodes[:, 2]) ** 2
    height2 = nodes[:, 2] ** 2

    def V(c_xy) -> float:
        anchor = np.array([c_xy[0], c_xy[1], 0.0])
        return float(np.sum(kernel * np.linalg.norm(nodes - anchor[None, :], axis=1)))

    def derivatives(c_xy) -> tuple[tuple[float, float], tuple[float, float, float]]:
        dx = c_xy[0] - nodes[:, 0]
        dy = c_xy[1] - nodes[:, 1]
        r2 = dx * dx + dy * dy + height2
        k1 = kernel / np.sqrt(r2)
        k3 = k1 / r2
        trace = float(np.sum(k1))
        return ((float(np.sum(k1 * dx)), float(np.sum(k1 * dy))),
                (trace - float(np.sum(k3 * dx * dx)), -float(np.sum(k3 * dx * dy)),
                 trace - float(np.sum(k3 * dy * dy))))

    return V, derivatives


# Damped Newton on the BCL potential: at most _NEWTON_STEPS steps, each
# halved at most _NEWTON_HALVINGS times.  It has settled at the current
# point once the full step from it is no longer than _NEWTON_SETTLED, so a
# start at the minimizer is returned as it is.  Steps are damped until they
# shrink the gradient, not V: within ~1e-8 of the minimizer V changes by
# less than its own rounding, while the gradient is still resolved to ~1e-15.
_NEWTON_STEPS = 20
_NEWTON_HALVINGS = 30
_NEWTON_SETTLED = 1e-13


def _newton_minimum(derivatives, start: tuple[float, float]) -> tuple[float, float]:
    """Minimizer over the closed unit disc of a strictly convex potential
    with an interior minimum, by damped Newton from start; derivatives is
    the second value of _hemisphere_potential().  Each 2 x 2 Newton system
    is solved by Cramer's rule.  Raises NumericalFailure if the Hessian is
    not positive definite, if no halving of a step keeps it in the disc and
    shrinks the gradient, or if the steps do not settle."""
    cx, cy = start
    (gx, gy), (hxx, hxy, hyy) = derivatives((cx, cy))
    for _ in range(_NEWTON_STEPS):
        det = hxx * hyy - hxy * hxy
        if not (hxx > 0.0 and det > 0.0):
            raise NumericalFailure(f"the BCL potential's Hessian is not positive definite at "
                                   f"({cx:.3g}, {cy:.3g})")
        sx = (hxy * gy - hyy * gx) / det
        sy = (hxy * gx - hxx * gy) / det
        if math.hypot(sx, sy) <= _NEWTON_SETTLED:
            return cx, cy
        size = math.hypot(gx, gy)
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            nx, ny = cx + t * sx, cy + t * sy
            if math.hypot(nx, ny) <= 1.0:
                (ngx, ngy), hess = derivatives((nx, ny))
                if math.hypot(ngx, ngy) < size:
                    break
            t *= 0.5
        else:
            raise NumericalFailure(f"no damped Newton step from ({cx:.3g}, {cy:.3g}) shrinks "
                                   "the BCL potential's gradient")
        cx, cy, gx, gy = nx, ny, ngx, ngy
        hxx, hxy, hyy = hess
    raise NumericalFailure(f"damped Newton on the BCL potential did not settle in "
                           f"{_NEWTON_STEPS} steps")


@dataclass(frozen=True)
class BclReport:
    """Sharp lower bound for the pairing of unit-total-degree data: the
    minimum of the hemisphere potential over the closed disc."""

    value: float
    minimizer: complex
    grid_spacing: float
    grid_minimizer: complex
    grid_value: float

    def __float__(self) -> float:
        return float(self.value)


def bcl_lower_bound(nu: AtomMeasure) -> BclReport:
    """Minimize the hemisphere potential V(c) over the closed unit disc for
    an atom measure of total degree one: search of a 9 x 9 grid over
    [-1, 1]^2 (origin included), then damped Newton on the convex potential
    from the grid minimum, with V's exact gradient and Hessian on the same
    rule.

    The minimum sits at c = 0 with V(0) = pi, so the returned value is the
    sharp half-pairing bound pi for unit-degree data.  Total degree other
    than one is rejected; NumericalFailure if the Newton steps do not settle.
    """
    if nu.total_degree != 1:
        raise PreconditionViolation(
            f"the sharp bound applies to total degree 1, got "
            f"{nu.total_degree}"
        )
    V, derivatives = _hemisphere_potential()
    ticks = np.linspace(-1.0, 1.0, 9)
    spacing = float(ticks[1] - ticks[0])
    best_c = None
    best_v = math.inf
    for cx in ticks:
        for cy in ticks:
            if math.hypot(cx, cy) > 1.0 + 1e-12:
                continue
            val = V(np.array([cx, cy]))
            if val < best_v:
                best_v = val
                best_c = (float(cx), float(cy))
    cx, cy = _newton_minimum(derivatives, best_c)
    value = V(np.array([cx, cy]))
    return BclReport(value=value, minimizer=complex(cx, cy),
                     grid_spacing=spacing,
                     grid_minimizer=complex(*best_c), grid_value=best_v)


# ---------------------------------------------------------------------------
# energy lower bound through the test dictionary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBoundReport:
    """Discrete half-ball energy of an extension against the best charge
    pairing over a dictionary of 1-Lipschitz tests."""

    energy: float
    lower_bound: float
    sup_pairing: float
    sup_test_name: str
    margin: float
    ok: bool
    tests_evaluated: int

    def __float__(self) -> float:
        return float(self.margin)


def energy_lower_bound_check(v, atoms=None) -> EnergyBoundReport:
    """Check the discrete energy of an extension against half the best
    absolute charge pairing over default_test_dictionary(), whose tests are
    1-Lipschitz by construction.

    Both signs of every test are available (negating a test negates the
    pairing), so the supremum is taken over absolute values.  The energy
    must weakly dominate half the supremum, up to 1e-3 * max(1, energy);
    for the canonical unit vortex the two agree and both equal pi.  The
    energy and every pairing come from one pass over the fixed half-ball
    rule, with one difference gradient of v and each test's exact gradient.
    """
    return _energy_bound(v, atoms, ())[0]


def _energy_bound(v, atoms, extra_tests) -> tuple[EnergyBoundReport, np.ndarray]:
    """energy_lower_bound_check, with the volume pairings of extra_tests
    taken in the same half-ball pass.  Returns (report, extra pairings)."""
    dictionary = default_test_dictionary()
    k = len(extra_tests)
    energy, pairings = _halfball_pass(v, [*extra_tests, *dictionary], atoms)
    best = int(np.argmax(np.abs(pairings[k:])))
    sup_pairing = abs(float(pairings[k + best]))
    lower = 0.5 * sup_pairing
    margin = energy - lower
    report = EnergyBoundReport(
        energy=energy,
        lower_bound=lower,
        sup_pairing=sup_pairing,
        sup_test_name=dictionary[best].name,
        margin=margin,
        ok=bool(margin >= -1e-3 * max(1.0, abs(energy))),
        tests_evaluated=len(dictionary),
    )
    return report, pairings[:k]


# ---------------------------------------------------------------------------
# combined JSON report
# ---------------------------------------------------------------------------


def jacobian_report(field: BoundaryField, extension, phi) -> dict:
    """JSON-ready summary: both pairing routes for one test function, their
    gap, the sharp unit-degree bound (when the total degree is one), and
    the winning dictionary test for the energy bound.  The volume pairing
    of phi rides along in the energy check's half-ball pass."""
    _require_test(phi)
    check, (pv,) = _energy_bound(extension, field.atoms, (phi,))
    pv = float(pv)
    ps = pairing_surface(field, phi)
    bcl = (float(bcl_lower_bound(field.atoms))
           if field.atoms.total_degree == 1 else None)
    return {
        "pairing_volume": pv,
        "pairing_surface": ps,
        "abs_gap": abs(pv - ps),
        "bcl_bound": bcl,
        "sup_test_name": check.sup_test_name,
    }
