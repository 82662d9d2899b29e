"""Tests for the distributional Jacobian of half-ball boundary data."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from halfharm import energy, jacobian
from halfharm.errors import InvalidArgument, NumericalFailure, PreconditionViolation
from halfharm.jacobian import (
    AtomMeasure,
    BoundaryField,
    EnergyBoundReport,
    LipschitzTest,
    bcl_lower_bound,
    coordinate_tests,
    default_test_dictionary,
    distance_test,
    energy_lower_bound_check,
    halfball_energy_fd,
    jacobian_report,
    pairing_surface,
    pairing_volume,
    product_vortex_field,
)

VORTEX = AtomMeasure(((0j, 1),))

# Zoo of atom configurations used by the cross-representation invariants;
# degrees cover +/-1 and +/-2, positions cover the origin, off-center
# points, and multi-atom mixtures.
FIELD_ZOO = (
    ((0j, 1),),
    ((0j, -1),),
    ((0j, 2),),
    ((0.4 - 0.2j, 1),),
    ((-0.3 + 0.5j, -1),),
    ((0.5j, 2),),
    ((0.35 - 0.35j, -2),),
    ((0.3 + 0.3j, 1), (-0.45j, -2)),
    ((0.5 + 0j, 1), (-0.3 + 0.2j, 1), (0.1 - 0.4j, -1)),
    ((0.45 + 0.1j, 2), (-0.5 - 0.2j, -1)),
)

# Zonal reduction: the canonical vortex trace has tangential determinant
# exactly 1/(1+x3)^2, so pairing it with x3 gives
# 2 * 2*pi * int_0^1 t/(1+t)^2 dt = 4*pi*(ln 2 - 1/2).
VORTEX_X3_PAIRING = 4.0 * math.pi * (math.log(2.0) - 0.5)


def constant_test(value: float) -> LipschitzTest:
    """The test x -> value; its gradient is exactly zero."""
    return LipschitzTest(lambda pts: np.full(np.atleast_2d(pts).shape[0], value),
                         lambda pts: np.zeros(np.atleast_2d(pts).shape),
                         lip=1.0, name=f"const({value:g})")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_atom_measure_rejects_position_outside_disc():
    for position in (1.5 + 0j, complex(math.nan, 0.0), complex(0.1, math.nan)):
        with pytest.raises(InvalidArgument):
            AtomMeasure(((position, 1),))


def test_atom_measure_rejects_duplicate_positions():
    with pytest.raises(InvalidArgument):
        AtomMeasure(((0.2 + 0j, 1), (0.2 + 5e-10j, -1)))


def test_atom_measure_rejects_noninteger_degree():
    for degree in (1.5, math.nan, math.inf, -math.inf, "1", "one"):
        with pytest.raises(InvalidArgument, match="not an integer"):
            AtomMeasure(((0j, degree),))


def test_atom_measure_totals_and_geometry():
    nu = AtomMeasure(((0.2 + 0.1j, 2), (-0.4j, -1)))
    assert nu.total_degree == 1
    assert nu.degrees == (2, -1)
    assert nu.positions.shape == (2, 3)
    assert np.allclose(nu.positions[:, 2], 0.0)
    assert abs(nu.min_separation() - abs(0.2 + 0.1j + 0.4j)) < 1e-15


def test_lipschitz_test_validates_distance_function():
    distance_test(0.3 - 0.2j).validate()
    for test in default_test_dictionary():
        test.validate()


def test_lipschitz_test_rejects_understated_constant():
    lying = LipschitzTest(lambda pts: 3.0 * np.atleast_2d(pts)[:, 0],
                          lambda pts: np.broadcast_to([3.0, 0.0, 0.0], np.atleast_2d(pts).shape),
                          lip=1.0, name="thrice-x1")
    with pytest.raises(PreconditionViolation):
        lying.validate()


def test_lipschitz_test_rejects_a_wrong_gradient():
    # func x1 with the gradient of x2: every difference quotient is within
    # the constant and |grad| = 1, so only the gradient check can catch it
    swapped = LipschitzTest(lambda pts: np.atleast_2d(pts)[:, 0],
                            lambda pts: np.broadcast_to([0.0, 1.0, 0.0], np.atleast_2d(pts).shape),
                            lip=1.0, name="x1-with-e2")
    with pytest.raises(PreconditionViolation, match="central difference"):
        swapped.validate()


def test_lipschitz_test_rejects_a_gradient_above_the_constant():
    # 1.2 x1 stays under its declared constant 1.3, but a gradient of norm
    # 1.5 does not
    scaled = LipschitzTest(lambda pts: 1.2 * np.atleast_2d(pts)[:, 0],
                           lambda pts: np.broadcast_to([1.5, 0.0, 0.0], np.atleast_2d(pts).shape),
                           lip=1.3, name="1.2 x1")
    with pytest.raises(PreconditionViolation, match="gradient norm"):
        scaled.validate()


def _triangle_wave(period: float, sign: float = 1.0) -> LipschitzTest:
    """The 1-Lipschitz triangle wave of x1 with the given period, kinked
    every half period, and sign times its one-sided gradient."""
    def phase(pts):
        return np.mod(np.atleast_2d(pts)[:, 0] / period, 1.0) - 0.5

    return LipschitzTest(lambda pts: period * np.abs(phase(pts)),
                         lambda pts: sign * np.sign(phase(pts))[:, None] * [1.0, 0.0, 0.0],
                         lip=1.0, name=f"wave({period:g})")


def test_lipschitz_test_skips_kinks_in_the_gradient_check():
    # at period 4e-7 every central-difference stencil of the check holds a
    # kink, so no component is compared; at period 0.1 almost none does, and
    # a gradient of the wrong sign is caught
    _triangle_wave(4e-7).validate()
    _triangle_wave(0.1).validate()
    with pytest.raises(PreconditionViolation, match="central difference"):
        _triangle_wave(0.1, sign=-1.0).validate()


def test_boundary_field_validates_canonical_data():
    field, _ = product_vortex_field(VORTEX)
    field.validate()
    two, _ = product_vortex_field(AtomMeasure(((0.3 + 0.3j, 1),
                                               (-0.45j, -2))))
    two.validate()


@pytest.mark.parametrize("atoms", [
    ((0.5 + 0j, 1), (-0.3 + 0.2j, 1), (0.1 - 0.4j, -1)),
    ((0.45 + 0.1j, 2), (-0.5 - 0.2j, -1)),
])
def test_product_vortex_extension_does_not_depend_on_the_call_size(atoms):
    # 2,000 half-ball points in one call, in chunks of 7, and one at a time
    _, ext = product_vortex_field(AtomMeasure(atoms))
    rng = np.random.default_rng(41)
    X = rng.normal(size=(2000, 3))
    X *= rng.uniform(0.0, 1.0, size=(2000, 1)) ** (1.0 / 3.0) / np.linalg.norm(X, axis=1, keepdims=True)
    X[:, 2] = np.abs(X[:, 2])
    whole = ext(X)
    assert np.array_equal(np.concatenate([ext(X[k:k + 7]) for k in range(0, 2000, 7)]), whole)
    assert np.array_equal(np.concatenate([ext(X[k:k + 1]) for k in range(2000)]), whole)
    assert np.array_equal([ext(X[k])[0] for k in range(0, 2000, 10)], whole[::10])


def test_boundary_field_rejects_modulus_violation():
    field, _ = product_vortex_field(VORTEX)
    shrunk = BoundaryField(sphere=field.sphere,
                           flat=lambda z: 0.9 * field.eval_flat(z),
                           atoms=field.atoms)
    with pytest.raises(PreconditionViolation):
        shrunk.validate()


def test_boundary_field_rejects_equator_mismatch():
    field, _ = product_vortex_field(VORTEX)
    twisted = BoundaryField(
        sphere=lambda pts: np.exp(0.01j) * field.eval_sphere(pts),
        flat=field.flat,
        atoms=field.atoms,
    )
    with pytest.raises(PreconditionViolation):
        twisted.validate()


def test_boundary_field_rejects_wrong_declared_degree():
    field, _ = product_vortex_field(VORTEX)
    mislabeled = BoundaryField(sphere=field.sphere, flat=field.flat,
                               atoms=AtomMeasure(((0j, 2),)))
    with pytest.raises(PreconditionViolation, match="winds"):
        mislabeled.validate()


# ---------------------------------------------------------------------------
# wedge field
# ---------------------------------------------------------------------------


def wedge_of(v, pts):
    """H(v) at pts, composed as the half-ball pass composes it: the wedge of
    the difference gradient with the smooth-field steps."""
    X = np.asarray(pts, dtype=float)
    steps = jacobian._fd_steps(X, np.zeros((0, 3)))
    return jacobian._wedge(*energy._complex_gradient(v, X, steps))


def test_wedge_of_constant_field_vanishes():
    v = lambda X: np.full(np.atleast_2d(X).shape[0], 0.3 + 0.4j)
    pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.5], [-0.3, 0.4, 0.1]])
    assert np.all(wedge_of(v, pts) == 0.0)


def test_wedge_of_planar_identity():
    v = lambda X: np.atleast_2d(X)[:, 0] + 1j * np.atleast_2d(X)[:, 1]
    pts = np.array([[0.1, 0.2, 0.3], [-0.2, 0.5, 0.4], [0.0, 0.0, 0.6]])
    values = wedge_of(v, pts)
    assert np.allclose(values[:, :2], 0.0, atol=1e-10)
    assert np.allclose(values[:, 2], 2.0, atol=1e-10)


def test_wedge_bounded_by_gradient_squared():
    # |H(v)| <= |grad v|^2 pointwise: |H| = 2 |grad(Re v) x grad(Im v)|.
    rng = np.random.default_rng(11)
    for _ in range(10):
        k1, k2 = rng.normal(size=(2, 3))
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)

        def v(X, k1=k1, k2=k2, c1=c1, c2=c2):
            X = np.atleast_2d(X)
            return (c1 * np.exp(1j * (X @ k1))
                    + c2 * np.sin(X @ k2) * (1.0 + 1j))

        pts = rng.uniform(-0.6, 0.6, size=(40, 3))
        pts[:, 2] = np.abs(pts[:, 2])
        H = wedge_of(v, pts)
        h = np.full(pts.shape[0], 1e-3)
        grads = []
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            grads.append((v(pts + h[:, None] * e) - v(pts - h[:, None] * e))
                         / (2.0 * h))
        grad_sq = sum(np.abs(g) ** 2 for g in grads)
        assert np.all(np.linalg.norm(H, axis=1)
                      <= grad_sq * (1.0 + 1e-8) + 1e-9)


# ---------------------------------------------------------------------------
# volume pairing
# ---------------------------------------------------------------------------


def test_pairing_volume_constant_test_is_exact_zero():
    _, ext = product_vortex_field(VORTEX)
    const = constant_test(2.5)
    assert pairing_volume(ext, const, VORTEX) == 0.0


def test_pairing_volume_is_extension_independent():
    _, ext = product_vortex_field(VORTEX)
    x3 = coordinate_tests()[2]

    def bump_added(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        chi = X[:, 2] * (1.0 - np.sum(X * X, axis=1))
        return ext(X) + (0.3 - 0.2j) * chi * np.cos(X[:, 0])

    def phase_scrambled(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        chi = X[:, 2] * (1.0 - np.sum(X * X, axis=1))
        return ext(X) * np.exp(5j * chi)

    base = pairing_volume(ext, x3, VORTEX)
    # 10.313314626208072 is the discrete trace seminorm of the vortex's
    # boundary data (a 24 x 48 rule on each face of the half-ball boundary),
    # as recorded when that seminorm was still computed in the package
    tol = 1e-4 * 2.0 * 10.313314626208072
    for other in (bump_added, phase_scrambled):
        assert abs(pairing_volume(other, x3, VORTEX) - base) <= tol


def test_vortex_volume_surface_and_zonal_value_agree():
    field, ext = product_vortex_field(VORTEX)
    x3 = coordinate_tests()[2]
    pv = pairing_volume(ext, x3, VORTEX)
    ps = pairing_surface(field, x3)
    assert abs(ps - VORTEX_X3_PAIRING) <= 1e-8
    assert abs(pv - ps) <= 1e-5


# ---------------------------------------------------------------------------
# surface pairing
# ---------------------------------------------------------------------------


def test_vortex_surface_pairing_with_constant_vanishes():
    # 2 * integral of the trace determinant equals 2*pi*(total degree),
    # so the constant test annihilates the charge distribution.
    field, _ = product_vortex_field(VORTEX)
    one = constant_test(1.0)
    assert abs(pairing_surface(field, one)) <= 1e-6


def test_degree_two_surface_pairing_with_constant_vanishes():
    field, _ = product_vortex_field(AtomMeasure(((0j, 2),)))
    one = constant_test(1.0)
    assert abs(pairing_surface(field, one)) <= 1e-6


def test_pairing_surface_rejects_atoms_below_grid_resolution():
    nu = AtomMeasure(((0.2 + 0j, 1), (0.2 + 1e-4j, -1)))
    field, _ = product_vortex_field(nu)
    one = constant_test(1.0)
    with pytest.raises(PreconditionViolation, match="resolution"):
        pairing_surface(field, one)


# ---------------------------------------------------------------------------
# cross-representation invariants over the field zoo
# ---------------------------------------------------------------------------


def test_volume_equals_surface_across_field_zoo():
    x3 = coordinate_tests()[2]
    dist = distance_test(0.3 - 0.1j)
    for atoms in FIELD_ZOO:
        nu = AtomMeasure(atoms)
        field, ext = product_vortex_field(nu)
        scale = 2.0 * math.pi * sum(abs(d) for d in nu.degrees)
        for phi in (x3, dist):
            pv = pairing_volume(ext, phi, nu)
            ps = pairing_surface(field, phi)
            assert abs(pv - ps) <= 1e-3 * scale, (atoms, phi.name, pv, ps)


def test_constant_pairing_is_rounding_exact_zero_for_all_fields():
    const = constant_test(-1.7)
    for atoms in FIELD_ZOO:
        nu = AtomMeasure(atoms)
        _, ext = product_vortex_field(nu)
        assert pairing_volume(ext, const, nu) == 0.0


# ---------------------------------------------------------------------------
# sharp lower bound for unit-degree data
# ---------------------------------------------------------------------------


def test_bcl_lower_bound_is_pi_for_unit_degree_measures():
    measures = (
        AtomMeasure(((0j, 1),)),
        AtomMeasure(((0.3 + 0j, 1),)),
        AtomMeasure(((0.2 + 0.4j, 2), (-0.3j, -1))),
    )
    for nu in measures:
        rep = bcl_lower_bound(nu)
        assert abs(rep.value - math.pi) <= 1e-6
        # the grid holds the minimizer 0, where the Newton steps settle at once
        assert rep.grid_minimizer == 0j
        assert abs(rep.minimizer) <= 1e-12
        assert rep.value == rep.grid_value
        assert float(rep) == rep.value


def test_bcl_lower_bound_rejects_other_total_degree():
    for atoms in (((0j, 2),), ((0.2 + 0j, 1), (-0.3j, -1))):
        with pytest.raises(PreconditionViolation):
            bcl_lower_bound(AtomMeasure(atoms))


def test_bcl_potential_is_centered_and_convex_at_zero():
    # the potential bcl_lower_bound minimizes
    V, _ = jacobian._hemisphere_potential()
    v0 = V((0.0, 0.0))
    assert abs(v0 - math.pi) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        assert V((c.real, c.imag)) > v0


# damped Newton from the grid minimum (the origin) and from starts off it,
# including one near the rim where the full step is damped
_NEWTON_STARTS = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.5), (-0.7, 0.7), (0.6, -0.75), (0.99, 0.0)]


@pytest.mark.parametrize("start", _NEWTON_STARTS)
def test_bcl_newton_matches_nelder_mead(start):
    V, derivatives = jacobian._hemisphere_potential()
    cx, cy = jacobian._newton_minimum(derivatives, start)
    assert math.hypot(cx, cy) <= 1e-12
    ref = minimize(V, np.array(start), method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 400})
    assert ref.success and np.hypot(*ref.x) <= 1e-6
    assert V((cx, cy)) <= ref.fun + 4.5e-16  # at least as low, to 1 ulp of pi


def test_bcl_potential_derivatives_match_central_differences():
    V, derivatives = jacobian._hemisphere_potential()
    h = 1e-5
    steps = (np.array([h, 0.0]), np.array([0.0, h]))
    rng = np.random.default_rng(11)
    for c in [np.zeros(2), *rng.uniform(-0.65, 0.65, (6, 2))]:
        grad, (hxx, hxy, hyy) = derivatives(c)
        fd_grad = [(V(c + e) - V(c - e)) / (2.0 * h) for e in steps]
        assert np.allclose(grad, fd_grad, rtol=0.0, atol=1e-9), (c, grad, fd_grad)
        # the Hessian against central differences of the exact gradient
        fd_hess = [(np.array(derivatives(c + e)[0]) - derivatives(c - e)[0]) / (2.0 * h)
                   for e in steps]
        assert np.allclose(fd_hess, [[hxx, hxy], [hxy, hyy]], rtol=0.0, atol=1e-9), c


def test_bcl_newton_that_does_not_settle_raises(monkeypatch):
    _, derivatives = jacobian._hemisphere_potential()
    monkeypatch.setattr(jacobian, "_NEWTON_STEPS", 2)
    with pytest.raises(NumericalFailure, match="did not settle"):
        jacobian._newton_minimum(derivatives, (0.5, 0.5))
    monkeypatch.setattr(jacobian, "_NEWTON_STEPS", 20)
    monkeypatch.setattr(jacobian, "_NEWTON_HALVINGS", 0)
    with pytest.raises(NumericalFailure, match="shrinks"):
        jacobian._newton_minimum(derivatives, (0.5, 0.5))


def test_bcl_newton_damps_steps_that_overshoot():
    # one term of the potential, sqrt(0.01 + |c|^2): from (0.9, 0) the full
    # Newton step lands at -73.8, outside the disc, so it must be halved
    def one_node(c):
        r = math.sqrt(0.01 + c[0] ** 2 + c[1] ** 2)
        return ((c[0] / r, c[1] / r),
                (1.0 / r - c[0] ** 2 / r ** 3, -c[0] * c[1] / r ** 3, 1.0 / r - c[1] ** 2 / r ** 3))

    assert math.hypot(*jacobian._newton_minimum(one_node, (0.9, 0.0))) <= 1e-12


def test_bcl_newton_rejects_an_indefinite_hessian():
    def saddle(c):
        return (c[0], -c[1]), (1.0, 0.0, -1.0)

    with pytest.raises(NumericalFailure, match="positive definite"):
        jacobian._newton_minimum(saddle, (0.5, 0.5))


def test_bcl_lower_bound_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("solve", "inv", "lstsq", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert bcl_lower_bound(AtomMeasure(((0j, 1),))).value == pytest.approx(math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# energy lower bound through the dictionary
# ---------------------------------------------------------------------------


def test_energy_bound_is_tight_for_canonical_vortex():
    _, ext = product_vortex_field(VORTEX)
    rep = energy_lower_bound_check(ext, VORTEX)
    assert abs(rep.energy - math.pi) <= 1e-4
    assert rep.lower_bound >= math.pi - 1e-3
    assert abs(rep.margin) <= 1e-4
    assert rep.sup_test_name == "dist(0,0)"
    assert rep.ok
    assert rep.tests_evaluated == len(default_test_dictionary())


def test_energy_bound_holds_for_moved_atom():
    nu = AtomMeasure(((0.5 + 0j, 1),))
    _, ext = product_vortex_field(nu)
    rep = energy_lower_bound_check(ext, nu)
    assert rep.ok
    assert rep.sup_test_name == "dist(0.5,0)"
    assert rep.lower_bound > 1.0


def test_scramble_raises_energy_but_not_the_bound():
    _, ext = product_vortex_field(VORTEX)

    def scrambled(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        chi = X[:, 2] * (1.0 - np.sum(X * X, axis=1))
        return ext(X) * np.exp(5j * chi)

    base = energy_lower_bound_check(ext, VORTEX)
    noisy = energy_lower_bound_check(scrambled, VORTEX)
    assert noisy.energy > base.energy + 0.5
    assert abs(noisy.lower_bound - base.lower_bound) <= 1e-3
    assert noisy.ok


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_pairing_surface_of_constant_data_is_zero():
    const = BoundaryField(
        sphere=lambda pts: np.ones(np.atleast_2d(pts).shape[0], complex),
        flat=lambda z: np.ones(np.atleast_1d(z).shape[0], complex),
        atoms=AtomMeasure(()),
    )
    const.validate()
    one = constant_test(1.0)
    assert pairing_surface(const, one) == 0.0


def test_default_dictionary_contents():
    tests = default_test_dictionary()
    names = {t.name for t in tests}
    assert {"x1", "x2", "x3", "dist(0,0)"} <= names
    assert all(t.lip <= 1.0 for t in tests)
    assert len(tests) == 16


def test_jacobian_report_keys_and_serialization():
    field, ext = product_vortex_field(VORTEX)
    rep = jacobian_report(field, ext, coordinate_tests()[2])
    assert set(rep) == {"pairing_volume", "pairing_surface", "abs_gap",
                        "bcl_bound", "sup_test_name"}
    assert rep["abs_gap"] <= 1e-4
    assert abs(rep["bcl_bound"] - math.pi) <= 1e-6
    assert rep["sup_test_name"] == "dist(0,0)"
    decoded = json.loads(json.dumps(rep))
    assert decoded["sup_test_name"] == "dist(0,0)"


def test_jacobian_report_omits_bound_off_unit_degree():
    nu = AtomMeasure(((0j, 2),))
    field, ext = product_vortex_field(nu)
    rep = jacobian_report(field, ext, coordinate_tests()[2])
    assert rep["bcl_bound"] is None
    assert rep["abs_gap"] <= 1e-3 * 4.0 * math.pi


def test_halfball_energy_matches_known_vortex_value():
    _, ext = product_vortex_field(VORTEX)
    assert abs(halfball_energy_fd(ext, VORTEX) - math.pi) <= 1e-4


# ---------------------------------------------------------------------------
# exact pins of the half-ball pass
# ---------------------------------------------------------------------------

THREE_ATOMS = AtomMeasure(((0.5 + 0j, 1), (-0.3 + 0.2j, 1), (0.1 - 0.4j, -1)))

# Recorded at the fixed half-ball rule, with each test's exact gradient and
# the vortex patches' radii from quadrature._panel_rule.  Re-recorded when
# quadrature._leggauss moved onto the Legendre recurrence: energies and lower
# bounds moved by at most 2.8e-16 relative, the 16 pairings by at most
# 5.1e-15 absolute, pairing_surface by at most 4.0e-15 relative and
# bcl_bound by 1 ulp.
HALFBALL_PINS = {
    "vortex": (VORTEX, {
        "report": dict(energy=3.1415927844896956, lower_bound=3.1415927844892355,
                       sup_pairing=6.283185568978471, sup_test_name="dist(0,0)",
                       margin=4.600764214046649e-13, ok=True, tests_evaluated=16),
        "pairings": {
            "dist(-1,0)": 1.9908893069344271,
            "dist(-0.5,-0.5)": 2.8188303391123886,
            "dist(-0.5,0)": 3.627028719679236,
            "dist(-0.5,0.5)": 2.8188303391123872,
            "dist(0,-1)": 1.9908893069344282,
            "dist(0,-0.5)": 3.627028719679237,
            "dist(0,0)": 6.283185568978471,
            "dist(0,0.5)": 3.627028719679235,
            "dist(0,1)": 1.990889306934426,
            "dist(0.5,-0.5)": 2.8188303391123894,
            "dist(0.5,0)": 3.627028719679237,
            "dist(0.5,0.5)": 2.818830339112387,
            "dist(1,0)": 1.990889306934428,
            "x1": -4.063786677635907e-16,
            "x2": 1.0556309041416696e-15,
            "x3": 2.427159839432985,
        },
        "energy": 3.1415927844896956,
        "jacobian_report": {"pairing_volume": 2.427159839432985,
                            "pairing_surface": 2.4271590539138392,
                            "abs_gap": 7.855191457295518e-07,
                            "bcl_bound": 3.141592653589792,
                            "sup_test_name": "dist(0,0)"},
    }),
    "three_atoms": (THREE_ATOMS, {
        "report": dict(energy=5.959796121469222, lower_bound=2.289846105637158,
                       sup_pairing=4.579692211274316, sup_test_name="dist(0.5,0)",
                       margin=3.669950015832064, ok=True, tests_evaluated=16),
        "pairings": {
            "dist(-1,0)": 1.5652171931439387,
            "dist(-0.5,-0.5)": 1.3931181283510217,
            "dist(-0.5,0)": 3.316037069124164,
            "dist(-0.5,0.5)": 3.1385594619744475,
            "dist(0,-1)": 0.7116153954175128,
            "dist(0,-0.5)": 0.3489511048924132,
            "dist(0,0)": 3.4667121297427106,
            "dist(0,0.5)": 3.64858114626591,
            "dist(0,1)": 1.8662622689276334,
            "dist(0.5,-0.5)": 1.356877454772941,
            "dist(0.5,0)": 4.579692211274316,
            "dist(0.5,0.5)": 2.8653715375631177,
            "dist(1,0)": 1.7451712433354953,
            "x1": -0.010296752257002509,
            "x2": -0.0076312988678937654,
            "x3": 1.031918732275762,
        },
        "energy": 5.959796121469222,
        "jacobian_report": {"pairing_volume": 1.031918732275762,
                            "pairing_surface": 1.0319260435725603,
                            "abs_gap": 7.311296798429012e-06,
                            "bcl_bound": 3.141592653589792,
                            "sup_test_name": "dist(0.5,0)"},
    }),
}


@pytest.mark.parametrize("case", sorted(HALFBALL_PINS))
def test_halfball_pins(case):
    nu, pins = HALFBALL_PINS[case]
    field, ext = product_vortex_field(nu)
    assert energy_lower_bound_check(ext, nu) == EnergyBoundReport(**pins["report"])
    # the 16 pairings from one shared pass (equal bit for bit to 16 public
    # calls, at a sixteenth of the cost), and one public call
    tests = default_test_dictionary()
    _, shared = jacobian._halfball_pass(ext, tests, nu)
    assert {t.name: float(p) for t, p in zip(tests, shared)} == pins["pairings"]
    assert pairing_volume(ext, tests[0], nu) == pins["pairings"][tests[0].name]
    assert halfball_energy_fd(ext, nu) == pins["energy"]
    assert jacobian_report(field, ext, coordinate_tests()[2]) == pins["jacobian_report"]


def test_pairings_do_not_amplify_a_one_ulp_node_move(monkeypatch):
    # with exact test gradients a 1-ulp move of every node moves each
    # pairing by rounding only; a difference quotient of the tests (step
    # 1e-6) amplified it to 5.6e-13 of the scale
    _, ext = product_vortex_field(THREE_ATOMS)
    tests = default_test_dictionary()
    _, base = jacobian._halfball_pass(ext, tests, THREE_ATOMS)
    blocks = jacobian._halfball_blocks
    monkeypatch.setattr(jacobian, "_halfball_blocks", lambda sing: [
        (np.nextafter(X, np.inf), w) for X, w in blocks(sing)])
    _, moved = jacobian._halfball_pass(ext, tests, THREE_ATOMS)
    scale = 2.0 * math.pi * sum(abs(d) for d in THREE_ATOMS.degrees)
    assert len(moved) == 16
    assert np.max(np.abs(moved - base)) <= 1e-14 * scale


# At the full rule the bulk block has 24 x 1,152 = 27,648 nodes and each
# vortex patch 48 x 1,152 = 55,296; cut like numpy's pairwise sum down to at
# most energy._BLOCK_SAMPLES, they are 4 and 8 leaves of 6,912 nodes.
@pytest.mark.parametrize("nu, leaves", [(VORTEX, 4), (THREE_ATOMS, 4 + 3 * 8)])
def test_halfball_pass_differentiates_once_per_leaf_at_the_full_rule(nu, leaves):
    _, ext = product_vortex_field(nu)
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return ext(X)

    energy_lower_bound_check(counted, nu)
    assert max(rows) <= energy._BLOCK_SAMPLES
    assert rows == [6912] * (6 * leaves)


def test_halfball_pass_stays_in_leaves():
    # whole blocks traced 23.5 MB here: three complex difference gradients,
    # their wedge and the 16 test gradients of 55,296 patch nodes at once;
    # leaf by leaf, with each block built and dropped in turn, 5.4 MB
    _, ext = product_vortex_field(THREE_ATOMS)
    tests = default_test_dictionary()
    tracemalloc.start()
    try:
        jacobian._halfball_pass(ext, tests, THREE_ATOMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# the flat-face anchors of the default dictionary's distance tests
DICTIONARY_ANCHORS = np.array([[cx, cy, 0.0] for cx in np.linspace(-1.0, 1.0, 5)
                               for cy in np.linspace(-1.0, 1.0, 5) if math.hypot(cx, cy) <= 1.0])


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.0, 1.0), polar=st.floats(0.0, math.pi / 2), azimuth=st.floats(0.0, 2 * math.pi))
def test_dictionary_gradients_match_central_differences(r, polar, azimuth):
    x = r * np.array([[math.sin(polar) * math.cos(azimuth),
                       math.sin(polar) * math.sin(azimuth), math.cos(polar)]])
    assume(np.min(np.linalg.norm(DICTIONARY_ANCHORS - x, axis=1)) >= 0.05)
    h = 1e-5
    steps = h * np.eye(3)
    for phi in default_test_dictionary():
        grad = phi.grad(x)
        fd = (phi(x + steps) - phi(x - steps)) / (2.0 * h)
        assert grad.shape == (1, 3), phi.name
        assert np.max(np.abs(grad[0] - fd)) <= 1e-7, (phi.name, grad, fd)
        assert np.linalg.norm(grad[0]) <= phi.lip * (1.0 + 1e-15), phi.name


@pytest.mark.parametrize("nu, blocks", [(VORTEX, 1), (THREE_ATOMS, 4)])
def test_energy_check_differentiates_once_per_block(nu, blocks, monkeypatch):
    # one bulk block, plus one patch block per atom away from the origin;
    # at this small rule each block of 432 nodes is one leaf, and each leaf
    # needs the six central-difference evaluations of v, shared by the
    # energy and all 16 dictionary pairings
    monkeypatch.setattr(jacobian, "_HALFBALL_RULE", (6, 6, 12, 6))
    _, ext = product_vortex_field(nu)
    calls = []

    def counted(X):
        calls.append(1)
        return ext(X)

    rep = energy_lower_bound_check(counted, nu)
    assert rep.tests_evaluated == 16
    assert len(calls) == 6 * blocks


@pytest.mark.parametrize("nu, blocks", [(VORTEX, 1), (THREE_ATOMS, 4)])
def test_jacobian_report_differentiates_once_per_block(nu, blocks, monkeypatch):
    # the volume pairing of phi rides along in the energy check's pass, so
    # the extension is differenced once per leaf, not once per route; at
    # this small rule each block is one leaf
    monkeypatch.setattr(jacobian, "_HALFBALL_RULE", (6, 6, 12, 6))
    field, ext = product_vortex_field(nu)
    calls = []

    def counted(X):
        calls.append(1)
        return ext(X)

    report = jacobian_report(field, counted, coordinate_tests()[2])
    assert report["sup_test_name"]
    assert len(calls) == 6 * blocks
