"""Tests for the distributional Jacobian of half-ball boundary data."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfharm import jacobian
from halfharm.errors import InvalidArgument, PreconditionViolation
from halfharm.jacobian import (
    AtomMeasure,
    BoundaryField,
    EnergyBoundReport,
    LipschitzTest,
    bcl_lower_bound,
    bcl_potential,
    continuity_gap,
    coordinate_tests,
    default_test_dictionary,
    distance_test,
    energy_lower_bound_check,
    halfball_energy_fd,
    jacobian_report,
    pairing_surface,
    pairing_volume,
    product_vortex_field,
    trace_seminorm,
    wedge_field,
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


def rotated_field(field: BoundaryField, eps: float) -> BoundaryField:
    """The same boundary data turned by eps around the vertical axis."""
    c, s = np.cos(eps), np.sin(eps)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    atoms = AtomMeasure(tuple((a * np.exp(1j * eps), d)
                              for a, d in field.atoms.atoms))

    def sphere(pts):
        return field.eval_sphere(np.atleast_2d(pts) @ R)

    def flat(z):
        return field.eval_flat(np.atleast_1d(z) * np.exp(-1j * eps))

    return BoundaryField(sphere=sphere, flat=flat, atoms=atoms)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_atom_measure_rejects_position_outside_disc():
    with pytest.raises(InvalidArgument):
        AtomMeasure(((1.5 + 0j, 1),))


def test_atom_measure_rejects_duplicate_positions():
    with pytest.raises(InvalidArgument):
        AtomMeasure(((0.2 + 0j, 1), (0.2 + 5e-10j, -1)))


def test_atom_measure_rejects_noninteger_degree():
    with pytest.raises(InvalidArgument):
        AtomMeasure(((0j, 1.5),))


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


def test_wedge_of_constant_field_vanishes():
    H = wedge_field(lambda X: np.full(np.atleast_2d(X).shape[0],
                                      0.3 + 0.4j))
    pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.5], [-0.3, 0.4, 0.1]])
    assert np.all(H(pts) == 0.0)


def test_wedge_of_planar_identity():
    H = wedge_field(lambda X: np.atleast_2d(X)[:, 0]
                    + 1j * np.atleast_2d(X)[:, 1])
    pts = np.array([[0.1, 0.2, 0.3], [-0.2, 0.5, 0.4], [0.0, 0.0, 0.6]])
    values = H(pts)
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
        H = wedge_field(v)(pts)
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
    field, ext = product_vortex_field(VORTEX)
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
    tol = 1e-4 * 2.0 * trace_seminorm(field)
    for other in (bump_added, phase_scrambled):
        assert abs(pairing_volume(other, x3, VORTEX) - base) <= tol


def test_vortex_volume_surface_and_zonal_value_agree():
    field, ext = product_vortex_field(VORTEX)
    x3 = coordinate_tests()[2]
    pv = pairing_volume(ext, x3, VORTEX)
    ps = pairing_surface(field, None, x3)
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
    assert abs(pairing_surface(field, None, one)) <= 1e-6


def test_degree_two_surface_pairing_with_constant_vanishes():
    field, _ = product_vortex_field(AtomMeasure(((0j, 2),)))
    one = constant_test(1.0)
    assert abs(pairing_surface(field, None, one)) <= 1e-6


def test_pairing_surface_rejects_atoms_below_grid_resolution():
    nu = AtomMeasure(((0.2 + 0j, 1), (0.2 + 1e-4j, -1)))
    field, _ = product_vortex_field(nu)
    one = constant_test(1.0)
    with pytest.raises(PreconditionViolation, match="resolution"):
        pairing_surface(field, None, one)


def test_pairing_surface_rejects_inconsistent_atom_measure():
    field, _ = product_vortex_field(VORTEX)
    one = constant_test(1.0)
    with pytest.raises(PreconditionViolation, match="disagrees"):
        pairing_surface(field, AtomMeasure(((0.1 + 0j, 1),)), one)


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
            ps = pairing_surface(field, None, phi)
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
        assert abs(rep.minimizer) <= rep.grid_spacing
        assert float(rep) == rep.value


def test_bcl_lower_bound_rejects_other_total_degree():
    for atoms in (((0j, 2),), ((0.2 + 0j, 1), (-0.3j, -1))):
        with pytest.raises(PreconditionViolation):
            bcl_lower_bound(AtomMeasure(atoms))


def test_bcl_potential_is_centered_and_convex_at_zero():
    v0 = bcl_potential(0j)
    assert abs(v0 - math.pi) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        assert bcl_potential(complex(c)) > v0


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
# continuity of the pairing
# ---------------------------------------------------------------------------


def test_continuity_gap_vanishes_for_identical_fields():
    field, _ = product_vortex_field(VORTEX)
    rep = continuity_gap(field, field, coordinate_tests()[0])
    assert rep.gap == 0.0
    assert rep.bound == 0.0
    assert rep.ratio == 0.0


def test_continuity_gap_scales_linearly_under_small_rotations():
    field, _ = product_vortex_field(AtomMeasure(((0.4 - 0.2j, 1),)))
    x1 = coordinate_tests()[0]
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        rep = continuity_gap(field, rotated_field(field, eps), x1)
        assert rep.bound > 0.0
        assert np.isfinite(rep.ratio)
        gaps.append(rep.gap)
    slopes = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    for slope in slopes:
        assert 0.8 <= slope <= 1.1, slopes


def test_continuity_gap_records_finite_ratio_for_random_pair():
    g1, _ = product_vortex_field(AtomMeasure(((0.4 - 0.2j, 1),)))
    g2, _ = product_vortex_field(AtomMeasure(((-0.1 + 0.3j, 1),)))
    rep = continuity_gap(g1, g2, coordinate_tests()[0])
    assert rep.gap > 0.0
    assert rep.bound > 0.0
    assert np.isfinite(rep.ratio)
    assert rep.test_name == "x1"
    assert rep.seminorm_left > 0.0 and rep.seminorm_right > 0.0


def test_continuity_gap_requires_declared_constant():
    field, _ = product_vortex_field(VORTEX)
    with pytest.raises(InvalidArgument):
        continuity_gap(field, field, lambda pts: np.atleast_2d(pts)[:, 0])


# ---------------------------------------------------------------------------
# seminorm and report plumbing
# ---------------------------------------------------------------------------


def test_trace_seminorm_zero_for_constant_data():
    const = BoundaryField(
        sphere=lambda pts: np.ones(np.atleast_2d(pts).shape[0], complex),
        flat=lambda z: np.ones(np.atleast_1d(z).shape[0], complex),
        atoms=AtomMeasure(()),
    )
    const.validate()
    assert trace_seminorm(const) == 0.0
    one = constant_test(1.0)
    assert pairing_surface(const, None, one) == 0.0


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
# the vortex patches' radii from quadrature._panel_rule.
HALFBALL_PINS = {
    "vortex": (VORTEX, {
        "report": dict(energy=3.1415927844896947, lower_bound=3.1415927844892346,
                       sup_pairing=6.283185568978469, sup_test_name="dist(0,0)",
                       margin=4.600764214046649e-13, ok=True, tests_evaluated=16),
        "pairings": {
            "dist(-1,0)": 1.9908893069344265,
            "dist(-0.5,-0.5)": 2.8188303391123863,
            "dist(-0.5,0)": 3.6270287196792346,
            "dist(-0.5,0.5)": 2.8188303391123863,
            "dist(0,-1)": 1.9908893069344276,
            "dist(0,-0.5)": 3.627028719679235,
            "dist(0,0)": 6.283185568978469,
            "dist(0,0.5)": 3.627028719679233,
            "dist(0,1)": 1.9908893069344256,
            "dist(0.5,-0.5)": 2.818830339112388,
            "dist(0.5,0)": 3.627028719679235,
            "dist(0.5,0.5)": 2.8188303391123855,
            "dist(1,0)": 1.9908893069344273,
            "x1": -4.1691660466038147e-16,
            "x2": 1.0635574384620754e-15,
            "x3": 2.4271598394329823,
        },
        "energy": 3.1415927844896947,
        "jacobian_report": {"pairing_volume": 2.4271598394329823,
                            "pairing_surface": 2.4271590539138295,
                            "abs_gap": 7.855191528349792e-07,
                            "bcl_bound": 3.1415926535897927,
                            "sup_test_name": "dist(0,0)"},
    }),
    "three_atoms": (THREE_ATOMS, {
        "report": dict(energy=5.959796121469223, lower_bound=2.2898461056371584,
                       sup_pairing=4.579692211274317, sup_test_name="dist(0.5,0)",
                       margin=3.6699500158320646, ok=True, tests_evaluated=16),
        "pairings": {
            "dist(-1,0)": 1.5652171931439394,
            "dist(-0.5,-0.5)": 1.3931181283510248,
            "dist(-0.5,0)": 3.316037069124163,
            "dist(-0.5,0.5)": 3.1385594619744466,
            "dist(0,-1)": 0.7116153954175173,
            "dist(0,-0.5)": 0.34895110489241765,
            "dist(0,0)": 3.4667121297427115,
            "dist(0,0.5)": 3.6485811462659083,
            "dist(0,1)": 1.8662622689276311,
            "dist(0.5,-0.5)": 1.3568774547729436,
            "dist(0.5,0)": 4.579692211274317,
            "dist(0.5,0.5)": 2.8653715375631177,
            "dist(1,0)": 1.7451712433354956,
            "x1": -0.010296752257002738,
            "x2": -0.007631298867888908,
            "x3": 1.0319187322757595,
        },
        "energy": 5.959796121469223,
        "jacobian_report": {"pairing_volume": 1.0319187322757595,
                            "pairing_surface": 1.0319260435725002,
                            "abs_gap": 7.311296740697415e-06,
                            "bcl_bound": 3.1415926535897927,
                            "sup_test_name": "dist(0.5,0)"},
    }),
}


@pytest.mark.parametrize("case", sorted(HALFBALL_PINS))
def test_halfball_pins(case):
    nu, pins = HALFBALL_PINS[case]
    field, ext = product_vortex_field(nu)
    assert energy_lower_bound_check(ext, nu) == EnergyBoundReport(**pins["report"])
    assert {t.name: pairing_volume(ext, t, nu)
            for t in default_test_dictionary()} == pins["pairings"]
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
    # each block needs the six central-difference evaluations of v, shared
    # by the energy and all 16 dictionary pairings; the counts do not depend
    # on the rule, so a small one keeps the test fast
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
    # the extension is differenced once per block, not once per route
    monkeypatch.setattr(jacobian, "_HALFBALL_RULE", (6, 6, 12, 6))
    field, ext = product_vortex_field(nu)
    calls = []

    def counted(X):
        calls.append(1)
        return ext(X)

    report = jacobian_report(field, counted, coordinate_tests()[2])
    assert report["sup_test_name"]
    assert len(calls) == 6 * blocks
