"""Tests for Blaschke products: evaluation, traces, degrees, margins, balance."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfharm.blaschke import (
    BlaschkeProduct,
    CircleSample,
    balance_vector,
    boundary_trace,
    circle_energy_analytic,
    degree_of,
    derivative,
    eval_product,
    homogeneous_extension,
    modulus_bound_margin,
    winding_number,
)
from halfharm.errors import DomainViolation, InvalidArgument, Undersampled


def _random_product(rng, max_degree=5, max_radius=0.8):
    d = int(rng.integers(0, max_degree + 1))
    zeros = tuple(
        rng.uniform(0, max_radius) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(d)
    )
    return BlaschkeProduct(
        theta=rng.uniform(0, 2 * np.pi), zeros=zeros, conjugated=bool(rng.integers(0, 2))
    )


# ------------------------------------------------------------------ construction


def test_construction_rejects_zeros_near_boundary():
    with pytest.raises(InvalidArgument):
        BlaschkeProduct(zeros=(1.0 - 1e-13,))
    BlaschkeProduct(zeros=(1.0 - 1e-3,))  # fine


@pytest.mark.parametrize("kwargs", [
    {"theta": math.nan}, {"theta": math.inf}, {"zeros": (complex(math.nan, 0.1),)},
    {"zeros": (0.2, math.nan)}, {"zeros": (complex(math.inf, math.nan),)},
])
def test_construction_rejects_nonfinite_theta_and_zeros(kwargs):
    with pytest.raises(InvalidArgument):
        BlaschkeProduct(**kwargs)


@pytest.mark.parametrize("text", ['{"theta": NaN, "zeros": []}', '{"theta": 0.5, "zeros": [[NaN, 0.0]]}',
                                  '{"theta": -Infinity}'])
def test_from_json_rejects_nonfinite_fields(text):
    # json parses NaN and Infinity, so a document can carry them
    with pytest.raises(InvalidArgument):
        BlaschkeProduct.from_json(text)


def test_circle_sample_needs_enough_points():
    with pytest.raises(InvalidArgument):
        CircleSample(np.ones(4, dtype=complex))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
@pytest.mark.parametrize("unit_tolerance", [math.inf, 1e-6])
def test_circle_sample_rejects_nonfinite_samples(bad, unit_tolerance):
    vals = np.exp(2j * np.pi * np.arange(16) / 16)
    vals[5] = bad
    with pytest.raises(InvalidArgument):
        CircleSample(vals, unit_tolerance=unit_tolerance)


@pytest.mark.parametrize("unit_tolerance, message", [(math.nan, "NaN"), (-1e-6, ">= 0"),
                                                     (-math.inf, ">= 0")])
def test_circle_sample_rejects_a_tolerance_that_checks_nothing(unit_tolerance, message):
    # samples of modulus 2: a NaN tolerance used to skip the unit-modulus check
    vals = 2.0 * np.exp(2j * np.pi * np.arange(16) / 16)
    with pytest.raises(InvalidArgument, match=message):
        CircleSample(vals, unit_tolerance=unit_tolerance)


def test_json_round_trip():
    B = BlaschkeProduct(theta=1.25, zeros=(0.2 + 0.1j, -0.3j), conjugated=True)
    C = BlaschkeProduct.from_json(B.to_json())
    assert C.theta == pytest.approx(B.theta)
    assert C.zeros == B.zeros
    assert C.conjugated is True


# ------------------------------------------------------------------- evaluation


def test_eval_simple_cases():
    ident = BlaschkeProduct(zeros=(0j,))
    assert eval_product(ident, 0.5 + 0j) == pytest.approx(0.5 + 0j)
    const = BlaschkeProduct(zeros=())
    assert eval_product(const, 0.3 - 0.2j) == pytest.approx(1.0 + 0j)
    shifted = BlaschkeProduct(zeros=(0.5 + 0j,))
    assert eval_product(shifted, 0j) == pytest.approx(-0.5 + 0j)


def test_eval_rejects_outside_disc():
    with pytest.raises(DomainViolation):
        eval_product(BlaschkeProduct(zeros=(0j,)), 1.1 + 0j)


@pytest.mark.parametrize("f", [eval_product, derivative])
@pytest.mark.parametrize("z", [complex(math.nan, 0.0), np.array([0.1, complex(0.2, math.nan)])])
def test_eval_and_derivative_reject_nan_points(f, z):
    with pytest.raises(DomainViolation):
        f(BlaschkeProduct(zeros=(0.3j,)), z)


def test_boundary_unit_modulus_many_random_products():
    rng = np.random.default_rng(21)
    for _ in range(50):
        B = _random_product(rng)
        trace = boundary_trace(B, 512)
        assert np.max(np.abs(np.abs(trace.values) - 1.0)) <= 1e-12


def test_maximum_principle_random_probes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        B = _random_product(rng, max_degree=5)
        if B.zero_count == 0:
            continue
        z = rng.uniform(0, 1 - 1e-6, size=100) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=100))
        assert np.all(np.abs(eval_product(B, z)) < 1.0)


@pytest.mark.parametrize("f", [eval_product, derivative])
@pytest.mark.parametrize("B", [
    BlaschkeProduct(theta=1.1, zeros=(0.25 - 0.1j, -0.4 + 0.35j)),
    BlaschkeProduct(theta=0.4, zeros=(0.3 + 0.2j, 0.6j, -0.5 - 0.1j), conjugated=True),
    BlaschkeProduct(theta=2.9, zeros=(0.7 + 0.0j,)),
])
def test_values_do_not_depend_on_the_call_size(f, B):
    # one call of 20,480 points (above numpy's 16,384-value elision size),
    # the same points in row slices, in chunks of 7 and 1, and one at a time
    rng = np.random.default_rng(37)
    z = np.sqrt(rng.uniform(0, 0.998, 20480)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20480))
    grid = z.reshape(160, 128)
    whole = f(B, grid)
    assert np.array_equal(np.concatenate([f(B, grid[r:r + 3]) for r in range(0, 160, 3)]), whole)
    assert np.array_equal(np.concatenate([f(B, z[k:k + 7]) for k in range(0, 20480, 7)]), whole.ravel())
    picks = rng.choice(20480, 300, replace=False)
    assert np.array_equal([f(B, z[k:k + 1])[0] for k in picks], whole.ravel()[picks])
    assert np.array_equal([f(B, z[k]) for k in picks], whole.ravel()[picks])


# ------------------------------------------------------------------- derivative


def test_derivative_simple_cases():
    ident = BlaschkeProduct(zeros=(0j,))
    assert derivative(ident, 0.2 + 0.3j) == pytest.approx(1.0 + 0j)
    sq = BlaschkeProduct(zeros=(0j, 0j))
    assert derivative(sq, 0.3 + 0j) == pytest.approx(0.6 + 0j)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-7
    for _ in range(50):
        B = _random_product(rng, max_degree=4)
        B = BlaschkeProduct(theta=B.theta, zeros=B.zeros, conjugated=False)
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        fd = (eval_product(B, z + h) - eval_product(B, z - h)) / (2 * h)
        assert abs(derivative(B, z) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_derivative_at_a_zero_uses_product_rule():
    B = BlaschkeProduct(zeros=(0.3 + 0j,))
    expected = (1.0 - 0.09) / (1.0 - 0.09) ** 2
    assert derivative(B, 0.3 + 0j) == pytest.approx(expected)
    double = BlaschkeProduct(zeros=(0.3 + 0j, 0.3 + 0j))
    assert abs(derivative(double, 0.3 + 0j)) <= 1e-14
    near = 0.3 + 5e-15 + 0j  # within the product-rule window but not equal
    assert np.isfinite(derivative(double, near))


def _mp_product_rule(B, z):
    """sum_j f_j'(z) e^{i theta} prod_{k != j} f_k(z) in 40-digit mpmath,
    and the sum of the absolute values of its terms."""
    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        zeros = [mpmath.mpc(a) for a in B.zeros]
        f = [(zm - a) / (1 - mpmath.conj(a) * zm) for a in zeros]
        terms = [(1 - abs(a) ** 2) / (1 - mpmath.conj(a) * zm) ** 2 * mpmath.expj(B.theta)
                 * mpmath.fprod(f[:j] + f[j + 1:]) for j, a in enumerate(zeros)]
        return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))


_polar = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=300, deadline=None)
@given(zeros=st.lists(st.tuples(st.floats(0.0, 0.99, exclude_max=True), st.floats(0.0, 2 * math.pi)),
                      min_size=1, max_size=4),
       theta=st.floats(0.0, 2 * math.pi), points=st.lists(_polar, min_size=1, max_size=8))
def test_derivative_matches_a_40_digit_product_rule(zeros, theta, points):
    # points of the closed disc and the zeros themselves, where the
    # product vanishes; below the smallest normal double no relative bound
    # holds (near a multiple zero the derivative can underflow)
    B = BlaschkeProduct(theta=theta, zeros=tuple(r * complex(math.cos(t), math.sin(t)) for r, t in zeros))
    z = [min(r, 1.0) * complex(math.cos(t), math.sin(t)) for r, t in points] + list(B.zeros)
    got = derivative(B, np.array(z))
    for zk, dk in zip(z, got):
        exact, scale = _mp_product_rule(B, zk)
        assert abs(dk - exact) <= 1e-13 * scale + np.finfo(float).tiny, (zk, dk, exact)


# ------------------------------------------------------- winding numbers, degree


def test_winding_simple_cases():
    const = CircleSample(np.full(16, 1.0 + 0.5j))
    assert winding_number(const) == 0
    phi = 2 * np.pi * np.arange(64) / 64
    assert winding_number(CircleSample(np.exp(3j * phi))) == 3
    assert winding_number(CircleSample(np.exp(-2j * phi))) == -2


def test_winding_refuses_undersampled():
    phi = 2 * np.pi * np.arange(8) / 8
    with pytest.raises(Undersampled):
        winding_number(CircleSample(np.exp(4j * phi)))  # jumps are exactly pi


def test_conjugated_degree_and_winding():
    B = BlaschkeProduct(zeros=(0.2 + 0j, -0.3j), conjugated=True)
    assert degree_of(B) == -2
    assert winding_number(boundary_trace(B, 256)) == -2
    assert degree_of(BlaschkeProduct(zeros=(0.2 + 0j, -0.3j))) == 2
    assert degree_of(BlaschkeProduct()) == 0


@pytest.mark.parametrize("n", [8.5, 16.0, True])
def test_boundary_trace_size_is_an_integer(n):
    # 8.5 used to give 9 samples at angles 2 pi k/8.5, read as 9 uniform ones
    with pytest.raises(InvalidArgument, match="must be an integer"):
        boundary_trace(BlaschkeProduct(zeros=(0.2j,)), n)


def test_boundary_trace_accepts_numpy_integer_sizes():
    B = BlaschkeProduct(theta=0.3, zeros=(0.2j, -0.5 + 0.1j))
    for n in (8, 64):
        assert boundary_trace(B, np.int64(n)).values.tobytes() == boundary_trace(B, n).values.tobytes()
    with pytest.raises(InvalidArgument, match="n >= 8"):
        boundary_trace(B, 7)


def test_degree_matches_winding_for_random_products():
    rng = np.random.default_rng(31)
    for _ in range(50):
        B = _random_product(rng)
        assert degree_of(B) == winding_number(boundary_trace(B, 512))
        n = 64 * (B.zero_count + 1)
        assert degree_of(B) == winding_number(boundary_trace(B, n))


# ------------------------------------------------------------- energy, extension


def test_circle_energy_closed_form():
    assert circle_energy_analytic(BlaschkeProduct(zeros=(0.1 + 0j,))) == pytest.approx(math.pi)
    assert circle_energy_analytic(BlaschkeProduct()) == 0.0
    four = BlaschkeProduct(zeros=(0j, 0.2j, -0.1 + 0j, 0.3 + 0.3j), conjugated=True)
    assert circle_energy_analytic(four) == pytest.approx(4 * math.pi)


def test_homogeneous_extension_identity_map():
    ident = BlaschkeProduct(zeros=(0j,))
    val = homogeneous_extension(ident, np.array([1.0, 0.0, 0.0]))
    assert val == pytest.approx(1.0 + 0j)
    # matches the planar-vortex extension formula (x1 + i x2)/(|X| + x3)
    X = np.array([0.3, -0.4, 0.5])
    expected = (X[0] + 1j * X[1]) / (np.linalg.norm(X) + X[2])
    assert homogeneous_extension(ident, X) == pytest.approx(expected)


def test_homogeneous_extension_north_pole_and_origin():
    B = BlaschkeProduct(zeros=(0.2 + 0.1j, 0.3j))
    assert homogeneous_extension(B, np.array([0.0, 0.0, 1.0])) == pytest.approx(
        eval_product(B, 0j)
    )
    with pytest.raises(DomainViolation):
        homogeneous_extension(B, np.array([0.0, 0.0, 0.0]))


def test_homogeneous_extension_is_0_homogeneous():
    rng = np.random.default_rng(37)
    B = BlaschkeProduct(zeros=(0.4 + 0j, -0.2j), theta=0.7)
    X = rng.normal(size=(100, 3))
    X[:, 2] = np.abs(X[:, 2])
    v1 = homogeneous_extension(B, X)
    v2 = homogeneous_extension(B, 2.0 * X)
    assert np.max(np.abs(v1 - v2)) <= 1e-12


# ------------------------------------------------------------------ margin, balance


def test_modulus_bound_margin_cases():
    power = BlaschkeProduct(zeros=(0j, 0j, 0j))
    assert modulus_bound_margin(power) <= 1.0 + 1e-12
    wide = BlaschkeProduct(zeros=(0.9 + 0j,))
    assert modulus_bound_margin(wide) > 1.0
    critical = BlaschkeProduct(zeros=(1.0 / 3.0 + 0j,))
    m = modulus_bound_margin(critical)
    assert m <= 1.0 + 1e-9
    assert m >= 1.0 - 1e-9  # tight along the negative real axis


def test_balance_vector_zero_iff_centered():
    assert abs(balance_vector(BlaschkeProduct(zeros=(0j,)))) <= 1e-10
    b = balance_vector(BlaschkeProduct(zeros=(0.5 + 0j,)))
    assert b.real > 1e-3
    sym = BlaschkeProduct(zeros=(0.4 + 0j, -0.4 + 0j))
    assert abs(balance_vector(sym)) <= 1e-8


def test_balance_vector_vanishes_only_at_origin_on_grid():
    for alpha in np.arange(0.0, 0.91, 0.1):
        b = balance_vector(BlaschkeProduct(zeros=(alpha + 0j,)))
        if alpha == 0.0:
            assert abs(b) <= 1e-8
        else:
            assert abs(b) > 1e-8
