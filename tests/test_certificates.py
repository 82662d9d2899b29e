"""Tests for the closed-form certificates and their quadrature oracles."""

import dataclasses
import hashlib
import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest

from halfharm import certificates
from halfharm.errors import DomainViolation, InvalidArgument, NumericalFailure
from halfharm.certificates import (
    A_closed,
    A_oracle,
    CertificateReport,
    F1_closed_or_quad,
    F2_certificate,
    F_closed,
    I_oracle,
    J_closed,
    J_oracle,
    M_closed,
    M_oracle,
    N_closed,
    N_oracle,
    P_closed,
    U_closed,
    U_oracle,
    V_closed,
    V_oracle,
    certificate_tables,
    delta_certificate,
    hardy_constant,
    polar_kernel_identity,
    ratint_closed,
    ratint_oracle,
    sphere_destabilization_margin,
    standard_certificates,
)
from halfharm.certificates import _f1_gauss, _f1_many, _f2_block, _f2_many, _f2_profile

# Frozen oracle pins.  Each was computed by an independent quadrature route
# (escalating tensor disc rules, graded adaptive panels, or a 4096-node
# circle rule) and only then written down here; the library must keep
# reproducing them.
PIN_F_QUARTER = 0.7390245283466088  # disc oracle / pi at gamma = 0.5
PIN_I_SQUARED_HALF = 2.321714029076368
PIN_I_FIRST_HALF = 1.9669504165368212
PIN_J_07_06 = 0.13848067566014602
PIN_DELTA_THIRD = 0.9711169156049213
PIN_DELTA_ZERO = 1.345141721631552
PIN_DELTA_HALF = 0.7743601041
PIN_DELTA_09 = 0.2136381870
PIN_F1_01 = 0.408474898026
PIN_F1_05 = 0.065769693333
PIN_F1_10 = 0.019224372402
PIN_DEFICIT = 1.9310471438
PIN_SUBSTITUTION = 1.3500611219

# Gamma-function reference values at the quarter-integers, frozen from
# standard tables; their product must equal pi * sqrt(2) exactly (reflection).
GAMMA_QUARTER = 3.6256099082219083
GAMMA_THREE_QUARTER = 1.2254167024651776
PIN_HARDY = 8.0 * math.pi * (GAMMA_THREE_QUARTER / GAMMA_QUARTER) ** 2


@pytest.fixture(scope="module")
def battery():
    return standard_certificates()


@pytest.fixture(scope="module")
def tables():
    return certificate_tables()


# ---------------------------------------------------------------------------
# F and the disc integral


def test_log_disc_closed_form_at_zero():
    assert math.isclose(F_closed(0.0), 2.0 - 2.0 * math.log(2.0), rel_tol=1e-14)


def test_log_disc_closed_form_domain():
    for bad in (1.0, 1.5, -0.1, math.inf, math.nan):
        with pytest.raises(DomainViolation):
            F_closed(bad)


def test_log_disc_closed_form_increasing():
    grid = np.linspace(0.0, 0.95, 60)
    vals = [F_closed(t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_log_disc_closed_form_divergence():
    assert F_closed(1.0 - 1e-9) > F_closed(0.99) > F_closed(0.9)


def test_disc_oracle_matches_closed_form_on_grid():
    for gamma in np.linspace(0.0, 0.9, 10):
        closed = math.pi * F_closed(gamma * gamma)
        tol = 1e-6 if gamma > 0.85 else 1e-7
        assert abs(I_oracle(float(gamma)) - closed) <= tol


def test_disc_oracle_frozen_pin():
    assert abs(I_oracle(0.5) - PIN_I_SQUARED_HALF) <= 1e-12
    assert abs(math.pi * F_closed(0.25) - PIN_F_QUARTER * math.pi) <= 1e-12


def test_denominator_power_adjudication():
    closed = math.pi * F_closed(0.25)
    assert abs(I_oracle(0.5, squared=True) - closed) <= 1e-7
    first = I_oracle(0.5, squared=False)
    assert abs(first - PIN_I_FIRST_HALF) <= 1e-10
    assert abs(first - closed) > 0.1  # the first-power variant is decisively wrong


# ---------------------------------------------------------------------------
# angular moments and disc mass


def test_angular_moments_at_zero():
    assert math.isclose(M_closed(0.0), 2.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(N_closed(0.0), math.pi, rel_tol=1e-14)


def test_angular_moments_match_oracles():
    for a in np.linspace(0.0, 0.9, 10):
        a = float(a)
        assert abs(M_closed(a) - M_oracle(a)) <= 1e-9 * max(1.0, M_closed(a))
        assert abs(N_closed(a) - N_oracle(a)) <= 1e-9 * max(1.0, N_closed(a))


def test_disc_mass_matches_oracle():
    assert math.isclose(A_closed(0.0), math.pi, rel_tol=1e-14)
    for gamma in np.linspace(0.0, 0.9, 10):
        gamma = float(gamma)
        assert abs(A_closed(gamma) - A_oracle(gamma)) <= 1e-7 * max(1.0, A_closed(gamma))


# ---------------------------------------------------------------------------
# radial building blocks


def test_radial_log_integrals_at_zero():
    assert math.isclose(V_closed(0.0), 0.5 * math.log(2.0) - 0.25, rel_tol=1e-14)


def test_radial_log_integrals_match_oracles():
    for t in np.linspace(0.0, 0.9, 10):
        t = float(t)
        assert abs(V_closed(t) - V_oracle(t)) <= 1e-9
        assert abs(U_closed(t) - U_oracle(t)) <= 1e-9 * max(1.0, abs(U_closed(t)))


def test_partial_fraction_identity():
    for t in np.linspace(0.0, 0.95, 20):
        t = float(t)
        lhs = P_closed(t) + 1.0 / (4.0 * (1.0 + t))
        rhs = (t * t + 11.0 * t - 2.0) / (4.0 * (1.0 + t) ** 3)
        assert abs(lhs - rhs) <= 1e-12


def test_radial_blocks_compose_to_disc_closed_form():
    # pi * F(t) must equal A(sqrt(t)) - 4*pi*(2U(t) - V(t)): the disc integral
    # splits into the kernel mass minus the weighted radial remainder.
    for t in np.linspace(0.0, 0.9, 10):
        t = float(t)
        lhs = math.pi * F_closed(t)
        rhs = A_closed(math.sqrt(t)) - 4.0 * math.pi * (2.0 * U_closed(t) - V_closed(t))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# rational line integral


def test_rational_line_integral_exact_points():
    assert math.isclose(ratint_closed(1.0, 2.0), 1.0, rel_tol=1e-14)
    assert math.isclose(ratint_closed(1.0, 10.0), 2.0, rel_tol=1e-14)
    assert math.isclose(ratint_closed(2.0, 1.0), 41.0 / 144.0, rel_tol=1e-14)


def test_rational_line_integral_matches_oracle():
    for A in np.linspace(0.5, 3.0, 5):
        for B in np.linspace(0.5, 8.0, 5):
            closed = ratint_closed(float(A), float(B))
            assert abs(closed - ratint_oracle(float(A), float(B))) <= 1e-9 * max(1.0, closed)


def test_rational_line_integral_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainViolation):
            ratint_closed(bad, 1.0)
        with pytest.raises(DomainViolation):
            ratint_closed(1.0, bad)


# ---------------------------------------------------------------------------
# circle average of the transplanted kernel


def test_kernel_average_special_values():
    for a in (0.1, 0.5, 1.0):
        assert math.isclose(J_closed(a, 0.0), 1.0 / (1.0 + a) ** 4, rel_tol=1e-13)
    # at a = 1 the closed form collapses to (lam^4 + 1)/16
    for lam in (0.0, 0.3, 0.7, 1.0):
        assert math.isclose(J_closed(1.0, lam), (lam**4 + 1.0) / 16.0, rel_tol=1e-13)


def test_kernel_average_matches_printed_polynomial():
    # the stable rearrangement must agree with the literal polynomial form
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.0, 0.95))
        t = (1.0 - a) / (1.0 + a)
        x = lam * lam
        num = (2.0 * t * t + 1.0) * t * t * x**3 - (6.0 * t * t - 1.0) * x * x + t * t * x + 1.0
        printed = ((1.0 + t) ** 4 / 16.0) * num / (1.0 - x * t * t) ** 3
        assert abs(J_closed(a, lam) - printed) <= 1e-12 * max(1.0, printed)


def test_kernel_average_increasing_in_lam():
    for a in (0.2, 0.5, 0.8, 1.0):
        vals = [J_closed(a, lam) for lam in np.linspace(0.0, 1.0, 50)]
        assert all(b > a_ for a_, b in zip(vals, vals[1:]))


def test_kernel_average_frozen_pin():
    assert abs(J_closed(0.7, 0.6) - PIN_J_07_06) <= 1e-14


def test_kernel_average_domain():
    with pytest.raises(DomainViolation):
        J_closed(0.0, 0.5)
    with pytest.raises(DomainViolation):
        J_closed(1.2, 0.5)
    with pytest.raises(DomainViolation):
        J_closed(0.5, -0.1)
    with pytest.raises(DomainViolation):
        J_closed(0.5, 1.1)


def test_kernel_oracle_matches_closed_form():
    assert abs(J_oracle(0.5, 0.0) - 1.0 / 1.5**4) <= 1e-12
    assert abs(J_oracle(0.7, 0.6) - J_closed(0.7, 0.6)) <= 1e-8
    for a in np.linspace(0.1, 1.0, 10):
        for lam in np.linspace(0.0, 0.9, 10):
            a, lam = float(a), float(lam)
            assert abs(J_oracle(a, lam) - J_closed(a, lam)) <= 1e-8


def test_kernel_oracle_on_rim():
    # lam = 1 puts a kernel pole on a quadrature node; the half-step shift
    # must keep the rule convergent there.
    for a in (0.1, 0.3, 0.5, 1.0):
        assert abs(J_oracle(a, 1.0) - J_closed(a, 1.0)) <= 1e-10


def test_kernel_oracle_derivative_positive():
    h = 1e-4
    for lam in np.linspace(0.05, 0.95, 100):
        lam = float(lam)
        slope = (J_oracle(0.5, lam + h) - J_oracle(0.5, lam - h)) / (2.0 * h)
        assert slope > 0.0


# ---------------------------------------------------------------------------
# zero-radius certificate


def test_delta_certificate_empty_interval():
    assert delta_certificate(1.0) == 0.0


def test_delta_certificate_at_one_third():
    value = delta_certificate(1.0 / 3.0)
    assert 0.966 <= value <= 0.976
    assert value < 1.0
    assert abs(value - PIN_DELTA_THIRD) <= 1e-6


def test_delta_certificate_frozen_grid():
    assert abs(delta_certificate(0.0) - PIN_DELTA_ZERO) <= 1e-6
    assert abs(delta_certificate(0.5) - PIN_DELTA_HALF) <= 1e-6
    assert abs(delta_certificate(0.9) - PIN_DELTA_09) <= 1e-6


def test_delta_certificate_strictly_decreasing():
    grid = np.linspace(0.0, 1.0, 12)
    vals = [delta_certificate(float(d)) for d in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_decisive_verdicts_hold_as_strict_inequalities():
    """The three decisive verdicts as the paper states them, one-sided:
    the zero-radius budget crosses 1 inside (0.30, 1/3), the deficit's upper
    error bar stays below 2, and the Hardy margin is positive."""
    assert delta_certificate(0.30) > 1.0 > delta_certificate(1.0 / 3.0)
    block = _f2_block()
    assert 4.0 * (block.main.value + block.main.error + block.nested_error) < 2.0
    for d in (1, 2, 3):
        assert sphere_destabilization_margin(d) > 0.0


def test_delta_certificate_domain():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainViolation):
            delta_certificate(bad)


# ---------------------------------------------------------------------------
# competitor-energy profile


def test_unwound_profile_frozen_pins():
    assert abs(F1_closed_or_quad(0.1) - PIN_F1_01) <= 1e-9
    assert abs(F1_closed_or_quad(0.5) - PIN_F1_05) <= 1e-9
    assert abs(F1_closed_or_quad(1.0) - PIN_F1_10) <= 1e-9


def test_unwound_profile_decreasing():
    vals = [F1_closed_or_quad(float(a)) for a in np.linspace(0.1, 1.0, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_unwound_profile_cross_rule():
    for a in (0.1, 0.4, 0.7, 1.0):
        assert abs(F1_closed_or_quad(a) - _f1_gauss(a)) <= 1e-9


def test_unwound_profile_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainViolation):
            F1_closed_or_quad(bad)


def test_energy_deficit_certificate():
    report = F2_certificate()
    assert report.verdict == "pass"
    assert abs(report.closed_value - PIN_DEFICIT) <= 1e-6
    assert 1.90 <= report.closed_value <= 1.96
    assert report.closed_value < 2.0
    assert "below 2" in report.notes
    assert "substitution" in report.notes
    assert "concavity" in report.notes


def test_energy_deficit_notes_report_inner_integrals():
    block = _f2_block()
    notes = F2_certificate().notes
    assert "unconverged" not in notes
    # the nested error estimates widen the error bar without moving the verdict
    assert 0.0 < block.nested_error < 1e-10
    upper = 4.0 * (block.main.value + block.main.error + block.nested_error)
    assert f"upper error bar {upper:.9f}" in notes
    assert upper < 2.0


# (value, panels) of int F2, int sqrt(F1) and int sqrt(F2) in _f2_block
PIN_F2_BLOCK = (
    (0.4827617859576733, 41),
    (0.337515280473143, 41),
    (0.6750305609462861, 41),
)


def test_f2_block_pins():
    block = _f2_block()
    for res, (value, panels) in zip((block.main, block.sqrt_f1, block.sqrt_f2), PIN_F2_BLOCK):
        assert res.converged
        assert res.panels == panels
        assert abs(res.value - value) <= 1e-12 * value


def test_batched_inner_integrals_equal_single_ones():
    ts = [0.05, 0.3, 0.7, 0.95, 1.0 - 2.0**-20, 1.0 - 2.0**-35]
    assert [r.value for r in _f2_many(ts)] == [_f2_profile(t) for t in ts]
    avals = [2.0**-35, 2.0**-20, 1e-3, 0.2, 0.5, 0.999]
    assert [r.value for r in _f1_many(avals)] == [F1_closed_or_quad(a) for a in avals]


def _recording(integrate_many, store, last_unconverged=False):
    """integrate_many that appends its results to store; optionally the
    last result of the first call is made unconverged, with error 1."""

    def wrapped(xs):
        results = integrate_many(xs)
        if last_unconverged and not store:
            results[-1] = dataclasses.replace(results[-1], converged=False, error=1.0)
        store.extend(results)
        return results

    return wrapped


def test_f2_block_inner_integrals_all_converge():
    f2, f1 = [], []
    _f2_block.cache_clear()
    try:
        with mock.patch.object(certificates, "_f2_many", _recording(_f2_many, f2)), \
                mock.patch.object(certificates, "_f1_many", _recording(_f1_many, f1)):
            _f2_block()
    finally:
        _f2_block.cache_clear()
    for results in (f2, f1):
        assert len(results) == 861  # one per distinct outer node
        assert all(r.converged for r in results)


@pytest.mark.parametrize("name", ["_f2_many", "_f1_many"])
def test_f2_block_raises_on_unconverged_inner_integral(name):
    forced = _recording(getattr(certificates, name), [], last_unconverged=True)
    _f2_block.cache_clear()
    try:
        with mock.patch.object(certificates, name, forced), \
                pytest.raises(NumericalFailure, match="did not converge"):
            _f2_block()
    finally:
        _f2_block.cache_clear()


def _mp_bracket(r, t):
    """_f2_profile's printed integrand, evaluated directly in mpmath."""
    p, q = 3 * r + 1, r + 3
    num = (2 * t**2 + 1) * t**2 * p**12 - (6 * t**2 - 1) * p**8 * q**4 + t**2 * p**4 * q**8 + q**12
    return num / (q**4 - p**4 * t**2) ** 3 * r / (1 + r * r) ** 2


def _mp_kernel(a, r):
    """J_closed's printed polynomial at lam = ((3r+1)/(r+3))^2, times r/(1+r^2)^2."""
    t = (1 - a) / (1 + a)
    lam = ((3 * r + 1) / (r + 3)) ** 2
    num = (2 * t**2 + 1) * t**2 * lam**6 - (6 * t**2 - 1) * lam**4 + t**2 * lam**2 + 1
    return (1 + t) ** 4 / 16 * num / (1 - lam**2 * t**2) ** 3 * r / (1 + r * r) ** 2


def _mp_layer_quad(f, v):
    """tanh-sinh quadrature over [0, 1], split at 1 - {v/10, v, 10v, 1e-6, 1e-3}."""
    widths = (v / 10, v, 10 * v, mpmath.mpf("1e-6"), mpmath.mpf("1e-3"))
    cuts = sorted(c for c in {1 - w for w in widths} if 0 < c < 1)
    return mpmath.quad(f, [0] + cuts + [1])


def test_inner_integrals_match_40_digit_quadrature():
    with mpmath.workdps(40):
        ts = [1.0 - 2.0**-31, 1.0 - 2.0**-35, 1.0 - 2.0**-45]
        for t, res in zip(ts, _f2_many(ts)):
            tm = mpmath.mpf(t)
            ref = _mp_layer_quad(lambda r: _mp_bracket(r, tm), 1 - tm * tm)
            assert abs(res.value - ref) <= 1e-11 * abs(ref), t
        avals = [2.0**-35, 2.0**-20, 1e-3]
        for a, res in zip(avals, _f1_many(avals)):
            am = mpmath.mpf(a)
            ref = _mp_layer_quad(lambda r: _mp_kernel(am, r), 4 * am / (1 + am) ** 2)
            assert abs(res.value - ref) <= 1e-11 * abs(ref), a


def test_substitution_identity_pin(battery):
    by_name = {r.name: r for r in battery}
    report = by_name["substitution-identity"]
    assert report.verdict == "pass"
    assert abs(report.closed_value - PIN_SUBSTITUTION) <= 1e-6
    assert report.abs_diff <= 1e-4


# ---------------------------------------------------------------------------
# Hardy constant and destabilization margin


def test_hardy_constant_value():
    value = hardy_constant()
    assert abs(value - PIN_HARDY) <= 1e-12
    assert abs(value - 2.871) <= 1e-3
    assert 0.0 < value < 4.0 * math.pi
    assert abs(value / (4.0 * math.pi) - 0.2284732905222318) <= 1e-12


def test_gamma_reflection_product():
    assert math.isclose(GAMMA_QUARTER * GAMMA_THREE_QUARTER, math.pi * math.sqrt(2.0), rel_tol=1e-15)


def test_destabilization_margin_values():
    assert abs(sphere_destabilization_margin(1) - (4.0 * math.pi - PIN_HARDY)) <= 1e-12
    for d in range(1, 7):
        assert sphere_destabilization_margin(d) > 0.0
    # consecutive margins differ by exactly 4*pi
    for d in range(1, 5):
        gap = sphere_destabilization_margin(d + 1) - sphere_destabilization_margin(d)
        assert math.isclose(gap, 4.0 * math.pi, rel_tol=1e-12)


def test_destabilization_margin_domain():
    for bad in (0, -3, 1.5, "2", True):
        with pytest.raises(DomainViolation):
            sphere_destabilization_margin(bad)


# ---------------------------------------------------------------------------
# polar resolvent identity


def test_polar_kernel_identity_values():
    for c, expected in ((0.0, 1.0), (0.5, 2.0), (-0.9, 1.0 / 1.9)):
        report = polar_kernel_identity(c)
        assert report.verdict == "pass"
        assert math.isclose(report.closed_value, expected, rel_tol=1e-14)
        assert report.abs_diff <= 1e-8


def test_polar_kernel_identity_domain():
    for bad in (1.0, -1.0, 2.0, math.nan):
        with pytest.raises(DomainViolation):
            polar_kernel_identity(bad)


# ---------------------------------------------------------------------------
# report type invariants


def test_report_verdict_iff_tolerance():
    good = CertificateReport.from_values("x", 1.0, 1.0 + 1e-9, 1e-8)
    assert good.verdict == "pass"
    bad = CertificateReport.from_values("x", 1.0, 1.1, 1e-8)
    assert bad.verdict == "fail"
    assert bad.notes  # failing reports always explain themselves


def test_report_rejects_inconsistent_fields():
    with pytest.raises(InvalidArgument):
        CertificateReport("x", 1.0, 1.0, 0.5, 1e-8, "pass")  # wrong abs_diff
    with pytest.raises(InvalidArgument):
        CertificateReport("x", 1.0, 2.0, 1.0, 1e-8, "pass", "n")  # wrong verdict
    with pytest.raises(InvalidArgument):
        CertificateReport("x", 1.0, 2.0, 1.0, 1e-8, "fail")  # fail without notes
    with pytest.raises(InvalidArgument):
        CertificateReport("", 1.0, 1.0, 0.0, 1e-8, "pass")  # empty name
    with pytest.raises(InvalidArgument):
        CertificateReport.from_values("x", math.nan, 1.0, 1e-8)


def test_report_serializes_to_json():
    report = CertificateReport.from_values("x", 1.0, 1.0, 1e-8, "fine")
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["name"] == "x"
    assert back["verdict"] == "pass"
    assert set(back) == {
        "name", "closed_value", "oracle_value", "abs_diff", "tolerance", "verdict", "notes",
    }


def test_report_is_frozen():
    report = CertificateReport.from_values("x", 1.0, 1.0, 1e-8)
    with pytest.raises(AttributeError):
        report.verdict = "fail"


# ---------------------------------------------------------------------------
# the standard battery


def test_battery_all_pass(battery):
    assert len(battery) >= 15
    for report in battery:
        assert report.verdict == "pass", f"{report.name}: {report.notes}"


def test_battery_contains_decisive_verdicts(battery):
    names = [r.name for r in battery]
    assert "zero-radius-certificate" in names
    assert "higher-degree-energy-deficit" in names
    assert any(n.startswith("destabilization-margin") for n in names)
    assert "quadratic-power-adjudication" in names
    assert len(names) == len(set(names))


def test_battery_adjudication_notes(battery):
    by_name = {r.name: r for r in battery}
    notes = by_name["quadratic-power-adjudication"].notes
    assert "first-power" in notes
    assert "canonical" in notes


def test_battery_deterministic(battery):
    again = standard_certificates()
    assert again == battery


def test_tables_families_and_grids(tables):
    expected = {
        "disc_integral": 10,
        "disc_kernel_mass": 10,
        "angular_moment_flat": 10,
        "angular_moment_cos2": 10,
        "radial_log_first_power": 10,
        "radial_log_cubed": 10,
        "partial_fraction_identity": 20,
        "rational_line_integral": 100,
        "mobius_kernel_average": 100,
        "mobius_kernel_rim": 4,
        "unwound_kernel_profile": 10,
        "radial_resolvent_identity": 10,
    }
    assert set(tables) == set(expected)
    for family, count in expected.items():
        rows = tables[family]
        assert len(rows) == count, family
        for arg, closed, oracle, diff in rows:
            assert isinstance(arg, str) and arg
            assert math.isfinite(closed) and math.isfinite(oracle)
            assert math.isclose(diff, abs(closed - oracle), rel_tol=1e-12, abs_tol=1e-300)


def test_tables_diffs_within_report_tolerances(tables):
    # every family's worst row must clear the tolerance its battery report uses
    tolerances = {
        "disc_integral": 1e-7,
        "disc_kernel_mass": 1e-7,
        "angular_moment_flat": 1e-9,
        "angular_moment_cos2": 1e-9,
        "radial_log_first_power": 1e-9,
        "radial_log_cubed": 1e-9,
        "partial_fraction_identity": 1e-12,
        "rational_line_integral": 1e-9,
        "mobius_kernel_average": 1e-8,
        "mobius_kernel_rim": 1e-8,
        "unwound_kernel_profile": 1e-9,
        "radial_resolvent_identity": 1e-8,
    }
    for family, tol in tolerances.items():
        worst = max(row[3] for row in tables[family])
        assert worst <= tol, family


# Snapshot of the whole battery and of every family's per-point rows,
# recorded before the families were folded into one table and asserted
# exactly: a refactor of the battery must not move a single bit.  The deficit
# row and unwound-kernel digest (inner integrals in s = 1 - r) and the Hardy
# rows (math.gamma) were re-recorded since, each value moving by <= 2 ulps.
BATTERY_SNAPSHOT = (
    ("disc-integral-closed-form[gamma=0.9]", 4.8711617878940885, 4.871161787894105, 1e-07, "pass",
     "worst point of a 10-point gamma grid"),
    ("quadratic-power-adjudication", 2.321714029076368, 2.3217140290763685, 1e-07, "pass",
     "at gamma=0.5 the squared-denominator variant deviates by 4.44e-16 and the first-power "
     "variant by 3.55e-01; the squared variant is the one matching pi*F_closed(gamma^2) and is "
     "canonical"),
    ("disc-kernel-mass[gamma=0.9]", 87.02472724625471, 87.02472724625939, 1e-07, "pass", ""),
    ("angular-moment-flat[a=0.9]", 1658.0500664812741, 1658.0500664812644, 1e-09, "pass", ""),
    ("angular-moment-cos2[a=0.9]", 1641.5153683044857, 1641.5153683044757, 1e-09, "pass", ""),
    ("radial-log-first-power[t=0.4]", 0.12856449089947355, 0.12856449089947347, 1e-09, "pass", ""),
    ("radial-log-cubed[t=0.9]", 12.387206944020479, 12.387206944020477, 1e-09, "pass", ""),
    ("partial-fraction-identity[t=0.9]", 0.3174661029304552, 0.31746610293045635, 1e-12, "pass",
     "rational identity for the non-logarithmic remainder, 20-point grid"),
    ("rational-line-integral[A=0.25,B=1.33333]", 33.14666666666667, 33.14666666666666, 1e-09,
     "pass", "worst point of a 10x10 (A, B) grid"),
    ("mobius-kernel-average[a=0.1,lam=0.2]", 0.7572937694743763, 0.7572937694743758, 1e-08,
     "pass", "worst point of a 10x10 (a, lam) grid"),
    ("mobius-kernel-rim[a=0.3,lam=1]", 0.9861932938856015, 0.9861932938856017, 1e-08, "pass",
     "lam=1 column; quadrature nodes shifted half a step off the rim pole"),
    ("zero-radius-certificate", 0.9711169156049214, 0.971, 0.005, "pass",
     "value 0.971116916 < 1 certifies that minimizing fields keep interior zeros inside radius 1/3"),
    ("unwound-kernel-profile[a=0.1]", 0.40847489802561565, 0.40847489802561293, 1e-09, "pass",
     "adaptive quadrature cross-checked against a fixed 400-point Gauss rule"),
    ("higher-degree-energy-deficit", 1.9310471438306933, 1.93, 0.03, "pass",
     "upper error bar 1.931047144 stays below 2; substitution cross-check "
     "|4*int sqrt(F1) - 2*int sqrt(F2)| = 2.22e-16; concavity chain 2*int sqrt(F2) = 1.35006112 "
     "<= 2*sqrt(int F2) = 1.38962122"),
    ("substitution-identity", 1.350061121892572, 1.3500611218925722, 0.0001, "pass",
     "the two parameterizations of the competitor-energy profile integrate identically"),
    ("hardy-sharp-constant", 2.8710800441845206, 2.8710800441845206, 1e-10, "pass",
     "ratio to 4*pi is 0.228473 < 1"),
    ("destabilization-margin[d=1]", 9.695290570174652, 9.695290570174652, 1e-10, "pass",
     "positive margin rules out degree-1 homogeneous minimizers into higher spheres"),
    ("destabilization-margin[d=2]", 22.261661184533825, 22.261661184533825, 1e-10, "pass",
     "positive margin rules out degree-2 homogeneous minimizers into higher spheres"),
    ("destabilization-margin[d=3]", 34.828031798892994, 34.828031798892994, 1e-10, "pass",
     "positive margin rules out degree-3 homogeneous minimizers into higher spheres"),
    ("radial-resolvent-identity[c=0.7]", 3.333333333333333, 3.3333333333333326, 1e-08, "pass",
     "worst point of a 10-point grid on (-1, 1)"),
)

# SHA-256 of repr(rows) for each family of certificate_tables()
TABLE_DIGESTS = {
    "disc_integral": "a8fa13c6da81b9f29e920903ca78c6125c76779510d0821b58d1caa7737f7227",
    "disc_kernel_mass": "41ec763fcaa05f02bd14bd0dcf637b97552e4feb8e00b021ed2b2865f43527cc",
    "angular_moment_flat": "8782745661b0c0765bfc3e0df20e9450c579e0d86871a83106f00d3cd18c0cbe",
    "angular_moment_cos2": "4283a96c2cfd79066cd90d722533b414eed5d14253214a4b4c9f5ec5b704fab3",
    "radial_log_first_power": "2d651f5fdda64cce8298c28423b268c18284d2d63264eba1df5af1080aaed4a4",
    "radial_log_cubed": "a970183dee94390c3744ebc45cfd6fb23ca812e78272b4ea8ea250155dc0f1e2",
    "partial_fraction_identity": "42098eb2dea7d01cecbcac738d240dc3d645a853a85773d8e23c942176edd3cf",
    "rational_line_integral": "63ad86f1c5cf3210e01043c6de7782b46663abb6e29f03d03776a4e7084db4e6",
    "mobius_kernel_average": "38d34b5c137f7b42d291b156f096a569d8687ecaba4347f49463263d8c57fbb5",
    "mobius_kernel_rim": "2e68dc8dbffe3d9b8d7672934cd6467cae8d5a9cecd5051893728ee5eee3ffdf",
    "unwound_kernel_profile": "ea44b069c9d94e27e48ec121734537caa8d97d450cf1c20f9e0ab8ebc598bf3e",
    "radial_resolvent_identity": "5fc1ec9b5d903e09d9a93bd83c88627d94eff982791c2ab571b5eef816e0cb2e",
}


def test_battery_snapshot(battery):
    got = tuple((r.name, r.closed_value, r.oracle_value, r.tolerance, r.verdict, r.notes)
                for r in battery)
    assert got == BATTERY_SNAPSHOT


def test_table_digests(tables):
    assert list(tables) == list(TABLE_DIGESTS)
    for family, digest in TABLE_DIGESTS.items():
        assert hashlib.sha256(repr(tables[family]).encode()).hexdigest() == digest, family
