"""Tests for the competitor families, their profiles and radial kernels."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import halfharm
from halfharm import competitors
from halfharm.blaschke import BlaschkeProduct, eval_product
from halfharm.certificates import F_closed
from halfharm.competitors import (
    PROFILE_GRID_SIZE,
    G_of,
    Profile,
    UnwindingFamily,
    epsilon_sweep,
    optimal_profile,
    profile_energy,
    radial_kernel_unwinding,
    radial_kernel_zero_pull,
    unwinding_family_energy,
    unwinding_grid_energy,
    unwinding_profile,
    zero_pull_family_energy,
    zero_pull_grid_energy,
    zero_pull_profile,
)
from halfharm.errors import (
    DomainViolation,
    InvalidArgument,
    NumericalFailure,
    PreconditionViolation,
)

# a one-zero base for the zero-pulling family (degree 2 after the pull) and
# a two-zero product for the unwinding family
ONE_ZERO = BlaschkeProduct(theta=0.4, zeros=(0.3 + 0.2j,))
TWO_ZERO = BlaschkeProduct(theta=1.1, zeros=(0.25 - 0.1j, -0.4 + 0.35j))

# Exact pins, recorded before the graded disc rule was rebuilt on the shared
# Gauss-panel helper: (total, radial total, chain value) per collar width of
# the default sweep (0.05, 0.1, 0.2), and kernel values at fixed arguments.
# UNWINDING_KERNEL[4] was re-recorded (-1.5e-14 relative) when the kernel
# tables were row-blocked: the old full-grid gemv rounded differently on 1
# and on 2 BLAS threads, and the new value is the thread-independent one
# (equal to the old single-thread value).
ZERO_PULL_SWEEP = (
    (6.47808047842157, 0.35197480392147396, None),
    (6.394043723509553, 0.4250176816889457, None),
    (6.271541831868564, 0.6166750554069363, None),
)
UNWINDING_SWEEP = (
    (7.165742719653108, 1.1958079826006072, 2.989519956351729),
    (7.113329331127667, 1.4566574347073937, 1.8208217932152564),
    (7.177466402034233, 2.151445740403087, 1.3446535893312561),
)
KERNEL_ARGS = (0.0, 0.3, 0.9, 0.999, 1.0 - 1e-9)
ZERO_PULL_KERNEL = (0.9685988440267799, 0.9671947133330494, 2.4198379268482424,
                    13.583074812825663, 56.844874841089954)
UNWINDING_KERNEL = (1.7153895862639723, 2.0521370249210507, 5.289220231289972,
                    17.244916466593207, 56.41951056747794)

# SHA-256 of repr(report) for every report of the two pinned sweeps (shells,
# windings and notes included), and the exact grid energies of the 2% tests;
# recorded before the two families shared one report builder.  The unwinding
# digests were re-recorded when GAMMA_1 became math.gamma's: only the
# shell-check value printed in each report's notes moved.  The first one was
# re-recorded again when eval_product fixed its operand order: the 4,096-point
# shell map now rounds like large calls, and the printed shell-check value
# moved from 3.197e-13 to 8.624e-13; every numeric field is unchanged.
SWEEP_DIGESTS = {
    "zero_pull": ("7e7e37d616810150a94ab7245169cf682037f8fa654e0c487802220a66d39dc7",
                  "a4d9ea9e35952a307d31a48ef06593463b1e40669f02e523ade43679b69d7e02",
                  "0047908259ec7b8975c505d303c83761d9edd6c300f4ddad789d53eb1a75c6c1"),
    "unwinding": ("dfc78da0c7a138abd52a930e7e55863cd84b0fc8488e23e0d8dfd703ecba22b5",
                  "37494a9b48d6102182d21014eb49dadace1feb4de7cc793f47bdb56e79a24b4c",
                  "35563e0c453b51342eccb5452ea19e2ff6371d90c4d156629d9cc3f75e8337dc"),
}
ZERO_PULL_GRID = 6.434027537776869
UNWINDING_GRID = 7.200863668002073


def test_epsilon_sweep_pins():
    zp = epsilon_sweep(ONE_ZERO, "zero_pull")
    uw = epsilon_sweep(TWO_ZERO, "unwinding")
    assert tuple((r.total, r.radial_total, r.chain_value) for r in zp) == ZERO_PULL_SWEEP
    assert tuple((r.total, r.radial_total, r.chain_value) for r in uw) == UNWINDING_SWEEP


@pytest.mark.parametrize("family, product", [("zero_pull", ONE_ZERO), ("unwinding", TWO_ZERO)])
def test_sweep_report_digests(family, product):
    got = tuple(hashlib.sha256(repr(r).encode()).hexdigest() for r in epsilon_sweep(product, family))
    assert got == SWEEP_DIGESTS[family]


def test_radial_kernel_pins():
    assert tuple(radial_kernel_zero_pull(ONE_ZERO, b) for b in KERNEL_ARGS) == ZERO_PULL_KERNEL
    assert tuple(radial_kernel_unwinding(TWO_ZERO, m) for m in KERNEL_ARGS) == UNWINDING_KERNEL


_TABLE_CHILD = """
import numpy as np
from halfharm.blaschke import BlaschkeProduct
from halfharm.competitors import _unwinding_kernel_table, _zero_pull_kernel_table
for build, w in ((_zero_pull_kernel_table, {one!r}), (_unwinding_kernel_table, {two!r})):
    spline, end_value, end_slope = build(w)
    print([v.hex() for v in np.append(spline.c[-1], end_value)], end_slope.hex())
"""


def _table_bits(blas_threads):
    src = str(Path(halfharm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = _TABLE_CHILD.format(one=ONE_ZERO, two=TWO_ZERO)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    return out.stdout


def test_kernel_tables_independent_of_blas_threads():
    # the 128 node values, end value and end slope of both tables, built in
    # fresh interpreters on 1 and on 2 BLAS threads (a one-core host runs
    # both on one thread, and the test then checks only determinism)
    one = _table_bits("1")
    assert one.count("\n") == 2
    assert _table_bits("2") == one


def _xi_table_reference(rule, top, den):
    """_xi_table on integrand inputs formed on the full grid: top is the
    whole numerator array, den(p, rows) the denominator on a row slice."""
    _, _, rw, _, pw = rule
    xi = np.linspace(0.0, competitors._XI_CAP, competitors._XI_NODES)
    ps = [-math.expm1(-x) for x in xi]
    rows_by_node = np.empty((competitors._XI_NODES, len(rw)))
    for start in range(0, len(rw), competitors._XI_ROW_BLOCK):
        rows = slice(start, start + competitors._XI_ROW_BLOCK)
        for k, p in enumerate(ps):
            q = den(p, rows)
            np.divide(top[rows], q, out=q)
            rows_by_node[k, rows] = q @ pw
    vals = np.array([float(row @ rw) for row in rows_by_node])
    spline = CubicSpline(xi, vals)
    return spline, float(vals[-1]), float(spline.derivative()(competitors._XI_CAP))


def _zero_pull_table_reference(w_tilde):
    rule = competitors._disc_rule_graded(competitors._zero_pull_rule_angles(w_tilde))
    rho, s, _, phi, _ = rule
    R = rho[:, None]
    S = s[:, None]
    sin2h = np.sin(phi / 2.0) ** 2
    cos2h = np.cos(phi / 2.0) ** 2
    sinp = np.sin(phi)
    w2 = np.abs(eval_product(w_tilde, R * np.exp(1j * phi[None, :]))) ** 2
    num = (S * S + 4.0 * R * sin2h[None, :]) * (S * S + 4.0 * R * cos2h[None, :])
    top = w2 * num / (1.0 + R * R) ** 2 * R

    def den(b, rows):
        R_, S_ = R[rows], S[rows]
        re = 2.0 * b * R_ * sin2h[None, :]
        re += 1.0 - b + b * S_
        im = b * R_ * sinp[None, :]
        re *= re
        im *= im
        re += im
        re *= re
        return re

    return _xi_table_reference(rule, top, den)


def _unwinding_table_reference(w):
    rule = competitors._disc_rule_graded(competitors._unwinding_rule_angles(w))
    rho, _, _, phi, _ = rule
    R = rho[:, None]
    wv = eval_product(w, R * np.exp(1j * phi[None, :]))
    top = np.abs(1.0 - wv * wv) ** 2 / (1.0 + R * R) ** 2 * R
    wre = np.ascontiguousarray(wv.real)
    wim = np.ascontiguousarray(wv.imag)

    def den(m, rows):
        q = m * wre[rows]
        q += 1.0
        q *= q
        t = m * wim[rows]
        t *= t
        q += t
        q *= q
        return q

    return _xi_table_reference(rule, top, den)


TABLE_BUILDS = {
    "zero_pull": (competitors._zero_pull_kernel_table.__wrapped__, _zero_pull_table_reference),
    "unwinding": (competitors._unwinding_kernel_table.__wrapped__, _unwinding_table_reference),
}
_PRODUCTS = st.builds(lambda theta, zeros: BlaschkeProduct(theta=theta, zeros=tuple(zeros)),
                      st.floats(0.0, 6.28),
                      st.lists(st.complex_numbers(max_magnitude=0.9), min_size=1, max_size=3))


@pytest.mark.parametrize("family", sorted(TABLE_BUILDS))
@settings(max_examples=3, deadline=None)
@given(w=_PRODUCTS)
@example(w=TWO_ZERO)  # 315 rows: a last block of 3 rows
def test_kernel_tables_match_the_full_grid_build(family, w):
    build, reference = TABLE_BUILDS[family]
    (spline, end_value, end_slope), (ref_spline, ref_value, ref_slope) = build(w), reference(w)
    assert spline.c.tobytes() == ref_spline.c.tobytes()
    assert (end_value, end_slope) == (ref_value, ref_slope)


@pytest.mark.parametrize("family, w", [("zero_pull", BlaschkeProduct(theta=0.9, zeros=(0.35 - 0.25j,))),
                                       ("unwinding", BlaschkeProduct(theta=2.3, zeros=(0.3j, -0.45 + 0.2j)))])
def test_kernel_table_build_stays_in_row_blocks(family, w):
    # built from full-grid integrand inputs these tables traced 74 MB
    # (zero-pulling) and 104 MB (unwinding); per row block, 3.5 and 5.1 MB
    tracemalloc.start()
    try:
        TABLE_BUILDS[family][0](w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


ROTATION = BlaschkeProduct(theta=0.7)


@pytest.mark.parametrize("b", [0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - 1e-9])
def test_zero_pull_kernel_closed_form_for_rotation(b):
    # |w~| = 1 on the disc, so the kernel is the disc integral behind F:
    # pi * F(b^2); 2e-6 covers the spline (worst 9.2e-7, at b = 0.3)
    exact = math.pi * F_closed(b * b)
    assert abs(radial_kernel_zero_pull(ROTATION, b) - exact) <= 2e-6 * exact


_BOUND_ARGS = np.concatenate([np.linspace(0.0, 0.999, 64), 1.0 - np.logspace(-3.5, -12, 16)])


@settings(max_examples=4, deadline=None)
@given(theta=st.floats(0.0, 6.28), zero=st.complex_numbers(max_magnitude=0.9))
def test_zero_pull_kernel_below_rotation_bound(theta, zero):
    # |w~| <= 1 bounds the kernel by pi * F(b^2); the measured gap is at least
    # 2.8e-3 relative for |a| <= 0.9, far above the table's spline error
    kernel = radial_kernel_zero_pull(BlaschkeProduct(theta=theta, zeros=(zero,)), _BOUND_ARGS)
    bound = np.array([math.pi * F_closed(b * b) for b in _BOUND_ARGS])
    assert np.all(kernel <= bound)


def _zero_pull_integrand(w, rule, b):
    # |w|^2 |1 - z|^2 |1 + z|^2 / (|1 - b z|^4 (1 + rho^2)^2) * rho, every
    # factor formed from s = 1 - rho and half-angles so that nothing cancels
    rho, s, _, phi, _ = rule
    z = rho[:, None] * np.exp(1j * phi[None, :])
    half_sin2 = np.sin(phi / 2.0)[None, :] ** 2
    half_cos2 = np.cos(phi / 2.0)[None, :] ** 2
    r, s = rho[:, None], s[:, None]
    one_minus_z_sq = s * s + 4.0 * r * half_sin2
    one_plus_z_sq = s * s + 4.0 * r * half_cos2
    one_minus_bz_sq = ((1.0 - b) + b * s) ** 2 + 4.0 * b * r * half_sin2
    return (np.abs(eval_product(w, z)) ** 2 * one_minus_z_sq * one_plus_z_sq
            / (one_minus_bz_sq ** 2 * (1.0 + r * r) ** 2) * r)


def _unwinding_integrand(w, rule, m):
    # |1 - w^2|^2 / (|1 + m w|^4 (1 + rho^2)^2) * rho in complex arithmetic
    rho, _, _, phi, _ = rule
    r = rho[:, None]
    wv = eval_product(w, r * np.exp(1j * phi[None, :]))
    return np.abs(1.0 - wv * wv) ** 2 / (np.abs(1.0 + m * wv) ** 4 * (1.0 + r * r) ** 2) * r


@pytest.mark.parametrize("family", ["zero_pull", "unwinding"])
def test_kernel_table_nodes_match_fsum(family):
    # the blocked contraction of a table node against a correctly rounded
    # sum of the same disc rule applied to the integrand formed independently
    if family == "zero_pull":
        w, table = ONE_ZERO, competitors._zero_pull_kernel_table(ONE_ZERO)
        angles, integrand = competitors._zero_pull_rule_angles(w), _zero_pull_integrand
    else:
        w, table = TWO_ZERO, competitors._unwinding_kernel_table(TWO_ZERO)
        angles, integrand = competitors._unwinding_rule_angles(w), _unwinding_integrand
    rule = competitors._disc_rule_graded(angles)
    spline, end_value, _ = table
    nodes = np.append(spline.c[-1], end_value)
    xi = np.linspace(0.0, competitors._XI_CAP, competitors._XI_NODES)
    weights = rule[2][:, None] * rule[4][None, :]
    for k in (0, 45, 90, competitors._XI_NODES - 1):
        exact = math.fsum((integrand(w, rule, -math.expm1(-xi[k])) * weights).ravel())
        assert abs(nodes[k] - exact) <= 1e-13 * exact, k


@pytest.mark.parametrize("kernel, product", [(radial_kernel_zero_pull, ONE_ZERO),
                                             (radial_kernel_unwinding, TWO_ZERO)])
@pytest.mark.parametrize("arg", [-0.1, 1.5, math.nan, np.array([0.5, math.nan]),
                                 np.array([0.0, 1.0 + 1e-12])])
def test_radial_kernels_reject_arguments_outside_unit_interval(kernel, product, arg):
    with pytest.raises(InvalidArgument):
        kernel(product, arg)


def test_epsilon_sweep_rejects_unknown_family():
    with pytest.raises(InvalidArgument):
        epsilon_sweep(ONE_ZERO, "rewinding")
    # checked before the loop, so an empty sweep does not hide it
    with pytest.raises(InvalidArgument):
        epsilon_sweep(ONE_ZERO, "bogus", eps_values=())


def test_boundary_preimages_off_the_circle_raise(monkeypatch):
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: (1.0 + 1e-7) * roots(c))
    with pytest.raises(NumericalFailure, match="drifted"):
        competitors._pm_one_preimages(TWO_ZERO)


@pytest.mark.parametrize("delta", [0.0, 1.0 / 3.0, 0.7])
def test_optimal_profile_energy_matches_budget(delta):
    # equal parameter steps spend equal budget, so the energy is 2*(G(1) - G(delta))^2
    energy = profile_energy(optimal_profile(delta))
    assert abs(energy - 2.0 * (G_of(1.0) - G_of(delta)) ** 2) <= 1e-5


def test_optimal_profile_at_one_is_constant():
    assert profile_energy(optimal_profile(1.0)) == 0.0


@lru_cache(maxsize=None)
def _optimal_energy(delta):
    base = optimal_profile(delta)
    return base, profile_energy(base)


def _perturbed_optimal(delta, amplitude, k, sign):
    # a bump vanishing at both ends keeps the endpoints delta and 1; it is
    # damped where the profile is within 0.1 of 1, so the samples stay in range
    base, _ = _optimal_energy(delta)
    t = np.linspace(0.0, 1.0, PROFILE_GRID_SIZE)
    damp = np.minimum(1.0, (1.0 - base.values) / 0.1)
    bump = sign * amplitude * np.sin(k * math.pi * t) * t * (1.0 - t) * damp
    return Profile(np.clip(base.values + bump, 0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(
    delta=st.sampled_from((0.2, 1.0 / 3.0, 0.5)),
    amplitude=st.floats(0.01, 0.15),
    k=st.integers(1, 3),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_perturbed_optimal_profile_costs_more(delta, amplitude, k, sign):
    assert profile_energy(_perturbed_optimal(delta, amplitude, k, sign)) > _optimal_energy(delta)[1]


def test_profile_energy_converges_on_a_perturbed_optimal_profile():
    # smooth inputs that passed only through ensure_converged's allowance:
    # k = 2 needs 394 panels (on a budget of 300 refinements it stopped at
    # error 1.39e-10 against a target of 1.29e-10), k = 3 needs 518 (on a
    # budget of 400 it stopped at 1.50e-10 against 1.31e-10)
    results = []
    real = competitors.adaptive_integrate

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    for k in (2, 3):
        results.clear()
        with mock.patch.object(competitors, "adaptive_integrate", recording):
            profile_energy(_perturbed_optimal(0.2, 0.125, k, -1.0))
        assert len(results) == 1
        assert results[0].converged, (k, results[0])


def test_zero_pull_grid_energy_within_two_percent():
    beta = zero_pull_profile(1.0 / 3.0, 0.1)
    total = zero_pull_family_energy(ONE_ZERO, beta, 0.1).total
    assert abs(zero_pull_grid_energy(ONE_ZERO, beta, 0.1) - total) <= 0.02 * total


def test_unwinding_grid_energy_within_two_percent():
    family = UnwindingFamily(TWO_ZERO, unwinding_profile(0.1), 0.1)
    total = unwinding_family_energy(family).total
    assert abs(unwinding_grid_energy(family) - total) <= 0.02 * total


def test_grid_energy_pins():
    beta = zero_pull_profile(1.0 / 3.0, 0.1)
    assert zero_pull_grid_energy(ONE_ZERO, beta, 0.1) == ZERO_PULL_GRID
    assert unwinding_grid_energy(UnwindingFamily(TWO_ZERO, unwinding_profile(0.1), 0.1)) == UNWINDING_GRID


@pytest.mark.parametrize("resolution", [0, -1, 1.0, 2.5, True, "2", None])
def test_grid_energies_reject_bad_resolution(resolution):
    beta = zero_pull_profile(1.0 / 3.0, 0.1)
    with pytest.raises(InvalidArgument):
        zero_pull_grid_energy(ONE_ZERO, beta, 0.1, resolution=resolution)
    with pytest.raises(InvalidArgument):
        unwinding_grid_energy(UnwindingFamily(TWO_ZERO, unwinding_profile(0.1), 0.1),
                              resolution=resolution)


@pytest.mark.parametrize("values", [
    np.zeros(PROFILE_GRID_SIZE - 1),
    np.full(PROFILE_GRID_SIZE, math.nan),
    np.full(PROFILE_GRID_SIZE, 1.0 + 1e-6),
    np.full(PROFILE_GRID_SIZE, -1e-6),
])
def test_profile_rejects_bad_samples(values):
    with pytest.raises(InvalidArgument):
        Profile(values)


@pytest.mark.parametrize("method", ["__call__", "derivative"])
@pytest.mark.parametrize("arg", [math.nan, np.array([0.2, math.nan])])
def test_profile_rejects_nan_argument(method, arg):
    with pytest.raises(DomainViolation):
        getattr(unwinding_profile(0.1), method)(arg)


def test_unwinding_family_preconditions():
    theta = unwinding_profile(0.1)
    with pytest.raises(InvalidArgument):
        UnwindingFamily(ONE_ZERO, theta)  # d = 1
    with pytest.raises(InvalidArgument):
        UnwindingFamily(BlaschkeProduct(zeros=TWO_ZERO.zeros, conjugated=True), theta)
    with pytest.raises(InvalidArgument):
        UnwindingFamily(TWO_ZERO, theta.values)
    with pytest.raises(PreconditionViolation):
        UnwindingFamily(TWO_ZERO, Profile.constant(0.5))


def test_zero_pull_family_preconditions():
    beta = zero_pull_profile(1.0 / 3.0, 0.1)
    with pytest.raises(InvalidArgument):
        zero_pull_family_energy(ONE_ZERO.zeros, beta)
    with pytest.raises(InvalidArgument):
        zero_pull_family_energy(BlaschkeProduct(zeros=ONE_ZERO.zeros, conjugated=True), beta)
    with pytest.raises(InvalidArgument):
        zero_pull_family_energy(ONE_ZERO, beta.values)
    with pytest.raises(PreconditionViolation):
        zero_pull_family_energy(ONE_ZERO, Profile.constant(0.5))


def _steep_pull(delta: float, eps: float) -> Profile:
    """1 on [0, eps], then the optimal profile run backwards in 1/r from 1
    at eps to delta at 1: the descent is steepest right after eps."""
    descent = optimal_profile(delta)

    def f(r):
        r = np.maximum(np.asarray(r, dtype=float), eps)
        return descent(1.0 - (1.0 / eps - 1.0 / r) / (1.0 / eps - 1.0))

    return Profile.from_function(f)


def test_zero_pull_collar_is_checked_between_grid_samples():
    # eps = 0.01 falls between the samples 10/1023 and 11/1023: every sample
    # up to eps is exactly 1, but the spline reads 0.9963 at eps and
    # overshoots to 1.0020 inside the collar
    beta = _steep_pull(1.0 / 3.0, 0.01)
    assert np.all(beta.values[:11] == 1.0)
    assert abs(beta(0.01) - 0.99632) <= 1e-5
    assert abs(np.max(beta(np.linspace(0.0, 0.01, 2001))) - 1.00198) <= 1e-5
    with pytest.raises(PreconditionViolation, match="interpolant"):
        zero_pull_family_energy(BlaschkeProduct(), beta, 0.01)
    # the stock eased profile has the same off-grid collar and passes
    zero_pull_family_energy(BlaschkeProduct(), zero_pull_profile(1.0 / 3.0, 0.01), 0.01)
