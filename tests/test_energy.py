"""Tests for the nonlocal energy machinery: Poisson extension, plane and
circle energies, the half-ball Dirichlet routes, and the half-space oracle."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfharm
from halfharm.blaschke import (
    BlaschkeProduct,
    CircleSample,
    eval_product,
    homogeneous_extension,
)
from halfharm import energy
from halfharm.energy import (
    GAMMA_1,
    GAMMA_2,
    MonotoneReport,
    PlaneMap,
    bump_map,
    circle_energy_numeric,
    closed_xstar_ext,
    dirichlet_energy_halfball,
    frac_energy_plane,
    gamma_n,
    half_laplacian_pairing,
    halfspace_dirichlet_oracle,
    hemisphere_tangential_energy,
    monotone_density,
    poisson_extend,
    poisson_extend_gradient,
    vortex_map,
)
from halfharm.errors import DomainViolation, InvalidArgument, Undersampled
from halfharm.quadrature import disc_rule


# ------------------------------------------------------------- constants


def test_energy_constants():
    assert abs(gamma_n(1) - 1.0 / math.pi) <= 1e-14
    assert abs(gamma_n(2) - 1.0 / (2.0 * math.pi)) <= 1e-14
    assert GAMMA_1 == gamma_n(1)
    assert GAMMA_2 == gamma_n(2)


# ------------------------------------------------------------- extension


def test_poisson_extend_rejects_lower_halfspace():
    b = bump_map(radius=0.5)
    with pytest.raises(DomainViolation):
        poisson_extend(b, (0.0, 0.0, 0.0))
    with pytest.raises(DomainViolation):
        poisson_extend(b, (0.1, 0.2, -0.3))


@pytest.mark.parametrize("X", [
    (math.nan, 0.0, 0.5),
    (0.0, math.inf, 0.5),
    (0.1, 0.2, math.nan),
    (0.1, 0.2, math.inf),
])
@pytest.mark.parametrize("route", [poisson_extend, poisson_extend_gradient])
def test_half_space_point_must_be_finite(route, X):
    with pytest.raises(DomainViolation):
        route(bump_map(0.1, 0.5), X)


def _oracle(u, n_omega, n_gl):
    return halfspace_dirichlet_oracle(u, n_omega=n_omega, n_gl=n_gl)


def _extend(u, n_omega, n_gl):
    return poisson_extend(u, (0.1, 0.0, 0.3), n_omega=n_omega, n_gl=n_gl)


def _extend_gradient(u, n_omega, n_gl):
    return poisson_extend_gradient(u, (0.1, 0.0, 0.3), n_omega=n_omega, n_gl=n_gl)


@pytest.mark.parametrize("sizes", [
    (0, 4), (2.5, 4), (True, 4), (-8, 4), ("8", 4),
    (8, 0), (8, 2.5), (8, True), (8, None),
])
@pytest.mark.parametrize("route", [_oracle, _extend, _extend_gradient])
def test_half_space_ray_rule_sizes_are_integers_at_least_one(route, sizes):
    with pytest.raises(InvalidArgument, match="integer >= 1"):
        route(bump_map(0.1, 0.5), *sizes)


def test_half_space_ray_rule_accepts_numpy_integers():
    u = bump_map(0.1, 0.5)
    assert _extend(u, np.int64(8), np.int32(4)) == _extend(u, 8, 4)


@pytest.mark.parametrize("kwargs", [
    {"center": 0.5, "radius": -0.3},  # declared far_radius 0.2, support out to 0.8
    {"radius": 0.0},
    {"radius": math.nan},
    {"radius": math.inf},
    {"center": complex(math.nan, 0.0)},
    {"center": complex(0.0, math.inf)},
])
def test_bump_map_rejects_a_support_it_cannot_declare(kwargs):
    with pytest.raises(InvalidArgument):
        bump_map(**kwargs)


def test_bump_map_gives_the_bits_of_its_formula():
    # the map works in place; its values stay those of the plain expression
    c, r, a = 0.15 - 0.05j, 0.6, 0.8 - 0.3j
    rng = np.random.default_rng(11)
    z = c + r * np.sqrt(rng.uniform(0.0, 1.3, 4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
    z[:3] = (c, c + r, c + 0.999999 * r)
    s2 = np.abs((z - c) * (1.0 / r)) ** 2
    want = np.zeros(z.shape, dtype=complex)
    want[s2 < 1.0] = a * np.exp(1.0 - 1.0 / (1.0 - s2[s2 < 1.0]))
    got = bump_map(center=c, radius=r, amplitude=a)(z)
    np.testing.assert_array_equal(got, want)
    assert np.count_nonzero(got) < z.size


@pytest.mark.parametrize("kwargs", [
    {"bound": math.nan},
    {"bound": math.inf},
    {"bound": 0.0},
    {"far_radius": -1.0},
    {"far_radius": math.nan},
    {"far_radius": math.inf},
])
def test_plane_map_rejects_bad_bound_or_far_radius(kwargs):
    args = {"func": lambda z: np.zeros_like(z), "bound": 1.0, **kwargs}
    with pytest.raises(InvalidArgument):
        PlaneMap(**args)


def test_plane_map_accepts_zero_far_radius():
    assert vortex_map().far_radius == 0.0


def test_poisson_extend_sup_bound_holds_exactly():
    rng = np.random.default_rng(7)
    maps = [bump_map(center=complex(*rng.uniform(-0.5, 0.5, 2)),
                     radius=float(rng.uniform(0.3, 1.0)),
                     amplitude=complex(*rng.uniform(-1, 1, 2)))
            for _ in range(10)]
    for u in maps:
        sup = float(np.max(np.abs(u(u.far_radius * disc_rule(24, 48).nodes))))
        bound = max(sup, 1e-12)
        for _ in range(10):
            X = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                 float(rng.uniform(1e-3, 3.0)))
            val = poisson_extend(u, X)
            assert abs(val) <= bound * (1.0 + 1e-12) + 1e-15


def test_poisson_extend_linearity():
    rng = np.random.default_rng(3)
    u1 = bump_map(center=0.2 + 0.1j, radius=0.7, amplitude=1.0)
    u2 = bump_map(center=-0.3 + 0.2j, radius=0.5, amplitude=0.8j)
    a, b = 1.7, -0.6
    comb = PlaneMap(func=lambda z: a * u1(z) + b * u2(z), bound=3.0,
                    far_field="zero",
                    far_radius=max(u1.far_radius, u2.far_radius))
    for _ in range(5):
        X = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
             float(rng.uniform(0.05, 2.0)))
        lhs = poisson_extend(comb, X)
        rhs = a * poisson_extend(u1, X) + b * poisson_extend(u2, X)
        # the three calls discretize along map-adapted node sets, so the
        # analytic identity holds only to quadrature accuracy
        assert abs(lhs - rhs) <= 1e-5


def test_poisson_extend_vortex_closed_form():
    # the radial unit field extends to x/(|X| + x3); at (1,0,1) that is
    # (sqrt(2)-1, 0)
    v = vortex_map()
    val = poisson_extend(v, (1.0, 0.0, 1.0))
    assert abs(val - (math.sqrt(2.0) - 1.0)) <= 1e-6
    # cross-check against the closed-form extension at several points
    # the ring means develop a kink where circles sweep past the trace
    # singularity, so pointwise 1e-6 here needs the large rule
    for X in [(0.5, 0.3, 0.5), (2.0, -1.0, 1.5), (0.0, 1.5, 1.2)]:
        got = poisson_extend(v, X, n_omega=2048, n_gl=128)
        assert abs(got - closed_xstar_ext(X)) <= 1e-6


def test_poisson_extension_is_harmonic():
    # the 7-point stencil of the extension cancels to a fraction of its own
    # raw magnitude; a non-harmonic field at the same scale would not
    u = bump_map(center=0.1 + 0.2j, radius=0.8, amplitude=1.0)
    h = 0.02
    for X in [(0.2, 0.1, 0.4), (0.6, -0.3, 0.7), (0.0, 0.0, 1.1)]:
        X = np.asarray(X, float)
        center = poisson_extend(u, X)
        acc = -6.0 * center
        scale = 6.0 * abs(center)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            plus = poisson_extend(u, X + e)
            minus = poisson_extend(u, X - e)
            acc += plus + minus
            scale += abs(plus) + abs(minus)
        assert abs(acc) <= 1e-4 * scale


def test_closed_xstar_ext_rejects_origin():
    with pytest.raises(DomainViolation):
        closed_xstar_ext((0.0, 0.0, 0.0))


def test_poisson_gradient_matches_difference_quotients():
    u = bump_map(center=0.15 + 0.1j, radius=0.7, amplitude=0.9)
    d = 1e-6
    for X in [(0.3, 0.2, 0.5), (0.8, -0.1, 0.2)]:
        X = np.asarray(X, float)
        g = poisson_extend_gradient(u, X, n_omega=256, n_gl=24)
        for i in range(3):
            e = np.zeros(3)
            e[i] = d
            fd = (poisson_extend(u, X + e) - poisson_extend(u, X - e)) / (2 * d)
            assert abs(g[i] - fd) <= 5e-5 * (abs(fd) + 1.0)


# ------------------------------------------------------------- circle energy


def test_circle_energy_constant_is_zero():
    g = CircleSample(np.full(64, 0.3 + 0.4j))
    assert abs(circle_energy_numeric(g)) <= 1e-14


def test_circle_energy_identity_map():
    n = 256
    g = CircleSample(np.exp(1j * 2 * np.pi * np.arange(n) / n))
    assert abs(circle_energy_numeric(g) - math.pi) <= 1e-10


def test_circle_energy_degree_three_product():
    rng = np.random.default_rng(5)
    zeros = tuple(complex(*rng.uniform(-0.35, 0.35, 2)) for _ in range(3))
    B = BlaschkeProduct(theta=0.4, zeros=zeros)
    n = 1024
    g = CircleSample(eval_product(B, np.exp(1j * 2 * np.pi * np.arange(n) / n)))
    got = circle_energy_numeric(g)
    assert abs(got - 3 * math.pi) <= 1e-5 * 3 * math.pi


def test_circle_energy_flags_undersampling():
    n = 12
    angles = 2 * np.pi * np.arange(n) / n
    g = CircleSample(np.exp(4j * angles))
    with pytest.raises(Undersampled):
        circle_energy_numeric(g)


# ------------------------------------------------------------- plane energy


def test_frac_energy_matches_halfspace_dirichlet_on_a_bump():
    b = bump_map(center=0.1 + 0.05j, radius=0.8, amplitude=1.0)
    rep = frac_energy_plane(b, R=b.far_radius + 0.4)
    orc = halfspace_dirichlet_oracle(b)
    assert rep.converged and not rep.divergent
    assert abs(float(rep.value) - orc) <= 1e-3 * abs(orc)


def test_frac_energy_flags_jump_divergence():
    jump = PlaneMap(func=lambda z: np.where(np.real(z) >= 0, 1.0, -1.0)
                    .astype(complex),
                    bound=1.0, far_field="homogeneous")
    rep = frac_energy_plane(jump, R=1.0)
    assert rep.divergent


def test_frac_energy_vortex_trace_is_finite():
    # the planar unit vortex has locally finite relative energy; on D_1 the
    # angular reduction closes in complete elliptic integrals and collapses
    # to exactly 2*pi - 2
    v = vortex_map()
    rep = frac_energy_plane(v, R=1.0)
    assert not rep.divergent
    assert rep.converged
    truth = 2.0 * math.pi - 2.0
    assert abs(float(rep) - truth) <= 1e-3 * truth


def test_frac_energy_reports_truncation_tail():
    v = vortex_map()
    rep = frac_energy_plane(v, R=1.0)
    assert rep.tail_bound > 0.0


# ------------------------------------------------------------- pairing


def _sum_map(u1: PlaneMap, u2: PlaneMap) -> PlaneMap:
    return PlaneMap(func=lambda z: u1(z) + u2(z),
                    bound=u1.bound + u2.bound, far_field="zero",
                    far_radius=max(u1.far_radius, u2.far_radius))


def test_pairing_with_self_doubles_the_energy():
    b = bump_map(center=0.2 + 0.1j, radius=0.6, amplitude=0.8)
    R = b.far_radius + 0.4
    pair = half_laplacian_pairing(b, b, R=R)
    energy = float(frac_energy_plane(b, R=R).value)
    assert abs(pair - 2.0 * energy) <= 1e-3 * abs(2.0 * energy)


def test_pairing_neumann_volume_identity():
    # the weak half-Laplacian pairing equals the half-space volume integral
    # of <grad u_ext, grad phi_ext>, here recovered by polarizing three
    # independent Dirichlet-energy computations
    u1 = bump_map(center=0.1 + 0.0j, radius=0.6, amplitude=1.0)
    u2 = bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.7)
    s = _sum_map(u1, u2)
    pair = half_laplacian_pairing(u1, u2, R=s.far_radius + 0.4)
    vol = (halfspace_dirichlet_oracle(s) - halfspace_dirichlet_oracle(u1)
           - halfspace_dirichlet_oracle(u2))
    assert abs(pair - vol) <= 1e-3 * abs(vol)


def test_pairing_polarization_identity():
    u1 = bump_map(center=0.1 + 0.0j, radius=0.6, amplitude=1.0)
    u2 = bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.7)
    s = _sum_map(u1, u2)
    R = s.far_radius + 0.4
    e_sum = float(frac_energy_plane(s, R=R).value)
    e1 = float(frac_energy_plane(u1, R=R).value)
    e2 = float(frac_energy_plane(u2, R=R).value)
    pair = half_laplacian_pairing(u1, u2, R=R)
    scale = max(abs(e_sum), 1.0)
    assert abs((e_sum - e1 - e2) - pair) <= 2e-3 * scale


# ------------------------------------------------------------- half-ball route


def test_halfball_rejects_bad_radius():
    B = BlaschkeProduct(theta=0.0, zeros=(0.0 + 0.0j,))
    with pytest.raises(DomainViolation):
        dirichlet_energy_halfball(B, r=0.0)
    with pytest.raises(DomainViolation):
        dirichlet_energy_halfball(B, r=1.5)


def test_halfball_rejects_a_nan_radius():
    B = BlaschkeProduct(theta=0.0, zeros=(0.0 + 0.0j,))
    with pytest.raises(DomainViolation, match=r"radius must lie in \(0, 1\]"):
        dirichlet_energy_halfball(B, r=math.nan)


def test_halfball_vortex_is_pi():
    got = dirichlet_energy_halfball(closed_xstar_ext, r=1.0)
    assert abs(got - math.pi) <= 1e-8


def test_halfball_degree_two_blaschke():
    B = BlaschkeProduct(theta=0.3, zeros=(0.25 + 0.1j, -0.25 - 0.1j))
    got = dirichlet_energy_halfball(B, r=1.0)
    assert abs(got - 2 * math.pi) <= 1e-6 * 2 * math.pi


def test_halfball_scales_linearly_in_radius():
    B = BlaschkeProduct(theta=0.0, zeros=(0.2 + 0.3j,))
    e1 = dirichlet_energy_halfball(B, r=1.0)
    e_half = dirichlet_energy_halfball(B, r=0.5)
    assert abs(e_half - 0.5 * e1) <= 1e-10 * e1


# Recorded with the density evaluated over the whole 128 x 256 rule at once;
# filled in node chunks since, with the same bits.  "vortex" and
# "three_zeros" moved by 1 ulp when the weighted density came to be summed
# by np.sum, not a BLAS dot.
HEMISPHERE_PINS = {
    "vortex": (closed_xstar_ext, 3.1415926534332494),
    "degree_two": (BlaschkeProduct(theta=0.3, zeros=(0.25 + 0.1j, -0.25 - 0.1j)), 6.2831853068673205),
    "three_zeros": (BlaschkeProduct(theta=1.1, zeros=(0.3 + 0.2j, -0.35 + 0.1j, 0.05 - 0.4j)),
                    9.424777960299366),
}


@pytest.mark.parametrize("case", sorted(HEMISPHERE_PINS))
def test_hemisphere_pins(case):
    v, pin = HEMISPHERE_PINS[case]
    assert dirichlet_energy_halfball(v) == pin


def test_hemisphere_energy_calls_the_field_per_node_chunk():
    # 32,768 nodes: four chunks of energy._BLOCK_SAMPLES = 7,680 and one of
    # 2,048, each differenced along two tangents, two calls each
    B, rows = HEMISPHERE_PINS["degree_two"][0], []

    def counted(P):
        rows.append(P.shape[0])
        return homogeneous_extension(B, P)

    hemisphere_tangential_energy(counted)
    assert max(rows) <= energy._BLOCK_SAMPLES
    assert rows == [7680] * (4 * 4) + [2048] * 4


def test_hemisphere_energy_stays_in_node_chunks():
    # over all 32,768 nodes at once this traced 8.7 MB; in chunks, 3.1 MB,
    # most of it the rule itself
    B = HEMISPHERE_PINS["degree_two"][0]
    tracemalloc.start()
    try:
        dirichlet_energy_halfball(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_conformal_tangential_identity():
    # finite-difference tangential energy over the hemisphere must agree
    # with the analytic value pi * degree of the lifted product
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 4):
        zeros = tuple(complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(d))
        B = BlaschkeProduct(theta=float(rng.uniform(0, 2 * np.pi)), zeros=zeros)
        hemi = hemisphere_tangential_energy(lambda P: homogeneous_extension(B, P))
        assert abs(hemi - d * math.pi) <= 1e-6 * d * math.pi


# ------------------------------------------------------------- monotone density


def test_monotone_density_is_constant_for_products():
    for zeros in [(0.0 + 0.0j,), (0.2 + 0.1j, -0.3 + 0.05j)]:
        B = BlaschkeProduct(theta=0.1, zeros=zeros)
        radii = (0.1, 0.25, 0.5, 0.75, 1.0)
        rep = monotone_density(B, radii)
        assert isinstance(rep, MonotoneReport)
        d = len(zeros)
        # the shell-by-shell volume route against the hemisphere route
        hemisphere = dirichlet_energy_halfball(B)
        for dens in rep.densities:
            assert abs(dens - math.pi * d) <= 1e-6 * math.pi * d
            assert abs(dens - hemisphere) <= 1e-9 * math.pi * d
        assert abs(rep.theta_limit - math.pi * d) <= 1e-6 * math.pi * d


@pytest.mark.parametrize("radii", [(0.5, math.nan), (0.0,), (0.5, 1.5)])
def test_monotone_density_rejects_radii_outside_the_unit_interval(radii):
    B = BlaschkeProduct(theta=0.1, zeros=(0.0 + 0.0j,))
    with pytest.raises(DomainViolation, match=r"radii must lie in \(0, 1\]"):
        monotone_density(B, radii)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", [
    lambda u, R: frac_energy_plane(u, R=R),
    lambda u, R: half_laplacian_pairing(u, u, R=R),
], ids=["frac_energy_plane", "half_laplacian_pairing"])
def test_domain_radius_must_be_finite_and_positive(route, R):
    with pytest.raises(InvalidArgument, match="finite and > 0"):
        route(bump_map(radius=0.5), R)


# ------------------------------------------------- Poisson rays on the support

# Values recorded before the rays were cut to the support band and masked
# to the support disc; samples outside it were exact zeros there too, so
# every value must come back bit for bit.  Eight poisson_extend_gradient
# components were re-recorded (each moved by at most 2.8e-16 of its point's
# largest component) when it moved onto the ring gradient contraction of
# _gradient_ring_density, which sums the kernel products in another order.
# When every ray contraction moved onto the real (re, im) product of
# energy._ray_sums, which sums the same products in yet another order, these
# moved, each by at most 6.2e-16 of its point's largest component: 4 of the
# 8 _extension_value_ring values (<= 1.7e-16 relative), 3 poisson_extend
# values of "sum" (<= 1.5e-16) and of "constant" (<= 5.4e-16), 3 of
# "vortex" (<= 1.6e-16) and its value at the origin, which is 0 up to
# rounding (6.2e-17 absolute), 4 gradient components of "bump" (<= 2.0e-16
# of the point's largest) and 6 of "sum" (<= 6.2e-16 of it, 1.2e-15
# relative for 0.964...).  When quadrature._leggauss moved from numpy's
# eigenvalue rule to Newton on the Legendre recurrence (whose ray-rule
# weights are the more accurate), all 7 cases moved, each value by at most
# 8.8e-16 of its point's largest component (1.8e-15 absolute, for 0.964...),
# and the exact 0j of "bump"'s gradient on the axis became 1.6e-17 in modulus.
# The "constant" case went with PlaneMap's far field "constant" (a map that
# tends to c is written as c plus a compact map); the 6 left did not move.
_PIN_POINTS = [(0.0, 0.0, 0.5), (0.3, -0.2, 0.05), (1.4, 0.3, 0.2), (2.5, -1.0, 0.7)]
_PIN_RING = 2.7 * np.exp(2j * np.pi * (np.arange(8) + 0.25) / 8)
POISSON_PINS = {
    ("poisson_extend", "bump"): [
        (0.14525240929374372 - 0.05446965348515388j),
        (0.5315527688417689 - 0.19933228831566335j),
        (0.006001127360626282 - 0.0022504227602348557j),
        (0.00225090267941375 - 0.0008440885047801563j)],
    ("poisson_extend", "sum"): [
        (0.21381094009718254 - 0.08017910253644345j),
        (0.5417389234819494 - 0.203152096305731j),
        (0.007408746908089838 - 0.002778280090533689j),
        (0.002982000152788989 - 0.001118250057295871j)],
    ("poisson_extend", "vortex"): [
        (-2.776009312466598e-17 + 0j),
        (0.7246293425072877 - 0.4830831719717772j),
        (0.8507108560783665 + 0.18229337306407162j),
        (0.7179605695785579 - 0.28718411902962043j)],
    ("poisson_extend_gradient", "bump"): [
        ((0.10928738028218388 - 0.040982767605818954j),
         (1.3877787807814457e-17 + 6.938893903907228e-18j),
         (-0.3843056751700745 + 0.14411462818877796j)),
        ((-0.692357583014277 + 0.25963409363035383j), (0.9231434440481012 - 0.34617879151803754j),
         (-2.067979747401056 + 0.775492405275396j)),
        ((-0.014452636308767646 + 0.0054197386157878655j),
         (-0.003468911182977368 + 0.0013008416936165128j),
         (0.027314067634802833 - 0.01024277536305106j)),
        ((-0.002297610399524057 + 0.0008616038998215213j),
         (0.0009783404323269892 - 0.00036687766212262094j),
         (0.002506356041648399 - 0.0009398835156181496j))],
    ("poisson_extend_gradient", "sum"): [
        ((0.027692084114868412 - 0.010384531543075655j),
         (0.061196472371407046 - 0.022948677139277632j),
         (-0.5625422287201416 + 0.21095333577005304j)),
        ((-0.7512216583879133 + 0.2817081218954675j), (0.9643482927027991 - 0.3616306097635491j),
         (-1.8752592198379336 + 0.7032222074392253j)),
        ((-0.017126398585708455 + 0.006422399469640669j),
         (-0.0037197143177291033 + 0.0013948928691484134j),
         (0.03399735504444869 - 0.012749008141668256j)),
        ((-0.0029531755831818367 + 0.0011074408436931883j),
         (0.0012574493016374504 - 0.00047154348811404386j),
         (0.003376340750606715 - 0.001266127781477518j))],
    ("_extension_value_ring", "sum"): [
        (0.0030311022496146774 - 0.001136663343605504j),
        (0.003020003912062603 - 0.0011325014670234763j),
        (0.002980011372022525 - 0.0011175042645084467j),
        (0.0029074929799903465 - 0.0010903098674963799j),
        (0.0027505347262500516 - 0.0010314505223437689j),
        (0.002658415196208578 - 0.0009969056985782165j),
        (0.0027333014367429986 - 0.0010249880387786243j),
        (0.002914412001176749 - 0.0010929045004412807j)],
}
# The bump value was re-recorded (moved by 3.8e-16 relative) when the oracle's
# radial and polar rules moved onto quadrature._panel_rule, and again (by
# 1.3e-16 relative) when the ray contractions moved onto energy._ray_sums.
# Both moved (bump 2.8e-15, sum 3.0e-15 relative) when quadrature._leggauss
# moved onto the Legendre recurrence.
ORACLE_PINS = {"bump": 0.4385209856395822, "sum": 0.7779657209388319}


def _pin_bumps():
    return (bump_map(center=0.15 + 0.0j, radius=0.6, amplitude=0.8 - 0.3j),
            bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.56 - 0.21j))


def _pin_maps():
    u1, u2 = _pin_bumps()
    return {"bump": u1, "sum": _sum_map(u1, u2), "vortex": vortex_map()}


@pytest.mark.parametrize("case", sorted(POISSON_PINS), ids="-".join)
def test_poisson_path_pins(case):
    name, map_name = case
    u = _pin_maps()[map_name]
    if name == "_extension_value_ring":
        got = list(energy._extension_value_ring(u, _PIN_RING, 0.7, 128, 16))
    else:
        got = [getattr(energy, name)(u, X) for X in _PIN_POINTS]
    assert got == POISSON_PINS[case]


@pytest.mark.parametrize("map_name", sorted(ORACLE_PINS))
def test_halfspace_oracle_pins(map_name):
    u = _pin_maps()[map_name]
    assert halfspace_dirichlet_oracle(u, n_omega=32, n_gl=8) == ORACLE_PINS[map_name]


def test_oracle_reuses_a_ring_rule_only_when_exact(monkeypatch):
    # the oracle with its ring-rule cache cleared before every level must
    # equal the cached oracle bit for bit: on the pinned bumps, whose levels
    # reuse their ring's rule, and on a compact map with a singular point,
    # whose panel breaks depend on every point of a level (the coarse rules
    # keep the many panels of its breaks cheap)
    u1, u2 = _pin_bumps()
    c = 0.1 - 0.05j
    twisted = PlaneMap(func=lambda z: u1(z) * np.exp(1j * np.angle(z - c)), bound=u1.bound,
                       singular_points=(c,), far_radius=u1.far_radius)
    cases = {"u1": (u1, 8, 4), "u2": (u2, 8, 4), "twisted": (twisted, 4, 2)}
    cached = {}
    for name, (u, n_omega, n_gl) in cases.items():
        energy._gradient_rule.cache_clear()
        cached[name] = halfspace_dirichlet_oracle(u, n_omega, n_gl)
        if not u.singular_points:
            assert energy._gradient_rule.cache_info().hits > 0, name
    density = energy._gradient_ring_density

    def uncached(*args):
        energy._gradient_rule.cache_clear()
        return density(*args)

    monkeypatch.setattr(energy, "_gradient_ring_density", uncached)
    for name, (u, n_omega, n_gl) in cases.items():
        assert halfspace_dirichlet_oracle(u, n_omega, n_gl) == cached[name], name


def test_oracle_refines_each_ring_by_whole_levels(monkeypatch):
    # every ring runs its first two levels (16 points and their 16 odd
    # points) in one _gradient_ring_density call of 32 points; each later
    # doubling level is one call on the new points only (32, 64): the
    # benchmark's per-ring figures read this function's calls, so the
    # oracle must keep going through it
    rings, calls = [], []
    ring_mean, density = energy._ring_mean_density, energy._gradient_ring_density

    def counted_ring(*args):
        rings.append([])
        return ring_mean(*args)

    def counted_density(u, centers, *args):
        rings[-1].append(np.size(centers))
        calls.append(1)
        return density(u, centers, *args)

    monkeypatch.setattr(energy, "_ring_mean_density", counted_ring)
    monkeypatch.setattr(energy, "_gradient_ring_density", counted_density)
    u = _pin_maps()["bump"]
    halfspace_dirichlet_oracle(u, n_omega=8, n_gl=4)
    per_ring = [len(sizes) for sizes in rings]
    assert len(rings) == 30 * 34
    assert set(per_ring) <= {1, 2, 3} and len(set(per_ring)) > 1
    for sizes in rings:
        assert sizes == [32, 32, 64][:len(sizes)]
    assert len(calls) == sum(per_ring)


# A fresh interpreter runs `setup`, sleeps 0.3 s (numpy's OpenBLAS worker
# spins about 0.13 s after load whatever runs next), then times `timed`,
# which sets `bits` to a list of hex strings of the values.
_TIMED_CHILD = """
import json, time
import numpy as np
{setup}
time.sleep(0.3)
wall, cpu = time.perf_counter(), time.process_time()
{timed}
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps({{"bits": bits, "wall": wall, "cpu": cpu}}))
"""


def _timed_child(setup, timed, blas_threads):
    src = str(Path(halfharm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = _TIMED_CHILD.format(setup=setup, timed=timed)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    return json.loads(out.stdout)


def _assert_starts_no_blas_thread(setup, timed):
    """The timed calls in fresh interpreters on 2 and on 1 BLAS threads:
    with 2 the process may use no more CPU than wall time (a worker thread
    would add its own), and the values must not depend on the thread count."""
    two, one = _timed_child(setup, timed, "2"), _timed_child(setup, timed, "1")
    assert two["bits"] == one["bits"]
    if (os.cpu_count() or 1) >= 2:
        assert two["cpu"] <= 1.15 * two["wall"] + 0.05, two


def test_half_space_routes_start_no_blas_thread():
    # a 64-point ring at 12 heights on the default ray rule and the pair
    # form's first rung
    _assert_starts_no_blas_thread("""
from halfharm import energy
u = energy.bump_map(center=0.15 + 0.0j, radius=0.6, amplitude=0.8 - 0.3j)
ring = 0.5 * np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)
""", """
dens = np.concatenate([energy._gradient_ring_density(u, ring, h, 128, 16)
                       for h in np.geomspace(0.002, 0.5, 12)])
pair = energy._pair_form(u, None, u.far_radius + 0.4, 16, 48, 8)
bits = [dens.tobytes().hex(), pair[0].hex(), pair[1].hex()]
""")


def test_rule_sums_start_no_blas_thread():
    # the 24,576-node balance integral and the 32,768-node hemisphere energy
    # of the fields benchmark's seed-3 two-zero product: summed by a BLAS
    # dot, both woke its worker threads, and each read one ulp apart on 1
    # and on 2 threads
    _assert_starts_no_blas_thread("""
from halfharm.blaschke import BlaschkeProduct, balance_vector
from halfharm.energy import dirichlet_energy_halfball
B = BlaschkeProduct(theta=1.0036692014325062, zeros=(0.24207485970556256 + 0.20985403166631791j,
                                                     -0.21616717169036417 - 0.02282104394181498j))
""", """
b = balance_vector(B)
bits = [b.real.hex(), b.imag.hex(), dirichlet_energy_halfball(B).hex()]
""")


def _full_grid_ring_density(u, centers, h, n_omega, n_gl):
    """|grad u^e|^2 on a ring with every ray sample evaluated and contracted.

    The samples meet both kernels in one real product of their (re, im)
    pairs, the arithmetic of energy._ray_sums: the vertical kernel has zero
    mass, so its sums cancel, and a complex product that groups the partial
    sums otherwise can differ from it by more than the test's bound."""
    rad = float(abs(centers[0]))
    R = u.far_radius
    breaks = [max(0.0, rad - R) / h, (rad + R) / h, math.hypot(rad, R) / h]
    t, wt = energy._kernel_panels((rad + R) / h + 3.0, extra_breaks=breaks, n_gl=n_gl)
    what = np.exp(2j * np.pi * np.arange(n_omega) / n_omega)
    pts = centers[:, None, None] + h * t[None, None, :] * what[None, :, None]
    vals = np.asarray(u(pts), dtype=complex)
    base = (1.0 + t * t) ** -2.5
    pairs = np.zeros((t.size, 2, 2, 2))
    pairs[:, 0, :, 0] = pairs[:, 1, :, 1] = np.stack(
        [(3.0 * t * t * base) * wt, ((t * t - 2.0) * t * base) * wt], axis=1)
    sums = (vals.reshape(-1, t.size).view(float) @ pairs.reshape(2 * t.size, 4)).view(complex)
    sums = sums.reshape(centers.size, n_omega, 2)
    proj_h = sums[:, :, 0]
    gh = np.mean(proj_h * np.real(what)[None, :], axis=1)
    gh2 = np.mean(proj_h * np.imag(what)[None, :], axis=1)
    gv = np.mean(sums[:, :, 1], axis=1)
    dens = (np.abs(gh) ** 2 + np.abs(gh2) ** 2 + np.abs(gv) ** 2) / (h * h)
    band = (t >= breaks[0]) & (t <= breaks[1])
    support = band[None, None, :] & (np.abs(pts) <= R)
    # the samples energy._ray_sums builds: the band of every ray that can
    # meet the support disc
    built = energy._meets_disc(centers[:, None], what[None, :], R)[:, :, None] & band
    return dens, pts, support, built


@settings(max_examples=60, deadline=None)
@given(
    center=st.complex_numbers(max_magnitude=0.6),
    radius=st.floats(0.05, 1.0),
    ring=st.floats(0.0, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    h=st.floats(0.005, 3.0),
    n_centers=st.integers(1, 9),
    n_omega=st.integers(3, 40),
    n_gl=st.integers(2, 20),
)
# a ring at the origin with h = 1/128: the vertical sums cancel to 1/230 of
# their largest product, where a complex-product reference moved by 2.5e-14
@example(center=0j, radius=1.0, ring=0.0, phase=0.0, h=0.0078125, n_centers=1,
         n_omega=3, n_gl=2)
def test_ring_density_skips_only_zero_samples(center, radius, ring, phase, h,
                                              n_centers, n_omega, n_gl):
    bump = bump_map(center=center, radius=radius, amplitude=0.6 + 0.8j)
    seen = []

    def recorded(z):
        seen.append(np.array(z))
        return bump(z)

    u = PlaneMap(func=recorded, bound=bump.bound, far_field="zero",
                 far_radius=bump.far_radius)
    centers = ring * np.exp(1j * (phase + 2.0 * np.pi * np.arange(n_centers) / n_centers))
    got = energy._gradient_ring_density(u, centers, h, n_omega, n_gl)
    # no ray of the ring may meet the support, and then u is never called
    evaluated = np.concatenate([np.empty(0, dtype=complex)] + [z.ravel() for z in seen])
    want, pts, support, built = _full_grid_ring_density(bump, centers, h, n_omega, n_gl)
    # u is called on every sample it builds, and every sample outside the
    # support is 0
    np.testing.assert_array_equal(evaluated, pts[built])
    assert np.all(bump(pts[~support]) == 0)
    # the reference adds the same products plus exact zeros; BLAS may group
    # the partial sums differently when the band starts mid-vector
    assert np.all(np.abs(got - want) <= 1e-14 * np.max(want, initial=0.0))


def _compact_map(center, radius):
    """A bump at center, or for radius 0 the bump shrunk to a point: the
    zero map with far_radius 0."""
    if radius == 0.0:
        return PlaneMap(func=lambda z: np.zeros(np.shape(z), dtype=complex), bound=1.0,
                        far_field="zero", far_radius=0.0)
    return bump_map(center=center, radius=radius, amplitude=0.6 + 0.8j)


@settings(max_examples=60, deadline=None)
@given(
    center=st.complex_numbers(max_magnitude=0.6),
    radius=st.floats(0.05, 1.0),
    ring=st.floats(0.0, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    h=st.floats(0.005, 3.0),
    n_omega=st.integers(3, 40),
    n_gl=st.integers(2, 20),
)
# the ring outside the support disc, and a support disc of radius 0
@example(center=0.3 + 0.1j, radius=0.4, ring=2.5, phase=0.2, h=0.05, n_omega=24, n_gl=6)
@example(center=0j, radius=0.0, ring=0.0, phase=0.0, h=0.5, n_omega=8, n_gl=4)
def test_the_map_alone_decides_its_zeros(center, radius, ring, phase, h, n_omega, n_gl):
    # the half-space routes evaluate every sample they build; a map that
    # masks the samples outside its disc itself gives equal results
    u = _compact_map(center, radius)
    masked = PlaneMap(func=lambda z: np.where(np.abs(z) <= u.far_radius, u(z), 0),
                      bound=u.bound, far_field="zero", far_radius=u.far_radius)
    centers = ring * np.exp(1j * (phase + 2.0 * np.pi * np.arange(5) / 5))
    X = (centers[0].real, centers[0].imag, h)
    for route in (lambda m: energy._gradient_ring_density(m, centers, h, n_omega, n_gl),
                  lambda m: poisson_extend(m, X, n_omega, n_gl),
                  lambda m: poisson_extend_gradient(m, X, n_omega, n_gl)):
        np.testing.assert_array_equal(route(masked), route(u))



# ------------------------------------------------------- pair form by ring

# frac_energy_plane ladders (R = far_radius + 0.4 for the bump and the sum,
# R = 1 for the vortex) and half_laplacian_pairing values (R of the sum),
# recorded when _pair_form still looped over its outer points one by one.
# The ring contraction sums the same products in another order.
PAIR_FORM_PINS = {
    ("ladder", "bump"): (0.4385586156453464, 0.43854594091613913),
    ("ladder", "sum"): (0.7777652752200213, 0.7780395169256497, 0.7779970588148105),
    ("ladder", "vortex"): (4.282099484407507, 4.283047922698984, 4.283894600336887),
    ("pairing", "bump-bump"): (0.87710108115166,),
    ("pairing", "u1-u2"): (0.1603694128224795,),
}


@pytest.mark.parametrize("case", sorted(PAIR_FORM_PINS), ids="-".join)
def test_pair_form_pins(case):
    kind, name = case
    u1, u2 = _pin_bumps()
    maps = _pin_maps()
    if kind == "ladder":
        u = maps[name]
        got = frac_energy_plane(u, R=1.0 if name == "vortex" else u.far_radius + 0.4).ladder
    else:
        R = maps["sum"].far_radius + 0.4
        got = (half_laplacian_pairing(u1, u1 if name == "bump-bump" else u2, R=R),)
    want = PAIR_FORM_PINS[case]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w), (g, w)


def _pair_form_reference(u, phi, R, n_x_r, n_x_t, n_omega, n_gl):
    """_pair_form as one loop over the outer points, each with its own rays
    along n_omega directions: (value, tail_bound)."""
    sym = phi is None
    pmap = u if sym else phi
    hom = u.far_field == "homogeneous" or pmap.far_field == "homogeneous"
    R_big = max(R, u.far_radius, pmap.far_radius)
    if hom:
        R_big = max(R_big, 12.0 * R)
    outer = disc_rule(n_x_r, n_x_t)
    xs = R * outer.nodes
    wx = R * R * outer.weights
    what = np.exp(2j * np.pi * np.arange(n_omega) / n_omega)
    xi, wxi = energy._xi_nodes(n_gl)

    far_u = np.asarray(u.far_value(what), dtype=complex)
    far_p = far_u if sym else np.asarray(pmap.far_value(what), dtype=complex)
    if hom:
        dfar_u = energy._spectral_derivative(far_u)
        dfar_p = dfar_u if sym else energy._spectral_derivative(far_p)

    total = 0.0
    tail_bound = 0.0
    for x, w_outer in zip(xs, wx):
        ux = complex(u(np.array(x)))
        px = ux if sym else complex(pmap(np.array(x)))
        exit1 = energy._ray_exit(x, what, R)
        rho1 = exit1[None, :] * xi[:, None]
        pts1 = x + rho1 * what[None, :]
        du = u(pts1) - ux
        dp = du if sym else pmap(pts1) - px
        q1 = np.real(du * np.conj(dp)) / (rho1 * rho1)
        seg1 = (q1 * wxi[:, None]).sum(axis=0) * exit1

        if R_big > R + 1e-15:
            exit2 = energy._ray_exit(x, what, R_big)
            span = exit2 - exit1
            rho2 = exit1[None, :] + span[None, :] * xi[:, None]
            pts2 = x + rho2 * what[None, :]
            du2 = u(pts2) - ux
            dp2 = du2 if sym else pmap(pts2) - px
            q2 = np.real(du2 * np.conj(dp2)) / (rho2 * rho2)
            seg2 = (q2 * wxi[:, None]).sum(axis=0) * span
            rho_far = exit2
        else:
            seg2 = 0.0
            rho_far = exit1

        dtail_u = ux - far_u
        dtail_p = px - far_p
        tail = np.real(dtail_u * np.conj(dtail_p)) / rho_far
        if hom:
            beta = np.imag(x * np.conj(what))
            cross = (np.real(dtail_u * np.conj(dfar_p))
                     + np.real(dfar_u * np.conj(dtail_p)))
            quad_t = np.real(dfar_u * np.conj(dfar_p))
            tail = (tail - cross * beta / (2.0 * rho_far ** 2)
                    + quad_t * beta ** 2 / (3.0 * rho_far ** 3))
            tail_bound += w_outer * (2 * np.pi / n_omega) * float(
                np.sum(8.0 * u.bound * pmap.bound
                       * (abs(x) / rho_far) ** 2 / rho_far))
        total += w_outer * (2 * np.pi / n_omega) * float(np.sum(seg1 + 2.0 * (seg2 + tail)))
    return 0.25 * total, 0.25 * tail_bound


def _assert_matches_reference(u, phi, R, n_x_r, n_x_t, n_gl, floor):
    got = energy._pair_form(u, phi, R, n_x_r, n_x_t, n_gl)
    want = _pair_form_reference(u, None if phi is u else phi, R, n_x_r, n_x_t, n_x_t, n_gl)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w) + floor, (got, want)


@settings(max_examples=40, deadline=None)
@given(
    center=st.complex_numbers(max_magnitude=0.6),
    radius=st.floats(0.05, 1.0),
    amplitude=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    R_scale=st.floats(0.5, 2.0),
    n_x_r=st.integers(2, 12),
    n_x_t=st.integers(3, 40),
    n_gl=st.integers(2, 12),
    partner=st.sampled_from(("none", "same", "other")),
)
def test_pair_form_matches_the_per_point_loop(center, radius, amplitude, R_scale,
                                              n_x_r, n_x_t, n_gl, partner):
    u = bump_map(center=center, radius=radius, amplitude=amplitude)
    phi = {"none": None, "same": u,
           "other": bump_map(center=-0.5 * center + 0.1j, radius=0.4, amplitude=0.7 - 0.2j)}[partner]
    # R below the support radius gives rays a second segment out to it
    R = R_scale * u.far_radius
    scale = abs(amplitude) * (abs(amplitude) if phi is None or phi is u else phi.bound)
    _assert_matches_reference(u, phi, R, n_x_r, n_x_t, n_gl, 1e-15 * scale)


@pytest.mark.parametrize("name", ["vortex"])
@pytest.mark.parametrize("R", [0.4, 1.0])
def test_pair_form_matches_the_per_point_loop_on_tails(name, R):
    # the vortex closes a homogeneous tail past a second segment out to 12 R
    u = _pin_maps()[name]
    _assert_matches_reference(u, None, R, 6, 20, 6, 1e-15)


def test_a_map_returning_a_scalar_is_a_constant_map():
    # PlaneMap broadcasts a scalar output over z's shape: a constant has no
    # nonlocal energy and is its own Poisson extension
    c = PlaneMap(func=lambda z: 0.5 + 0j, bound=1.0, far_field="homogeneous")
    rep = frac_energy_plane(c, R=1.0)
    assert rep.converged and abs(rep.value) <= 1e-15
    assert abs(poisson_extend(c, (0.3, -0.2, 0.4)) - 0.5) <= 1e-15


@pytest.mark.parametrize("wrap, amplitude", [(np.asfortranarray, 0.8 - 0.3j), (np.real, 0.8)],
                         ids=["fortran", "real"])
def test_a_map_in_any_output_form_gives_the_bits_of_the_plain_map(wrap, amplitude):
    # PlaneMap converts a Fortran-ordered or real output to the C-ordered
    # complex form both half-space routes read, which moves no value
    b = bump_map(center=0.15 + 0.0j, radius=0.6, amplitude=amplitude)
    w = PlaneMap(func=lambda z: wrap(b.func(z)), bound=b.bound, far_radius=b.far_radius)
    other = bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.56 - 0.21j)
    X = (0.3, -0.2, 0.05)
    for run in (lambda u: energy._pair_form(u, None, 1.2, 6, 20, 6),
                lambda u: half_laplacian_pairing(u, other, R=1.2),
                lambda u: poisson_extend(u, X),
                lambda u: poisson_extend_gradient(u, X),
                lambda u: halfspace_dirichlet_oracle(u, n_omega=8, n_gl=4)):
        assert run(w) == run(b)


def _old_bump_values(z, c, r, amplitude):
    s2 = np.abs((z - c) / r) ** 2
    inside = s2 < 1.0
    out = np.zeros(z.shape, dtype=complex)
    safe = np.where(inside, s2, 0.0)
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - safe[inside]))
    return out


def test_bump_values_are_bit_identical_to_the_divided_form():
    rng = np.random.default_rng(20)
    for _ in range(50):
        c = complex(*rng.uniform(-1.0, 1.0, 2))
        r = float(rng.uniform(0.01, 2.0))
        amplitude = complex(*rng.uniform(-1.0, 1.0, 2))
        u = bump_map(center=c, radius=r, amplitude=amplitude)
        anywhere = c + r * (rng.uniform(-2.0, 2.0, 2000) + 1j * rng.uniform(-2.0, 2.0, 2000))
        rim = c + r * rng.uniform(0.99, 1.01, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
        for z in (anywhere, rim, anywhere.reshape(40, 50), np.asarray(rim[0]),
                  np.asarray(c + 0.5 * r)):
            got, want = u(z), _old_bump_values(z, c, r, amplitude)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _counted(pm, samples):
    """pm, with the size of every call's argument appended to samples."""
    def f(z):
        samples.append(np.size(z))
        return pm.func(z)
    return PlaneMap(func=f, bound=pm.bound, far_field=pm.far_field, far_radius=pm.far_radius)


def test_self_pairing_evaluates_the_map_once_per_sample():
    u1, u2 = _pin_bumps()
    R = _pin_maps()["sum"].far_radius + 0.4
    samples = []
    u, v = _counted(u1, samples), _counted(u2, samples)
    half_laplacian_pairing(u, v, R=R)
    cross = sum(samples)
    samples.clear()
    pair = half_laplacian_pairing(u, u, R=R)
    assert cross > 0 and 2 * sum(samples) == cross
    assert pair == 2.0 * GAMMA_2 * energy._pair_form(u, None, R, 28, 72, 10)[0]


# ------------------------------------------------------------- ray blocks


def test_every_map_call_fits_one_ray_block():
    B = energy._BLOCK_SAMPLES
    vortex, (bump, _) = vortex_map(), _pin_bumps()
    calls = {}

    def run(name, route, pm):
        calls[name] = []
        route(_counted(pm, calls[name]))

    # 128 rays of 224 radial nodes: blocks of 34 whole rays
    run("gradient", lambda u: poisson_extend_gradient(u, (0.3, -0.2, 0.05)), vortex)
    run("oracle", lambda u: halfspace_dirichlet_oracle(u, n_omega=8, n_gl=4), bump)
    # 131 outer angles and 126 xi nodes per ray: each outer point's 16,506
    # ray samples are cut into three column chunks
    run("pair", lambda u: energy._pair_form(u, None, u.far_radius + 0.4, 2, 131, 21), bump)
    for name, sizes in calls.items():
        assert max(sizes) <= B, (name, max(sizes))
    assert calls["gradient"] == [34 * 224] * 3 + [26 * 224]
    assert max(calls["pair"]) == 16506 // 3


def test_an_empty_support_band_gives_exact_zeros():
    # far_radius = 0 leaves no ray sample in the support band, and no ray
    # from X's foot meets the support disc
    calls = []
    zero = _counted(PlaneMap(func=lambda z: np.zeros(np.shape(z), dtype=complex), bound=1.0,
                             far_field="zero", far_radius=0.0), calls)
    X = (0.3, 0.2, 0.5)
    assert poisson_extend(zero, X) == 0j
    assert poisson_extend_gradient(zero, X) == (0j, 0j, 0j)
    assert not any(calls)


# ------------------------------------------------------- support disc test


@settings(max_examples=200, deadline=None)
@given(
    F=st.floats(0.0, 4.0),
    scale=st.one_of(st.floats(0.0, 3.0), st.floats(1.0, 1.05)),
    gap=st.floats(0.0, 4.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    turn=st.floats(0.0, 2.0 * math.pi / 256),
    h=st.floats(0.005, 3.0),
    n_gl=st.integers(1, 12),
)
# a ray from (2, 1) along w = -1 grazes the unit circle: |Im(conj(w) x)| = F
@example(F=1.0, scale=0.0, gap=math.sqrt(5.0), phi=math.atan2(1.0, 2.0), turn=0.0, h=0.5,
         n_gl=4)
@example(F=1.5, scale=1.0, gap=0.0, phi=0.0, turn=0.0, h=0.2, n_gl=3)  # x on the circle
@example(F=1.0, scale=1.01, gap=0.0, phi=0.3, turn=0.0, h=0.05, n_gl=6)  # x just outside
@example(F=0.0, scale=0.0, gap=1.0, phi=math.pi, turn=0.0, h=0.1, n_gl=5)  # F = 0
@example(F=0.0, scale=0.0, gap=0.0, phi=0.0, turn=0.0, h=1.0, n_gl=2)  # x = 0, F = 0
def test_support_test_keeps_every_ray_that_meets_the_disc(F, scale, gap, phi, turn, h, n_gl):
    # x at distance F * scale + gap from the origin, often just outside
    # the disc, where the kept arc is widest, and a fan of 256 directions;
    # the samples are those of the Poisson rays, built as _ray_blocks does
    x = complex((F * scale + gap) * np.exp(1j * phi))
    w = np.exp(1j * (turn + 2.0 * np.pi * np.arange(256) / 256))
    t, _ = energy._kernel_panels((abs(x) + F) / h + 3.0, [], n_gl)
    pts = np.multiply(w[:, None], h * t[None, :])
    pts += x
    keep = energy._meets_disc(x, w, F)
    assert not np.any(~keep & np.any(np.abs(pts) <= F, axis=1))
    assert abs(x) > F or np.all(keep)
    # every ray that enters the disc is kept, and every ray that clears it
    # is dropped, up to 1e-6 |x| from the closest point of the ray
    closest = np.abs(x + np.maximum(0.0, -np.real(np.conj(w) * x)) * w)
    assert np.all(keep | (closest > F - 1e-6 * abs(x)))
    assert np.all(~keep | (closest <= F + 1e-6 * abs(x)))


def _keep_every_ray(x, w, radius):
    return np.ones(np.broadcast(x, w).shape, dtype=bool)


def _kept_directions(x0: float, n: int, F: float) -> int:
    """Directions exp(2 pi i m/n) whose ray from x0 comes within F of the
    origin, from the closest point of each ray."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    closest = np.abs(x0 + np.maximum(0.0, -np.real(np.conj(w) * x0)) * w)
    # no ray grazes the disc: those are the property test's
    assert np.all(np.abs(closest - F) > 1e-6)
    return int(np.sum(closest <= F))


@pytest.mark.parametrize("case", ["bump", "sum", "u1-u2"])
def test_pair_form_builds_no_sample_on_a_ray_that_misses_the_support(case):
    # an off-centre bump, a sum of two bumps and an asymmetric pairing, on
    # a small rule with R past the support: the maps see only the samples
    # of (ring, direction) rays that meet the larger support disc, and the
    # value is that of every ray.  Dropping zero columns shifts the rest
    # within the BLAS dot of each outer point, which can move its last bit
    # (5 of 150 random configurations), so the bound is set from float64
    u1, u2 = _pin_bumps()
    u, phi = {"bump": (u1, None), "sum": (_pin_maps()["sum"], None), "u1-u2": (u1, u2)}[case]
    F = max(u.far_radius, (phi or u).far_radius)
    R, n_x_r, n, n_gl = F + 0.4, 6, 20, 4
    samples = []
    cu = _counted(u, samples)
    cphi = None if phi is None else _counted(phi, samples)
    got = energy._pair_form(cu, cphi, R, n_x_r, n, n_gl)
    with mock.patch.object(energy, "_meets_disc", _keep_every_ray):
        want = energy._pair_form(u, phi, R, n_x_r, n, n_gl)
    n_xi = 6 * n_gl
    x0 = R * disc_rule(n_x_r, n).nodes[::n].real
    rays = sum(n if x <= F else _kept_directions(x, n, F) for x in x0)
    calls = 1 if phi is None else 2
    assert sum(samples) == calls * (n_x_r * n + n * n_xi * rays)
    assert rays < n_x_r * n
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w), (got, want)


def _block_samples_readers(tree: ast.Module) -> set[str | None]:
    """Top-level definitions of a module whose code reads _BLOCK_SAMPLES,
    as a name or as an attribute (None for module-level code)."""
    readers = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "_BLOCK_SAMPLES"
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr == "_BLOCK_SAMPLES")):
                readers.add(owner)
    return readers


def test_ray_blocks_is_the_one_block_loop():
    # every route that blocks ray samples goes through energy._ray_blocks,
    # and the half-ball pass cuts its blocks through _pairwise_leaf_sum, so
    # the block size is read there, by the hemisphere energy's node chunks,
    # and nowhere else in the package
    src = Path(halfharm.__file__).resolve().parent
    readers = {path.stem: r for path in sorted(src.glob("*.py"))
               if (r := _block_samples_readers(ast.parse(path.read_text())))}
    assert readers == {"energy": {"_ray_blocks", "_pairwise_leaf_sum", "hemisphere_tangential_energy"}}


# numpy sums a contiguous float64 run of at most 128 entries without
# splitting it, so any leaf bound from 128 up keeps the tree of its sum
@pytest.mark.parametrize("leaf", [128, 1000, 4097, energy._BLOCK_SAMPLES])
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200_000), seed=st.integers(0, 2**32 - 1))
@example(n=27648, seed=0)  # the half-ball pass's bulk block
@example(n=55296, seed=1)  # and a vortex patch block
def test_pairwise_leaf_sum_is_numpys_sum_bit_for_bit(leaf, n, seed):
    rng = np.random.default_rng(seed)
    # mixed signs and magnitudes, so a different summation tree rounds differently
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    with mock.patch.object(energy, "_BLOCK_SAMPLES", leaf):
        got = energy._pairwise_leaf_sum(lambda lo, hi: np.sum(a[lo:hi]), 0, n)
    assert float(got).hex() == float(np.sum(a)).hex()
