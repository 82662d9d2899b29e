"""Tests for the nonlocal energy machinery: Poisson extension, plane and
circle energies, the half-ball Dirichlet route, and the decay bounds."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PlaneMap,
    bump_map,
    circle_energy_numeric,
    closed_xstar_ext,
    dirichlet_energy_halfball,
    disc_extend,
    extension_l2_bounds_check,
    frac_energy_plane,
    gamma_n,
    half_laplacian_pairing,
    halfspace_dirichlet_oracle,
    hemisphere_tangential_energy,
    monotone_density,
    poisson_extend,
    poisson_extend_gradient,
    vortex_map,
    write_extension_csv,
)
from halfharm.errors import DomainViolation, PreconditionViolation, Undersampled
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


def test_poisson_extend_constant_is_exact():
    c = 0.37 - 0.21j
    u = PlaneMap(func=lambda z: np.full_like(np.asarray(z, complex), c),
                 bound=1.0, far_field="constant", far_constant=c)
    for X in [(0.0, 0.0, 0.5), (2.0, -1.0, 0.01), (0.3, 0.4, 7.0)]:
        assert abs(poisson_extend(u, X) - c) <= 1e-13


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


# ------------------------------------------------------------- disc extension


def test_disc_extend_rejects_boundary_and_outside():
    g = CircleSample(np.exp(1j * 2 * np.pi * np.arange(64) / 64))
    with pytest.raises(DomainViolation):
        disc_extend(g, 1.0 + 0.0j)
    with pytest.raises(DomainViolation):
        disc_extend(g, 1.2 + 0.1j)


def test_disc_extend_recovers_blaschke_interior_values():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        zeros = [complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(d)]
        B = BlaschkeProduct(theta=float(rng.uniform(0, 2 * np.pi)),
                            zeros=tuple(zeros))
        n = 512
        angles = 2 * np.pi * np.arange(n) / n
        g = CircleSample(eval_product(B, np.exp(1j * angles)))
        for z in (0.0 + 0.0j, 0.35 - 0.2j, -0.5 + 0.3j):
            assert abs(disc_extend(g, z) - eval_product(B, z)) <= 1e-8


def test_disc_extend_mean_value_property():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=128) + 1j * rng.normal(size=128)
    g = CircleSample(vals)
    assert abs(disc_extend(g, 0.0 + 0.0j) - np.mean(vals)) <= 1e-12


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


def test_frac_energy_requires_degree_data_for_interior_singularities():
    bad = PlaneMap(func=lambda z: np.asarray(z) / np.maximum(np.abs(z), 1e-300),
                   bound=1.0, singular_points=(0.0 + 0.0j,),
                   far_field="homogeneous")
    with pytest.raises(PreconditionViolation):
        frac_energy_plane(bad, R=1.0)


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
        d = len(zeros)
        for dens in rep.densities:
            assert abs(dens - math.pi * d) <= 1e-6 * math.pi * d
        assert abs(rep.theta_limit - math.pi * d) <= 1e-6 * math.pi * d


# ------------------------------------------------------------- L2 bounds


def test_extension_l2_bounds_and_decay():
    maps = [bump_map(center=0.1 + 0.05j, radius=0.8, amplitude=1.0),
            bump_map(center=-0.3 + 0.2j, radius=0.5, amplitude=0.6)]
    heights = (0.05, 0.2, 0.5, 1.0, 2.5, 4.0, 6.0)
    for u in maps:
        rep = extension_l2_bounds_check(u, heights)
        assert rep.l2_bound_ok
        assert all(s <= rep.u_l2_sq * (1 + 1e-9) for s in rep.slice_l2_sq)
        # decay constant: theory gives gamma_2^2 * pi / 2 for the far slices
        assert rep.empirical_c <= 0.05
        assert abs(rep.loglog_slope + 2.0) <= 0.15


def test_extension_l2_rejects_noncompact():
    with pytest.raises(PreconditionViolation):
        extension_l2_bounds_check(vortex_map(), (0.5, 1.0))


# ------------------------------------------------- Poisson rays on the support

# Values recorded before the rays were cut to the support band and masked
# to the support disc; samples outside it were exact zeros there too, so
# every value must come back bit for bit.
_PIN_POINTS = [(0.0, 0.0, 0.5), (0.3, -0.2, 0.05), (1.4, 0.3, 0.2), (2.5, -1.0, 0.7)]
_PIN_RING = 2.7 * np.exp(2j * np.pi * (np.arange(8) + 0.25) / 8)
POISSON_PINS = {
    ("poisson_extend", "bump"): [
        (0.14525240929374364 - 0.054469653485153854j),
        (0.5315527688417689 - 0.19933228831566335j),
        (0.006001127360626282 - 0.0022504227602348557j),
        (0.00225090267941375 - 0.0008440885047801562j)],
    ("poisson_extend", "sum"): [
        (0.2138109400971825 - 0.0801791025364434j),
        (0.5417389234819494 - 0.20315209630573097j),
        (0.007408746908089838 - 0.0027782800905336888j),
        (0.0029820001527889896 - 0.001118250057295871j)],
    ("poisson_extend", "constant"): [
        (0.32020815280171305 - 0.11920310216782978j),
        (0.22924541815066257 + 0.04667011984290945j),
        (0.36839193167835715 - 0.20706764011935663j),
        (0.36928478817235266 - 0.20869579019664347j)],
    ("poisson_extend", "vortex"): [
        (-4.517509037063796e-21 + 5.551115123125784e-17j),
        (0.7246293425072877 - 0.48308317197177736j),
        (0.8507108560783668 + 0.18229337306407165j),
        (0.7179605695785578 - 0.28718411902962043j)],
    ("poisson_extend_gradient", "bump"): [
        ((0.10928738028218385 - 0.04098276760581894j), 0j,
         (-0.38430567517007463 + 0.144114628188778j)),
        ((-0.6923575830142764 + 0.25963409363035395j), (0.9231434440481001 - 0.34617879151803727j),
         (-2.0679797474010564 + 0.7754924052753962j)),
        ((-0.014452636308767645 + 0.0054197386157878655j),
         (-0.003468911182977368 + 0.0013008416936165128j),
         (0.02731406763480283 - 0.01024277536305106j)),
        ((-0.002297610399524057 + 0.0008616038998215213j),
         (0.0009783404323269892 - 0.0003668776621226209j),
         (0.0025063560416483987 - 0.0009398835156181495j))],
    ("poisson_extend_gradient", "sum"): [
        ((0.027692084114868388 - 0.010384531543075648j), (0.06119647237140703 - 0.022948677139277632j),
         (-0.5625422287201416 + 0.2109533357700531j)),
        ((-0.751221658387913 + 0.2817081218954675j), (0.964348292702798 - 0.3616306097635491j),
         (-1.8752592198379343 + 0.7032222074392253j)),
        ((-0.01712639858570845 + 0.006422399469640669j),
         (-0.003719714317729102 + 0.0013948928691484132j),
         (0.03399735504444868 - 0.012749008141668256j)),
        ((-0.002953175583181836 + 0.0011074408436931883j),
         (0.0012574493016374504 - 0.00047154348811404375j),
         (0.0033763407506067146 - 0.001266127781477518j))],
    ("_extension_value_ring", "sum"): [
        (0.003031102249614678 - 0.0011366633436055039j),
        (0.0030200039120626037 - 0.0011325014670234763j),
        (0.002980011372022526 - 0.001117504264508447j),
        (0.0029074929799903465 - 0.0010903098674963799j),
        (0.002750534726250051 - 0.001031450522343769j),
        (0.002658415196208578 - 0.0009969056985782167j),
        (0.002733301436742998 - 0.0010249880387786243j),
        (0.0029144120011767487 - 0.0010929045004412809j)],
}
ORACLE_PINS = {"bump": 0.4385209856395811, "sum": 0.7779657209388295}


def _pin_maps():
    u1 = bump_map(center=0.15 + 0.0j, radius=0.6, amplitude=0.8 - 0.3j)
    u2 = bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.56 - 0.21j)
    c = 0.37 - 0.21j
    constant = PlaneMap(func=lambda z: np.where(np.abs(z) < 0.5, 0.2 + 0.1j, c),
                        bound=1.0, far_field="constant", far_constant=c, far_radius=0.5)
    return {"bump": u1, "sum": _sum_map(u1, u2), "constant": constant, "vortex": vortex_map()}


@pytest.mark.parametrize("case", sorted(POISSON_PINS), ids="-".join)
def test_poisson_path_pins(case):
    name, map_name = case
    u = _pin_maps()[map_name]
    if name == "_extension_value_ring":
        got = list(energy._extension_value_ring(u, _PIN_RING, 0.7))
    else:
        got = [getattr(energy, name)(u, X) for X in _PIN_POINTS]
    assert got == POISSON_PINS[case]


@pytest.mark.parametrize("map_name", sorted(ORACLE_PINS))
def test_halfspace_oracle_pins(map_name):
    u = _pin_maps()[map_name]
    assert halfspace_dirichlet_oracle(u, n_omega=32, n_gl=8) == ORACLE_PINS[map_name]


def _full_grid_ring_density(u, centers, h, n_omega, n_gl):
    """|grad u^e|^2 on a ring with every ray sample evaluated and contracted."""
    rad = float(abs(centers[0]))
    R = u.far_radius
    breaks = [max(0.0, rad - R) / h, (rad + R) / h, math.hypot(rad, R) / h]
    t, wt = energy._kernel_panels((rad + R) / h + 3.0, extra_breaks=breaks, n_gl=n_gl)
    what = np.exp(2j * np.pi * np.arange(n_omega) / n_omega)
    pts = centers[:, None, None] + h * t[None, None, :] * what[None, :, None]
    vals = u(pts)
    base = (1.0 + t * t) ** -2.5
    proj_h = vals @ ((3.0 * t * t * base) * wt)
    gh = np.mean(proj_h * np.real(what)[None, :], axis=1)
    gh2 = np.mean(proj_h * np.imag(what)[None, :], axis=1)
    gv = np.mean(vals @ (((t * t - 2.0) * t * base) * wt), axis=1)
    dens = (np.abs(gh) ** 2 + np.abs(gh2) ** 2 + np.abs(gv) ** 2) / (h * h)
    support = ((t >= breaks[0]) & (t <= breaks[1]))[None, None, :] & (np.abs(pts) <= R)
    return dens, pts, support


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
    evaluated = np.concatenate([z.ravel() for z in seen])
    want, pts, support = _full_grid_ring_density(bump, centers, h, n_omega, n_gl)
    # u is called on the support samples only, and every other sample is 0
    np.testing.assert_array_equal(evaluated, pts[support])
    assert np.all(bump(pts[~support]) == 0)
    # the reference adds the same products plus exact zeros; BLAS may group
    # the partial sums differently when the band starts mid-vector
    assert np.all(np.abs(got - want) <= 1e-14 * np.max(want, initial=0.0))


# ------------------------------------------------------------- CSV dump


def test_write_extension_csv(tmp_path):
    u = bump_map(radius=0.5)
    path = tmp_path / "ext.csv"
    pts = [(0.0, 0.0, 0.5), (0.2, -0.1, 1.0)]
    write_extension_csv(u, str(path), pts)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "v1", "v2"]
    assert len(rows) == 3
    got = complex(float(rows[1][3]), float(rows[1][4]))
    assert abs(got - poisson_extend(u, (0.0, 0.0, 0.5))) <= 1e-9
