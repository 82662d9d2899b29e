"""Tests for the competitor families, their profiles and radial kernels."""

import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfharm.blaschke import BlaschkeProduct
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
from halfharm.errors import InvalidArgument, PreconditionViolation

# a one-zero base for the zero-pulling family (degree 2 after the pull) and
# a two-zero product for the unwinding family
ONE_ZERO = BlaschkeProduct(theta=0.4, zeros=(0.3 + 0.2j,))
TWO_ZERO = BlaschkeProduct(theta=1.1, zeros=(0.25 - 0.1j, -0.4 + 0.35j))

# Exact pins, recorded before the graded disc rule was rebuilt on the shared
# Gauss-panel helper: (total, radial total, chain value) per collar width of
# the default sweep (0.05, 0.1, 0.2), and kernel values at fixed arguments.
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
                    17.244916466593207, 56.4195105674788)

# SHA-256 of repr(report) for every report of the two pinned sweeps (shells,
# windings and notes included), and the exact grid energies of the 2% tests;
# recorded before the two families shared one report builder.  The unwinding
# digests were re-recorded when GAMMA_1 became math.gamma's: only the
# shell-check value printed in each report's notes moved.
SWEEP_DIGESTS = {
    "zero_pull": ("7e7e37d616810150a94ab7245169cf682037f8fa654e0c487802220a66d39dc7",
                  "a4d9ea9e35952a307d31a48ef06593463b1e40669f02e523ade43679b69d7e02",
                  "0047908259ec7b8975c505d303c83761d9edd6c300f4ddad789d53eb1a75c6c1"),
    "unwinding": ("21ed33116a68062ff9d5dc1fb886891b62fd3f2eb3229115c7b7d54a12712424",
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


def test_epsilon_sweep_rejects_unknown_family():
    with pytest.raises(InvalidArgument):
        epsilon_sweep(ONE_ZERO, "rewinding")


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


@settings(max_examples=30, deadline=None)
@given(
    delta=st.sampled_from((0.2, 1.0 / 3.0, 0.5)),
    amplitude=st.floats(0.01, 0.15),
    k=st.integers(1, 3),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_perturbed_optimal_profile_costs_more(delta, amplitude, k, sign):
    # a bump vanishing at both ends keeps the endpoints delta and 1; it is
    # damped where the profile is within 0.1 of 1, so the samples stay in range
    base, energy = _optimal_energy(delta)
    t = np.linspace(0.0, 1.0, PROFILE_GRID_SIZE)
    damp = np.minimum(1.0, (1.0 - base.values) / 0.1)
    bump = sign * amplitude * np.sin(k * math.pi * t) * t * (1.0 - t) * damp
    perturbed = Profile(np.clip(base.values + bump, 0.0, 1.0))
    assert profile_energy(perturbed) > energy


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
