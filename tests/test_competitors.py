"""Tests for the competitor families, their profiles and radial kernels."""

import math

import numpy as np
import pytest

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


def test_epsilon_sweep_pins():
    zp = epsilon_sweep(ONE_ZERO, "zero_pull")
    uw = epsilon_sweep(TWO_ZERO, "unwinding")
    assert tuple((r.total, r.radial_total, r.chain_value) for r in zp) == ZERO_PULL_SWEEP
    assert tuple((r.total, r.radial_total, r.chain_value) for r in uw) == UNWINDING_SWEEP


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


def test_zero_pull_grid_energy_within_two_percent():
    beta = zero_pull_profile(1.0 / 3.0, 0.1)
    total = zero_pull_family_energy(ONE_ZERO, beta, 0.1).total
    assert abs(zero_pull_grid_energy(ONE_ZERO, beta, 0.1) - total) <= 0.02 * total


def test_unwinding_grid_energy_within_two_percent():
    family = UnwindingFamily(TWO_ZERO, unwinding_profile(0.1), 0.1)
    total = unwinding_family_energy(family).total
    assert abs(unwinding_grid_energy(family) - total) <= 0.02 * total


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
