"""Tests for the conformal charts and their densities."""

import numpy as np
import pytest

from halfharm.conformal import (
    INF,
    cayley,
    cayley_inv,
    is_inf,
    stereo,
    stereo_density,
    stereo_inv,
)
from halfharm.errors import DomainViolation
from halfharm.quadrature import disc_rule, integrate


def test_stereo_landmarks():
    assert np.allclose(stereo(0j), [0.0, 0.0, 1.0])
    assert np.allclose(stereo(INF), [0.0, 0.0, -1.0])
    assert np.allclose(stereo(1.0 + 0j), [1.0, 0.0, 0.0])
    assert is_inf(stereo_inv(np.array([0.0, 0.0, -1.0])))
    assert stereo_inv(np.array([0.0, 0.0, 1.0])) == 0j


def test_stereo_round_trip():
    rng = np.random.default_rng(3)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    back = stereo_inv(stereo(z))
    assert np.max(np.abs(back - z)) <= 1e-12 * max(1.0, np.max(np.abs(z)))
    p = stereo(z)
    assert np.allclose(np.sum(p * p, axis=-1), 1.0, atol=1e-14)


def test_stereo_inv_rejects_off_sphere():
    with pytest.raises(DomainViolation):
        stereo_inv(np.array([0.0, 0.0, 2.0]))


def test_cayley_landmarks():
    assert cayley(INF) == 1.0 + 0.0j
    assert abs(cayley(1j)) == 0.0
    assert abs(cayley(0j) - (-1.0 + 0.0j)) <= 1e-15
    assert is_inf(cayley_inv(1.0 + 0.0j))
    assert abs(cayley_inv(0j) - 1j) <= 1e-15


def test_cayley_round_trip_and_boundary():
    rng = np.random.default_rng(5)
    w = rng.normal(size=40) + 1j * np.abs(rng.normal(size=40))
    z = cayley(w)
    assert np.max(np.abs(z)) <= 1.0 + 1e-12
    assert np.max(np.abs(cayley_inv(z) - w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))
    # the real line maps onto the unit circle
    x = rng.normal(size=40)
    assert np.max(np.abs(np.abs(cayley(x + 0j)) - 1.0)) <= 1e-12


def test_cayley_rejects_lower_half_plane():
    with pytest.raises(DomainViolation):
        cayley(0.5 - 1e-3j)
    with pytest.raises(DomainViolation):
        cayley_inv(1.5 + 0j)


def _fd_frame(m, z, h):
    """Finite-difference partials of a plane-to-R^k map at z."""
    dx = (np.asarray(m(z + h)) - np.asarray(m(z - h))) / (2 * h)
    dy = (np.asarray(m(z + 1j * h)) - np.asarray(m(z - 1j * h))) / (2 * h)
    return dx, dy


@pytest.mark.parametrize("point", [0.2 + 0.1j, -1.5 + 2.0j, 3.0 + 0.5j, 0.01 + 4.0j])
def test_conformality_by_finite_differences(point):
    h = 1e-6 * max(1.0, abs(point))
    # sphere chart: isotropic differential with orthogonal partials
    dx, dy = _fd_frame(stereo, point, h)
    assert abs(np.dot(dx, dy)) <= 1e-4 * np.dot(dx, dx)
    assert abs(np.dot(dx, dx) - np.dot(dy, dy)) <= 1e-4 * np.dot(dx, dx)
    # the isotropic scale squared is the area density
    assert abs(np.dot(dx, dx) - stereo_density(point)) <= 1e-4 * stereo_density(point)
    # disc chart: Cauchy-Riemann for the holomorphic map
    w = point  # upper half-plane sample
    d_re = (cayley(w + h) - cayley(w - h)) / (2 * h)
    d_im = (cayley(w + 1j * h) - cayley(w - 1j * h)) / (2 * h)
    assert abs(d_re - d_im / 1j) <= 1e-4 * abs(d_re)


def test_push_forward_consistency_sphere():
    # the conformal disc covers the upper hemisphere: area 2*pi
    rule = disc_rule(64, 32)
    area = integrate(rule, lambda z: stereo_density(z))
    assert abs(area - 2 * np.pi) <= 1e-10
    # height-coordinate moment again, now through the chart: pi
    val = integrate(rule, lambda z: stereo(z)[:, 2] * stereo_density(z))
    assert abs(val - np.pi) <= 1e-10


def test_infinity_sentinel_density_limits():
    assert stereo_density(INF) == 0.0
