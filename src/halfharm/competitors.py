"""Competitor maps on the upper half-ball built from a degree-d boundary map.

Two explicit families trade boundary winding against a radial transition
cost.  The zero-pulling family multiplies a (d-1)-factor Blaschke product by
a moving Moebius factor whose zero slides out to the rim as the radius drops
to a collar width eps, so the shell winding drops from d to d-1.  The
unwinding family post-composes a d-factor product with a Moebius map of the
disc that interpolates between the identity and the constant 1, so the map
is fully unwound on the inner collar.  For both, the Dirichlet energy of
the resulting half-ball map splits into an exact per-shell tangential part
plus a radial part weighted by the square of a one-dimensional profile
derivative; this module supplies the profile calculus (rewinding budget,
optimal profiles, profile energies), the per-family energy reports with
shell tables, and an independent 3-D finite-difference energy on a graded
spherical grid for cross-checking the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, CircleSample, eval_product, winding_number
from .certificates import _check_range, _F_arr
from .energy import circle_energy_numeric
from .errors import (
    DomainViolation,
    InvalidArgument,
    NumericalFailure,
    PreconditionViolation,
)
from .quadrature import (
    Tolerance,
    _leggauss,
    _panel_rule,
    adaptive_integrate,
    ensure_converged,
)

__all__ = [
    "Profile",
    "UnwindingFamily",
    "FamilyReport",
    "G_of",
    "optimal_profile",
    "profile_energy",
    "zero_pull_family_energy",
    "unwinding_family_energy",
    "zero_pull_profile",
    "unwinding_profile",
    "radial_kernel_zero_pull",
    "radial_kernel_unwinding",
    "zero_pull_grid_energy",
    "unwinding_grid_energy",
    "epsilon_sweep",
]

PROFILE_GRID_SIZE = 1024
_PROFILE_GRID = np.linspace(0.0, 1.0, PROFILE_GRID_SIZE)
_PROFILE_GRID.setflags(write=False)

# Kernel tables are splines in xi = -log(1 - x); beyond this cap the kernels
# are nearly affine in xi and are extended linearly (within 7e-6 relative of
# the disc rule at xi = 20.7 on the products measured).
#
# The 48 knots are graded toward xi = 0, spacing 0.039 there and 1.19 at the
# cap: a cubic spline's error goes as h^4 times the fourth derivative, and
# the kernels' fourth derivative gathers at small xi.  Against direct
# evaluations of the same disc rule between knots, the worst relative error
# measured is 3e-7 to 1.5e-6, near xi = 0.02 (128 uniform knots: 2e-5 to
# 1e-4, near xi = 0.03); at m = 0.999 it is up to 1.8e-7.  This grading
# keeps the spline bit-identical to scipy's CubicSpline; a u^2 grading does
# not, as LAPACK's tridiagonal solve then pivots on its first rows.  The
# knots use math.expm1: numpy's expm1 would add about 0.2 MB of RSS to every
# import of the package.
_XI_CAP = math.log(1e7)
_XI_KNOTS = np.array([_XI_CAP * math.expm1(3.5 * k / 47) / math.expm1(3.5) for k in range(47)]
                     + [_XI_CAP])
_XI_KNOTS.setflags(write=False)
# Radial rows per block of a table build: the integrand temporaries of one
# block (8 rows by at most ~4,100 angles) stay in L2 cache.  A multiple of 4,
# so every row of a full block takes the same path through the BLAS gemv.
_XI_ROW_BLOCK = 8

_QUAD_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_refinements=600)


# ---------------------------------------------------------------------------
# cubic splines


class _Spline:
    """A piecewise polynomial in scipy's PPoly layout: on cell i, between
    knots x[i] and x[i+1], it is sum_j c[j, i] * (t - x[i])**(k - j) for
    k + 1 coefficient rows.  Points outside the knots use the end cells.

    Built by not_a_knot on the two grids used here (1,024 uniform profile
    knots, 48 xi knots graded toward xi = 0), it equals
    scipy.interpolate.CubicSpline(x, y) bit for bit, as the tests check: the
    same slopes, coefficients and derivative coefficients, and values summed
    in PPoly's order, c[k] + c[k-1]*s + c[k-2]*s**2 + ..., with the powers of
    s built by repeated multiplication.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray) -> None:
        self.x = x
        self.c = c
        # one row per cell: its left knot, then its coefficients; PPoly starts
        # its sum from 0.0, so a constant term -0.0 counts as 0.0
        self._rows = np.column_stack([x[:-1], c.T])
        self._rows[:, -1] += 0.0
        self._inner = x[1:-1]

    @classmethod
    def not_a_knot(cls, x: np.ndarray, y: np.ndarray) -> "_Spline":
        """The C^2 cubic interpolant of y at the n >= 4 increasing knots x
        whose third derivative is continuous at x[1] and x[-2].  Its slopes
        solve CubicSpline's tridiagonal system, set up row by row as there,
        by one forward and one backward sweep (Thomas) over plain floats."""
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0 = x[2] - x[0]
        d1 = x[-1] - x[-3]
        rhs = np.empty(len(x))
        rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        h = dx.tolist()
        b = rhs.tolist()
        n = len(b)
        diag = [h[1]] + [2 * (h[i - 1] + h[i]) for i in range(1, n - 1)] + [h[-2]]
        upper = [float(d0)] + h[:-1]
        lower = [0.0] + h[1:] + [float(d1)]
        for i in range(1, n):
            m = lower[i] / diag[i - 1]
            diag[i] -= m * upper[i - 1]
            b[i] -= m * b[i - 1]
        b[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
        s = np.array(b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))

    def __call__(self, t):
        """Values at t (any shape): one gather of the cells' rows, then the
        sum over the powers of the offset from each cell's left knot."""
        t = np.asarray(t, dtype=float)
        rows = self._rows[np.searchsorted(self._inner, t, side="right")]
        s = t - rows[..., 0]
        out = rows[..., -2] * s
        out += rows[..., -1]
        z = s
        for j in range(self.c.shape[0] - 3, -1, -1):
            z = z * s
            out += rows[..., j + 1] * z
        return out

    def derivative(self) -> "_Spline":
        k = self.c.shape[0] - 1
        return _Spline(self.x, self.c[:-1] * np.arange(k, 0, -1.0)[:, None])

    def roots(self) -> np.ndarray:
        """Distinct real roots, ascending, of a piecewise quadratic (the
        derivative of a cubic spline) that lie in their own closed cells.

        Each cell's quadratic a*s^2 + b*s + c is solved in closed form, as
        q/a and c/q with q = -(b + sign(b)*sqrt(b^2 - 4ac))/2, which does not
        cancel; a line has its one root, and a cell on which the quadratic
        vanishes identically has none.
        """
        a, b, c = self.c
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - 4.0 * a * c
            q = -0.5 * (b + np.copysign(np.sqrt(disc), b))  # NaN if disc < 0
            first = np.where(a == 0, -c / b, q / a)
            second = np.where(a == 0, np.nan, c / q)
        cells = np.concatenate([first, second])
        left = np.tile(self.x[:-1], 2)
        width = np.tile(np.diff(self.x), 2)
        inside = (cells >= 0.0) & (cells <= width)  # NaN fails both
        return np.unique(left[inside] + cells[inside])


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True, eq=False)
class Profile:
    """A C^1 function [0,1] -> [0,1]: the cubic interpolant of 1024 uniform samples.

    Samples are validated to lie in [0,1] (tolerance 1e-9, then clipped
    exactly).  Between samples the interpolant may overshoot the range by the
    representation tolerance (~1e-8 for the profiles used here); consumers
    that feed the values into divergent kernels clamp accordingly.  The
    interpolant is the not-a-knot cubic spline `_Spline`, equal bit for bit
    to scipy's CubicSpline of the samples.
    """

    values: np.ndarray
    _spline: _Spline = field(init=False, repr=False)
    _spline_d: _Spline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (PROFILE_GRID_SIZE,):
            raise InvalidArgument(f"a profile needs exactly {PROFILE_GRID_SIZE} samples")
        if not np.all(np.isfinite(vals)):
            raise InvalidArgument("profile samples must be finite")
        if float(vals.min()) < -1e-9 or float(vals.max()) > 1.0 + 1e-9:
            raise InvalidArgument("profile range must lie in [0, 1] (tolerance 1e-9)")
        vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        spline = _Spline.not_a_knot(_PROFILE_GRID, vals)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_spline_d", spline.derivative())

    @classmethod
    def from_function(cls, f) -> "Profile":
        """Sample a vectorized callable on the uniform grid in one call."""
        return cls(f(_PROFILE_GRID))

    @classmethod
    def constant(cls, c: float) -> "Profile":
        return cls(np.full(PROFILE_GRID_SIZE, float(c)))

    @property
    def derivative_samples(self) -> np.ndarray:
        return self._spline_d(_PROFILE_GRID)

    def _check_domain(self, r):
        rr = np.asarray(r, dtype=float)
        if not np.all((rr >= -1e-12) & (rr <= 1.0 + 1e-12)):  # NaN fails both
            raise DomainViolation("profile argument must lie in [0, 1]")
        return np.clip(rr, 0.0, 1.0)

    def __call__(self, r):
        rr = self._check_domain(r)
        out = self._spline(rr)
        return float(out) if np.ndim(r) == 0 else np.asarray(out, dtype=float)

    def derivative(self, r):
        rr = self._check_domain(r)
        out = self._spline_d(rr)
        return float(out) if np.ndim(r) == 0 else np.asarray(out, dtype=float)


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


# the share of (eps, 1] over which zero_pull_profile descends to delta
_RAMP_FRACTION = 0.8


def zero_pull_profile(delta: float, eps: float = 0.1) -> Profile:
    """Admissible zero-pulling profile: 1 on [0, eps], easing down to delta.

    The descent occupies the first _RAMP_FRACTION of (eps, 1] and the value
    stays at delta afterwards, so the profile is constant near both ends.
    """
    delta = _check_range(delta, "delta", 0.0, 1.0, open_hi=False)
    eps = _check_range(eps, "eps", 0.0, 1.0, open_lo=True)

    def f(r):
        u = np.clip((np.asarray(r, float) - eps) / (1.0 - eps), 0.0, 1.0)
        return delta + (1.0 - delta) * (1.0 - _smoothstep(u / _RAMP_FRACTION))

    return Profile.from_function(f)


def unwinding_profile(eps: float = 0.1) -> Profile:
    """Admissible unwinding profile: 0 on [0, eps], easing up to 1 at r = 1."""
    eps = _check_range(eps, "eps", 0.0, 1.0, open_lo=True)

    def f(r):
        u = np.clip((np.asarray(r, float) - eps) / (1.0 - eps), 0.0, 1.0)
        return _smoothstep(u)

    return Profile.from_function(f)


# ---------------------------------------------------------------------------
# rewinding budget and optimal profiles

_BUDGET_GRID_N = 4096


def _rewind_speed(t):
    """sqrt(F(t^2)), the pointwise cost rate of moving the modulus past t."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(_F_arr(np.minimum(t, 1.0 - 1e-16) ** 2))


@lru_cache(maxsize=1)
def _budget_tables() -> tuple[np.ndarray, np.ndarray]:
    """(s_grid, prefix): cumulative integral of sqrt(F(t^2)) on a 4096 grid.

    Each interval uses 15-point Gauss; the last one (integrable square-root-log
    endpoint) is redone adaptively with grading toward 1.
    """
    s_grid = np.linspace(0.0, 1.0, _BUDGET_GRID_N + 1)
    _, gw = _leggauss(15)
    nodes, _ = _panel_rule(s_grid, 15)
    vals = _rewind_speed(nodes).reshape(_BUDGET_GRID_N, 15)
    incr = (vals @ gw) * (0.5 * np.diff(s_grid))
    last = adaptive_integrate(
        _rewind_speed, s_grid[-2], 1.0, Tolerance(1e-13, 1e-13, 120), singular=(1.0,)
    )
    incr[-1] = ensure_converged(last, "rewinding budget on the last grid interval")
    prefix = np.concatenate([[0.0], np.cumsum(incr)])
    s_grid.setflags(write=False)
    prefix.setflags(write=False)
    return s_grid, prefix


def _budget_partial_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized budget: prefix value plus a 2-point Gauss remainder."""
    s_grid, prefix = _budget_tables()
    x = np.asarray(x, dtype=float)
    k = np.clip((x * _BUDGET_GRID_N).astype(int), 0, _BUDGET_GRID_N - 1)
    lo = s_grid[k]
    half = 0.5 * (x - lo)
    mid = 0.5 * (x + lo)
    off = half / math.sqrt(3.0)
    rem = half * (_rewind_speed(mid - off) + _rewind_speed(mid + off))
    return prefix[k] + rem


def G_of(s: float) -> float:
    """Cumulative rewinding budget int_0^s sqrt(F(t^2)) dt.

    Strictly increasing, G(0) = 0, and sqrt(2) * (G(1) - G(delta)) equals
    delta_certificate(delta).  Values come from a cached 4096-interval prefix
    table plus an adaptive remainder, so repeated calls are cheap.
    """
    s = _check_range(s, "s", 0.0, 1.0, open_hi=False)
    s_grid, prefix = _budget_tables()
    if s == 1.0:
        return float(prefix[-1])
    k = min(int(s * _BUDGET_GRID_N), _BUDGET_GRID_N - 1)
    base = float(prefix[k])
    if s > s_grid[k]:
        rem = adaptive_integrate(_rewind_speed, float(s_grid[k]), s, Tolerance(1e-13, 1e-13, 80))
        base += ensure_converged(rem, "rewinding budget remainder")
    return base


def optimal_profile(delta: float) -> Profile:
    """The least-energy profile rising from delta at t = 0 to 1 at t = 1.

    Equal parameter increments consume equal increments of the rewinding
    budget, which makes profile_energy equal 2*(G(1) - G(delta))^2 up to the
    representation error.  delta = 1 returns the constant profile (no motion,
    zero energy).  Raises NumericalFailure if the budget inversion does not
    reach its residual target.
    """
    delta = _check_range(delta, "delta", 0.0, 1.0, open_hi=False)
    if delta == 1.0:
        return Profile.constant(1.0)
    s_grid, prefix = _budget_tables()
    g1 = float(prefix[-1])
    gd = G_of(delta)
    t = _PROFILE_GRID
    y = g1 * t + gd * (1.0 - t)
    x = np.interp(y, prefix, s_grid)
    for _ in range(6):
        x = np.clip(x - (_budget_partial_vec(x) - y) / _rewind_speed(x), 0.0, 1.0)
    # In the one grid interval touching 1 the integrand has divergent
    # derivatives and the vectorized two-point remainder is too coarse, so
    # rows landing there are polished against the adaptive scalar budget.
    hard = np.where(x >= s_grid[-2])[0]
    for i in hard:
        xi = float(x[i])
        for _ in range(4):
            xi = min(max(xi - (G_of(xi) - y[i]) / float(_rewind_speed(xi)), 0.0), 1.0)
        x[i] = xi
    resid = np.abs(_budget_partial_vec(x) - y)
    for i in hard:
        resid[i] = abs(G_of(float(x[i])) - y[i])
    worst = float(np.max(resid))
    if worst > 1e-7 * max(1.0, g1):
        raise NumericalFailure(f"budget inversion residual {worst:.3e} exceeds target")
    x[0] = delta
    x[-1] = 1.0
    return Profile(x)


def profile_energy(gamma: Profile) -> float:
    """Transition energy 2 * int_0^1 F(gamma^2) |gamma'|^2 dt of a profile.

    The integrand diverges logarithmically where the profile reaches 1; that
    is integrable at the endpoints (the quadrature grades toward them) but
    not at an interior point approached with nonzero slope, which raises
    DomainViolation.  Plateaus at 1 contribute nothing.
    """
    if not isinstance(gamma, Profile):
        raise InvalidArgument("profile_energy expects a Profile")
    vals = gamma.values
    dervs = gamma.derivative_samples
    hot = (vals[1:-1] >= 1.0 - 1e-12) & (np.abs(dervs[1:-1]) > 1e-6)
    if np.any(hot):
        idx = 1 + int(np.argmax(hot))
        raise DomainViolation(
            f"profile reaches 1 at interior t = {_PROFILE_GRID[idx]:.6f} with nonzero "
            "slope; the transition-energy integrand diverges there"
        )

    def f(t):
        g = np.clip(gamma(t), 0.0, 1.0 - 1e-16)
        gp = gamma.derivative(t)
        return 2.0 * _F_arr(g * g) * gp * gp

    res = adaptive_integrate(f, 0.0, 1.0, _QUAD_TOL, singular=(0.0, 1.0))
    return ensure_converged(res, "profile transition energy")


# ---------------------------------------------------------------------------
# graded polar quadrature on the unit disc and the two radial kernels


# Gauss nodes per panel and dyadic grading levels of the graded disc rule
# (the depth is argued in _disc_rule_graded).
_GRADED_GL = 7
_GRADED_LEVELS = 35


def _graded_edges(a: float, b: float) -> list[float]:
    """Panel edges on [a, b], graded geometrically toward both endpoints
    within min(0.01, (b - a)/2) of each, and at most 0.025 apart between."""
    span = b - a
    w = min(1e-2, span / 2)
    left = [a + w * 2.0 ** (-k) for k in range(_GRADED_LEVELS, -1, -1)]
    right = [b - w * 2.0 ** (-k) for k in range(_GRADED_LEVELS, -1, -1)][::-1]
    inner_lo, inner_hi = a + w, b - w
    n_mid = max(1, int(np.ceil((inner_hi - inner_lo) / 0.025)))
    mid = list(np.linspace(inner_lo, inner_hi, n_mid + 1))
    return sorted(set([a] + left + mid[1:-1] + right + [b]))


def _disc_rule_graded(crit_angles: tuple[float, ...]):
    """Polar tensor rule (rho, s, rw, phi, pw) on the unit disc.

    Radial panels are built in s = 1 - rho (kept exact near the rim, graded
    geometrically toward s = 0); angular panels cover the segments between
    consecutive critical angles, graded toward each.  Gauss(7) per panel.

    The grading stops _GRADED_LEVELS = 35 halvings deep: at 0.01 * 2^-35
    (3e-13) rad and 2^-35 (3e-11) in s.  The narrowest feature a kernel
    table reaches is about 1 - m = 1e-7 wide, at its cap, so the innermost
    panels sit more than three decades below it and deeper ones add only
    rounding.  Against tables built 41 levels deep (measured on the
    one-zero, two-zero and near-rim products of the tests, both families),
    the knot values, end values and end slopes drift by at most 1.5e-13
    relative at 35 levels, and the kernel and sweep values the tests pin by
    at most 6.7e-15.  Shallower depths drift more: the near-rim unwinding
    table's end slope by 1.4e-12 at 32 levels and 9e-12 at 28, and the
    pinned unwinding kernel at m = 1 - 1e-9 by 2.6e-14 at 33 and 34.
    """
    angs = sorted(a % (2.0 * math.pi) for a in crit_angles) or [0.0]
    segs = []
    for i, a in enumerate(angs):
        b = angs[(i + 1) % len(angs)]
        if i + 1 == len(angs):
            b += 2.0 * math.pi
        if b > a:
            segs.append((a, b))
    phi_nodes, phi_w = zip(*(_panel_rule(_graded_edges(a, b), _GRADED_GL) for a, b in segs))
    phi = np.concatenate(phi_nodes)
    pw = np.concatenate(phi_w)
    sedges = [0.0] + [2.0 ** (-k) for k in range(_GRADED_LEVELS, 0, -1)] + [0.625, 0.75, 0.875, 1.0]
    s, sw = _panel_rule(sedges, _GRADED_GL)
    return 1.0 - s, s, sw, phi, pw


def _pm_one_preimages(product: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """Boundary preimages of +1 and -1 of the (un-conjugated) product.

    Solves rotation * prod(z - a_j) = +/- prod(1 - conj(a_j) z) as degree-d
    polynomial root problems; every root lies on the unit circle, and a root
    found more than 1e-8 off it raises NumericalFailure.  Returned sorted by
    angle.
    """
    p = np.array([1.0 + 0.0j])
    q = np.array([1.0 + 0.0j])
    for a in product.zeros:
        p = np.convolve(p, np.array([1.0, -a]))
        q = np.convolve(q, np.array([-np.conj(a), 1.0]))
    p = p * np.exp(1j * product.theta)
    plus = np.roots(p - q)
    minus = np.roots(p + q)
    drift = float(np.max(np.abs(np.abs(np.concatenate([plus, minus])) - 1.0), initial=0.0))
    if drift > 1e-8:
        raise NumericalFailure(f"boundary preimages drifted {drift:.2e} off the unit circle")
    return plus[np.argsort(np.angle(plus))], minus[np.argsort(np.angle(minus))]


def _zero_pull_rule_angles(w_tilde: BlaschkeProduct) -> tuple[float, ...]:
    """Angles needing angular grading: the rim collapse point of the moving
    zero (angle 0) plus directions of any base zeros close to the rim."""
    angles = [0.0]
    angles += [float(np.angle(a)) for a in w_tilde.zeros if abs(a) >= 0.3]
    return tuple(sorted({a % (2.0 * math.pi) for a in angles}))


def _unwinding_rule_angles(w: BlaschkeProduct) -> tuple[float, ...]:
    """Angles needing angular grading: the boundary preimages of +/-1 of w,
    where the unwinding integrand peaks as the mixing parameter goes to 1."""
    plus, minus = _pm_one_preimages(w)
    return tuple(sorted({float(np.angle(r)) % (2.0 * math.pi)
                         for r in np.concatenate([plus, minus])}))


def _xi_table(rule, block):
    """Spline in xi = -log(1-p) on the knots _XI_KNOTS over [0, _XI_CAP] of
    the disc integral of top / den(p) under the polar rule, with the end
    value and end slope that continue it linearly beyond the cap.  The knots
    are graded toward xi = 0, where the spline error gathers; measured
    against direct evaluations of the same rule at every mid-interval, the
    worst relative error is 3e-7 to 1.5e-6 on the products tested.

    The table is built one block of radial rows at a time: block(rows), for
    a slice of rows, returns that block's numerator `top` and a function
    den(p) giving its denominator.  The integrand inputs therefore never
    exist on the full grid (up to 273 x 3,773 points, 8-16 MB per array).
    Blocks are _XI_ROW_BLOCK rows, the last one possibly shorter, and the
    working set is a few arrays of one block, 8 rows by the rule's angles
    (241 KB per real array at 3,773 angles): tracemalloc reads a peak of
    2.0 MB for the zero-pulling and 3.6 MB for the unwinding build of the
    `fields` benchmark's seed-3 products, rule included.  The block bounds
    it, not the grid.

    The angular contraction runs per block, over all xi knots, and each knot
    value is one dot of its row sums with the radial weights.  The values do
    not depend on the BLAS thread count: a full-grid gemv is split among
    threads at row offsets that change which rows take the kernel's
    remainder path, while an 8-row gemv (and the final partial block) runs
    every row through the same path; checked bit for bit on 1 to 4 OpenBLAS
    threads, where it equals the full-grid gemv on one thread.

    The spline is the not-a-knot `_Spline` of the knot values.
    """
    _, _, rw, _, pw = rule
    n_rows = len(rw)
    ps = [-math.expm1(-x) for x in _XI_KNOTS]
    rows_by_node = np.empty((len(_XI_KNOTS), n_rows))
    for lo in range(0, n_rows, _XI_ROW_BLOCK):
        rows = slice(lo, lo + _XI_ROW_BLOCK)
        top, den = block(rows)
        for k, p in enumerate(ps):
            q = den(p)
            np.divide(top, q, out=q)
            rows_by_node[k, rows] = q @ pw
    vals = np.array([float(row @ rw) for row in rows_by_node])
    spline = _Spline.not_a_knot(_XI_KNOTS, vals)
    return spline, float(vals[-1]), float(spline.derivative()(_XI_CAP))


@lru_cache(maxsize=8)
def _zero_pull_kernel_table(w_tilde: BlaschkeProduct):
    """xi-spline of the zero-pulling radial kernel of a base product.

    The kernel at pull parameter b is the disc integral of
    |w~(z)|^2 * ((1+|z|^2)^2 - 4*Re(z)^2) / (|1 - b z|^4 (1+|z|^2)^2),
    evaluated through a cancellation-free factorization (exact in s = 1-rho
    and half-angle variables) so it stays accurate as b -> 1.  Returns
    (spline in xi = -log(1-b), end value, end slope) for the linear tail.
    The integrand is formed per row block of _xi_table, which bounds the
    build's working set; the values equal those of a full-grid build bit
    for bit.
    """
    rule = _disc_rule_graded(_zero_pull_rule_angles(w_tilde))
    rho, s, _, phi, _ = rule
    sin2h = np.sin(phi / 2.0)[None, :] ** 2
    cos2h = np.cos(phi / 2.0)[None, :] ** 2
    sinp = np.sin(phi)[None, :]
    rim = np.exp(1j * phi[None, :])

    def block(rows: slice):
        R = rho[rows, None]
        S = s[rows, None]
        w2 = np.abs(eval_product(w_tilde, R * rim)) ** 2
        num = (S * S + 4.0 * R * sin2h) * (S * S + 4.0 * R * cos2h)
        top = w2 * num / (1.0 + R * R) ** 2 * R

        def den(b: float) -> np.ndarray:
            # ((1-b + b*s) + 2b*rho*sin^2(phi/2))^2 + (b*rho*sin(phi))^2,
            # squared; in place, with the same roundings as the expression
            re = 2.0 * b * R * sin2h
            re += 1.0 - b + b * S
            im = b * R * sinp
            re *= re
            im *= im
            re += im
            re *= re
            return re

        return top, den

    return _xi_table(rule, block)


@lru_cache(maxsize=8)
def _unwinding_kernel_table(w: BlaschkeProduct):
    """xi-spline of the unwinding radial kernel of a d-factor product.

    The kernel at mixing parameter m is the disc integral of
    |1 - w(z)^2|^2 / (|1 + m w(z)|^4 (1+|z|^2)^2); the mesh is graded toward
    the boundary preimages of +/-1 where the integrand peaks as m -> 1.
    Returns (spline in xi = -log(1-m), end value, end slope).  w(z) and the
    numerator are formed per row block of _xi_table, which bounds the
    build's working set; the values equal those of a full-grid build bit
    for bit.
    """
    rule = _disc_rule_graded(_unwinding_rule_angles(w))
    rho, _, _, phi, _ = rule
    rim = np.exp(1j * phi[None, :])

    def block(rows: slice):
        R = rho[rows, None]
        wv = eval_product(w, R * rim)
        top = np.abs(1.0 - wv * wv) ** 2 / (1.0 + R * R) ** 2 * R
        wre = np.ascontiguousarray(wv.real)
        wim = np.ascontiguousarray(wv.imag)

        def den(m: float) -> np.ndarray:
            # ((1 + m*Re w)^2 + (m*Im w)^2)^2 in place, with the same roundings
            q = m * wre
            q += 1.0
            q *= q
            t = m * wim
            t *= t
            q += t
            q *= q
            return q

        return top, den

    return _xi_table(rule, block)


def _table_eval(table, x):
    spline, v_end, s_end = table
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0 - 1e-16)
    xi = -np.log1p(-arr)
    out = np.asarray(spline(np.minimum(xi, _XI_CAP)), dtype=float)
    out = np.where(xi > _XI_CAP, v_end + s_end * (xi - _XI_CAP), out)
    return float(out) if np.ndim(x) == 0 else out


def _kernel_argument(x, name: str):
    """x unchanged if every entry lies in [0, 1]; NaN or any other value raises."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise InvalidArgument(f"{name} must lie in [0, 1], got {x!r}")
    return x


def radial_kernel_zero_pull(w_tilde: BlaschkeProduct, b):
    """Radial-energy kernel of the zero-pulling family at pull parameter b.

    Multiplies beta'(r)^2 in the radial energy density; bounded above by
    pi * F(b^2) because |w~| <= 1 on the disc.  Vectorized in b over [0, 1];
    values past the cached table range follow the linear large-argument law
    in -log(1-b).  Raises InvalidArgument for NaN or b outside [0, 1].
    """
    b = _kernel_argument(b, "pull parameter b")
    return _table_eval(_zero_pull_kernel_table(w_tilde), b)


def radial_kernel_unwinding(w: BlaschkeProduct, m):
    """Radial-energy kernel of the unwinding family at mixing parameter m.

    Multiplies m'(r)^2 in the radial energy density.  Vectorized in m over
    [0, 1]; diverges logarithmically in -log(1-m) as m -> 1, which the
    linear tail of the cached table reproduces.  Raises InvalidArgument for
    NaN or m outside [0, 1], and for a product UnwindingFamily refuses:
    conjugated, or of degree below 2 (a degree-1 table was measured about
    26 times less accurate than any degree >= 2 one).
    """
    if w.conjugated or w.zero_count < 2:
        raise InvalidArgument("the unwinding kernel needs an un-conjugated product with d >= 2")
    m = _kernel_argument(m, "mixing parameter m")
    return _table_eval(_unwinding_kernel_table(w), m)


# ---------------------------------------------------------------------------
# the unwinding family


@dataclass(frozen=True, eq=False)
class UnwindingFamily:
    """A d-factor product with a profile that unwinds it across a collar.

    Shell map: hat_w(z, r) = (w(z) + m(r)) / (1 + m(r) w(z)) with mixing
    m = (1 - theta) / (1 + theta); m = 0 leaves w unchanged and m = 1 gives
    the constant map 1.
    """

    w: BlaschkeProduct
    theta: Profile
    eps: float = 0.1

    def __post_init__(self) -> None:
        if self.w.conjugated or self.w.zero_count < 2:
            raise InvalidArgument("the unwinding family needs an un-conjugated product with d >= 2")
        if not isinstance(self.theta, Profile):
            raise InvalidArgument("theta must be a Profile")
        _check_range(self.eps, "eps", 0.0, 1.0, open_lo=True)
        object.__setattr__(self, "eps", float(self.eps))
        if abs(self.theta(1.0) - 1.0) > 1e-9:
            raise PreconditionViolation("unwinding profile must end at theta(1) = 1")

    @property
    def degree(self) -> int:
        return self.w.zero_count

    def mixing(self, r):
        """m(r) = (1 - theta(r)) / (1 + theta(r)) in [0, 1]."""
        th = self.theta(r)
        return (1.0 - th) / (1.0 + th)

    def shell_map(self, r: float) -> CircleSample:
        """Boundary trace of the shell map at radius r, 4096 uniform samples.

        Mixing values within 1e-12 of 1 snap to the constant map: the true
        trace is then within that distance of constant 1 in sup norm but its
        microscopic winding structure is not resolvable at any finite n.
        """
        ang = 2.0 * math.pi * np.arange(4096) / 4096
        zc = np.exp(1j * ang)
        m = float(self.mixing(r))
        if m >= 1.0 - 1e-12:
            vals = np.ones_like(zc)
        else:
            wv = eval_product(self.w, zc)
            vals = (wv + m) / (1.0 + m * wv)
        return CircleSample(vals, unit_tolerance=1e-10)


# ---------------------------------------------------------------------------
# family energy reports


@dataclass(frozen=True)
class FamilyReport:
    """Energy decomposition of one competitor family on the half-ball.

    shells holds (r, tangential shell energy, radial energy density) rows;
    windings holds (r, boundary winding of the shell map).  total compares
    against threshold = pi * degree, the energy of the degree-d homogeneous
    map; notes record the measured relation without asserting a sign.
    """

    family: str
    degree: int
    epsilon: float
    tangential_total: float
    radial_total: float
    total: float
    threshold: float
    shells: tuple[tuple[float, float, float], ...]
    windings: tuple[tuple[float, int], ...]
    radial_bound: float | None = None
    bound_satisfied: bool | None = None
    chain_value: float | None = None
    chain_constant: float | None = None
    notes: tuple[str, ...] = ()


def _family_report(family: str, d: int, eps: float, tangential_total: float, radial: float,
                   shell, notes, **extra) -> FamilyReport:
    """FamilyReport tabulating shell(r) = (tangential energy, radial density,
    winding) on 40 radii plus eps; the total-vs-threshold note goes last."""
    total = tangential_total + radial
    threshold = math.pi * d
    notes = (*notes, f"measured total {total:.10f} vs degree threshold {threshold:.10f} "
                     f"(difference {total - threshold:+.6e})")
    radii = np.unique(np.concatenate([np.linspace(0.025, 1.0, 40), [eps]]))
    rows = [(float(r), *shell(float(r))) for r in radii]
    return FamilyReport(
        family=family,
        degree=d,
        epsilon=eps,
        tangential_total=tangential_total,
        radial_total=radial,
        total=total,
        threshold=threshold,
        shells=tuple((r, tang, rad) for r, tang, rad, _ in rows),
        windings=tuple((r, wind) for r, _, _, wind in rows),
        notes=notes,
        **extra,
    )


# Largest departure from 1 allowed to the interpolant of a zero-pulling
# profile on its collar [0, eps].  The cubic spline bridges a jump of the
# profile's slope or curvature at eps across the neighbouring cells, so even
# exact samples leave it off 1 inside the collar: the stock profiles (a
# curvature jump) by at most 1.5e-7, a descent leaving 1 with slope -24
# right after eps = 0.01 by 3.7e-3.
_COLLAR_SPLINE_TOL = 1e-6


def _collar_deviation(beta: Profile, eps: float) -> float:
    """max |beta - 1| of the interpolant over [0, eps]: at the grid nodes up
    to eps, at eps itself and at the critical points of the cubics between."""
    crit = beta._spline_d.roots()
    pts = np.concatenate([_PROFILE_GRID[_PROFILE_GRID <= eps], [eps],
                          crit[(crit >= 0.0) & (crit <= eps)]])
    return float(np.max(np.abs(beta._spline(pts) - 1.0)))


def zero_pull_family_energy(w_tilde: BlaschkeProduct, beta: Profile,
                            eps: float = 0.1) -> FamilyReport:
    """Energy report of the family pulling one extra zero out to the rim.

    The shell map multiplies w~ (d-1 factors) by a Moebius factor whose real
    zero sits at beta(r); beta = 1 on [0, eps] collapses the factor to the
    constant -1 there, so shells wind d above eps and d-1 below.  The
    tangential part is exact: pi*d per shell above eps, pi*(d-1) below,
    totalling pi*(d - eps).  The radial part integrates
    2 r^2 beta'(r)^2 * kernel(beta(r)) and is verified against its profile
    bound 2*pi * int r^2 F(beta^2) beta'^2 dr (the kernel never exceeds
    pi*F(b^2) since |w~| <= 1).
    """
    if not isinstance(w_tilde, BlaschkeProduct):
        raise InvalidArgument("w_tilde must be a BlaschkeProduct")
    if w_tilde.conjugated:
        raise InvalidArgument("the zero-pulling family needs an un-conjugated base product")
    if not isinstance(beta, Profile):
        raise InvalidArgument("beta must be a Profile")
    eps = _check_range(eps, "eps", 0.0, 1.0, open_lo=True)
    d = w_tilde.zero_count + 1

    collar = _PROFILE_GRID <= eps + 1e-15
    if float(np.max(np.abs(beta.values[collar] - 1.0))) > 1e-9:
        raise PreconditionViolation("beta must equal 1 on [0, eps] (tolerance 1e-9)")
    if _collar_deviation(beta, eps) > _COLLAR_SPLINE_TOL:
        raise PreconditionViolation(
            f"the interpolant of beta must stay within {_COLLAR_SPLINE_TOL:g} of 1 on [0, eps]")
    delta = float(beta(1.0))

    table = _zero_pull_kernel_table(w_tilde)

    def radial_density(r):
        r = np.asarray(r, dtype=float)
        bp = beta.derivative(r)
        return 2.0 * r * r * bp * bp * _table_eval(table, beta(r))

    radial = ensure_converged(
        adaptive_integrate(radial_density, eps, 1.0, _QUAD_TOL, singular=(eps,)),
        "zero-pulling radial energy",
    )

    def bound_density(r):
        r = np.asarray(r, dtype=float)
        bp = beta.derivative(r)
        b2 = np.clip(np.asarray(beta(r)) ** 2, 0.0, 1.0 - 1e-16)
        return r * r * _F_arr(b2) * bp * bp

    bound = 2.0 * math.pi * ensure_converged(
        adaptive_integrate(bound_density, eps, 1.0, _QUAD_TOL, singular=(eps,)),
        "zero-pulling radial bound",
    )
    bound_ok = radial <= bound + 1e-9 * max(1.0, bound)

    def shell(r):
        return (math.pi * (d - 1) if r <= eps else math.pi * d,
                float(radial_density(r)) if r > eps else 0.0,
                d - 1 if float(beta(r)) >= 1.0 - 1e-12 else d)

    notes = (
        f"boundary value delta = beta(1) = {delta:.8g}",
        "tangential part is exact: pi*d per shell above eps, pi*(d-1) below",
        f"radial part {radial:.10f} vs profile bound {bound:.10f}: "
        + ("within bound" if bound_ok else "EXCEEDS bound"),
    )
    return _family_report("zero_pull", d, eps, math.pi * (d - eps), radial, shell, notes,
                          radial_bound=bound, bound_satisfied=bound_ok)


# A profile value at most this is zero for the collar of the unwinding family.
_ZERO_PROFILE_TOL = 1e-9


def _zero_prefix_end(profile: Profile) -> float:
    """Largest t0 with the profile <= _ZERO_PROFILE_TOL on all of [0, t0].

    Node scan for the first sample above it, then bisection on the
    interpolant inside that grid cell, so the collar edge is resolved well
    below the sample spacing.
    """
    nz = profile.values > _ZERO_PROFILE_TOL
    if not bool(np.any(nz)):
        return 1.0
    i_first = int(np.argmax(nz))
    if i_first == 0:
        return 0.0
    lo = float(_PROFILE_GRID[i_first - 1])
    hi = float(_PROFILE_GRID[i_first])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if profile(mid) <= _ZERO_PROFILE_TOL:
            lo = mid
        else:
            hi = mid
    return lo


def unwinding_family_energy(U: UnwindingFamily) -> FamilyReport:
    """Energy report of the family unwinding the whole product across a collar.

    Every shell with mixing m(r) < 1 carries a full d-factor product, so its
    tangential energy is exactly pi*d (spot-checked numerically, along with
    the winding, on the first shells where the profile reaches 0.3, 0.5 and
    0.8); shells with m = 1 are constant.  The radial part integrates
    2 r^2 m'(r)^2 * kernel(m).
    When the profile vanishes on [0, eps], the substitution r -> eps/r turns
    the radial part into 8*eps times a profile functional on the reversed
    profile; the report carries that chain value and the reference constant
    pi*d/8 it is measured against.
    """
    if not isinstance(U, UnwindingFamily):
        raise InvalidArgument("unwinding_family_energy expects an UnwindingFamily")
    w, theta, eps = U.w, U.theta, U.eps
    d = U.degree
    table = _unwinding_kernel_table(w)
    notes = []

    t0 = _zero_prefix_end(theta)
    pinned = float(np.max(theta.values[_PROFILE_GRID <= eps + 1e-15])) <= 1e-6
    tangential_total = math.pi * d * (1.0 - t0)
    if not pinned:
        notes.append(
            "profile does not vanish on [0, eps]; every shell with positive profile "
            "keeps winding d and the tangential part extends below eps"
        )

    def radial_density(r):
        r = np.asarray(r, dtype=float)
        th = theta(r)
        tp = theta.derivative(r)
        m = (1.0 - th) / (1.0 + th)
        mp = -2.0 * tp / (1.0 + th) ** 2
        return 2.0 * r * r * mp * mp * _table_eval(table, m)

    lo = t0 if t0 < 1.0 else 0.0
    sing = tuple(sorted({p for p in (lo, eps) if lo <= p < 1.0}))
    radial = ensure_converged(
        adaptive_integrate(radial_density, lo, 1.0, _QUAD_TOL, singular=sing),
        "unwinding radial energy",
    )

    chain_value = None
    chain_constant = None
    if pinned:
        def chain_density(t):
            t = np.asarray(t, dtype=float)
            r = eps / t
            al = theta(r)
            alp = theta.derivative(r) * (-eps / (t * t))
            m = (1.0 - al) / (1.0 + al)
            kernel = _table_eval(table, m) / (1.0 + al) ** 4
            return kernel * alp * alp

        chain_value = ensure_converged(
            adaptive_integrate(chain_density, eps, 1.0, _QUAD_TOL, singular=(1.0,)),
            "unwinding chain functional",
        )
        chain_constant = math.pi * d / 8.0
        if radial > 1e-12:
            rel = abs(8.0 * eps * chain_value - radial) / radial
            if rel > 1e-6:
                raise NumericalFailure(
                    f"radial energy and 8*eps*chain disagree by rel {rel:.3e}"
                )
            notes.append(f"radial = 8*eps*chain within rel {rel:.2e}")
        notes.append(
            f"chain value {chain_value:.10f} vs reference constant pi*d/8 = "
            f"{chain_constant:.10f}"
        )

    # numeric spot check: well-mixed shells carry exactly pi*d and winding d
    radii = []
    for q in (0.3, 0.5, 0.8):
        idx = np.argmax(theta.values >= q)
        if theta.values[idx] >= q:
            radii.append(float(_PROFILE_GRID[idx]))
    if radii:
        worst = 0.0
        for r in radii:
            trace = U.shell_map(r)
            energy, wind = circle_energy_numeric(trace), winding_number(trace)
            if wind != d:
                raise NumericalFailure(
                    f"shell at r = {r:.6f} winds {wind}, expected {d}"
                )
            worst = max(worst, abs(energy - math.pi * d))
        notes.append(
            f"numeric check at {len(radii)} shells: |tangential - pi*d| <= {worst:.3e}, "
            f"winding = {d}"
        )

    def shell(r):
        mixed = float(U.mixing(r)) < 1.0 - 1e-9
        return (math.pi * d if mixed else 0.0,
                float(radial_density(r)) if r > t0 else 0.0,
                d if mixed else 0)

    return _family_report("unwinding", d, eps, tangential_total, radial, shell, notes,
                          chain_value=chain_value, chain_constant=chain_constant)


# ---------------------------------------------------------------------------
# direct 3-D grid energy (independent cross-check of the decomposition)


def _graded_1d(a: float, b: float, n_uniform: int, refine_points, min_step: float) -> np.ndarray:
    """Uniform nodes on [a, b] plus geometric refinement (ratio 0.6) toward
    given points."""
    nodes = set(np.linspace(a, b, n_uniform + 1))
    base = (b - a) / n_uniform
    for p in refine_points:
        step = base
        while step > min_step:
            step *= 0.6
            if a + 1e-12 < p - step < b - 1e-12:
                nodes.add(p - step)
            if a + 1e-12 < p + step < b - 1e-12:
                nodes.add(p + step)
        if a <= p <= b:
            nodes.add(p)
    arr = np.array(sorted(nodes))
    keep = np.concatenate([[True], np.diff(arr) > 1e-13])
    return arr[keep]


def _graded_periodic(n_uniform: int, refine_angles, min_step: float) -> np.ndarray:
    """Nodes on [0, 2pi) graded toward each angle, including across the seam.

    Angles near 0 (or 2pi) get ghost refinement points shifted by a period so
    both sides of the wrap-around are refined; without this, a feature at the
    seam sits next to one coarse cell and its trapezoid weight is wrong by
    orders of magnitude.
    """
    two_pi = 2.0 * math.pi
    pts = []
    for ang in refine_angles:
        q = ang % two_pi
        pts.append(q)
        if q < 0.5:
            pts.append(q + two_pi)
        if q > two_pi - 0.5:
            pts.append(q - two_pi)
    return _graded_1d(0.0, two_pi, n_uniform, pts, min_step)[:-1]


def _fd_energy(value_fn, r_nodes: np.ndarray, th_nodes: np.ndarray,
               ph_nodes: np.ndarray) -> float:
    """Dirichlet energy (1/2) int |grad v|^2 on the upper half-ball.

    Spherical coordinates; second-order finite differences on the graded
    nodes (periodic wrap in the azimuth) and trapezoid weights.
    """
    z = np.tan(th_nodes / 2.0)[:, None] * np.exp(1j * ph_nodes[None, :])
    V = value_fn(r_nodes, z)
    ph_ext = np.concatenate([[ph_nodes[-1] - 2.0 * math.pi], ph_nodes,
                             [ph_nodes[0] + 2.0 * math.pi]])
    V_ext = np.concatenate([V[:, :, -1:], V, V[:, :, :1]], axis=2)
    dVp = np.gradient(V_ext, ph_ext, axis=2, edge_order=2)[:, :, 1:-1]
    dVr = np.gradient(V, r_nodes, axis=0, edge_order=2)
    dVt = np.gradient(V, th_nodes, axis=1, edge_order=2)
    R = r_nodes[:, None, None]
    TH = th_nodes[None, :, None]
    dens = (np.abs(dVr) ** 2 + np.abs(dVt) ** 2 / R**2
            + np.abs(dVp) ** 2 / (R * np.sin(TH)) ** 2)
    wr = np.empty_like(r_nodes)
    wr[1:-1] = (r_nodes[2:] - r_nodes[:-2]) / 2.0
    wr[0] = (r_nodes[1] - r_nodes[0]) / 2.0
    wr[-1] = (r_nodes[-1] - r_nodes[-2]) / 2.0
    wt = np.empty_like(th_nodes)
    wt[1:-1] = (th_nodes[2:] - th_nodes[:-2]) / 2.0
    wt[0] = (th_nodes[1] - th_nodes[0]) / 2.0
    wt[-1] = (th_nodes[-1] - th_nodes[-2]) / 2.0
    wp = (np.roll(ph_nodes, -1) - np.roll(ph_nodes, 1)) % (2.0 * math.pi) / 2.0
    return 0.5 * float(np.sum(dens * R**2 * np.sin(TH)
                              * wr[:, None, None] * wt[None, :, None] * wp[None, None, :]))


# The map features live at radius eps (profile kink), at the equator (the
# fast boundary behavior concentrates on |z| = 1), and at specific azimuths;
# r spacing stays >= 2.5e-3 so near-collar features remain wider than the
# angular resolution, which bottoms out at 3e-6.
_GRID_R_MIN_STEP = 2.5e-3
_GRID_ANG_MIN_STEP = 3e-6


def _grid_nodes(eps: float, phi_angles: tuple[float, ...]):
    """The grid of both grid energies: 96 radii, 64 polar angles, 128 azimuths."""
    r_nodes = _graded_1d(1e-3, 1.0, 96, (eps,), _GRID_R_MIN_STEP)
    th_nodes = _graded_1d(1e-3, math.pi / 2.0, 64, (math.pi / 2.0,), _GRID_ANG_MIN_STEP)
    ph_nodes = _graded_periodic(128, phi_angles, _GRID_ANG_MIN_STEP)
    return r_nodes, th_nodes, ph_nodes


def zero_pull_grid_energy(w_tilde: BlaschkeProduct, beta: Profile, eps: float = 0.1) -> float:
    """Direct grid Dirichlet energy of the zero-pulling map on the half-ball.

    Independent of the tangential/radial decomposition: the map is sampled on
    a graded spherical grid (_grid_nodes) and differentiated numerically.
    Pull values within 1e-6 of 1 snap to the collapsed factor -1; the
    representation wiggle below that threshold would otherwise fake features
    narrower than the grid.  On that grid the stock profiles agree with the
    decomposed total to well under 2%.
    """
    eps = _check_range(eps, "eps", 0.0, 1.0, open_lo=True)

    def value(r, z):
        b = np.minimum(np.asarray(beta(r), dtype=float), 1.0)
        b = np.where(b > 1.0 - 1e-6, 1.0, b)[:, None, None]
        base = eval_product(w_tilde, z)[None, :, :]
        mob = np.where(b >= 1.0, -np.ones_like(z)[None, :, :],
                       (z[None, :, :] - b) / (1.0 - b * z[None, :, :]))
        return mob * base

    nodes = _grid_nodes(eps, _zero_pull_rule_angles(w_tilde))
    return _fd_energy(value, *nodes)


def unwinding_grid_energy(U: UnwindingFamily) -> float:
    """Direct grid Dirichlet energy of the unwinding map on the half-ball,
    on the grid of zero_pull_grid_energy.

    Mixing values within 1e-6 of 1 snap to the constant map 1 (see
    zero_pull_grid_energy for why); the azimuth grid is graded toward the
    boundary preimages of +/-1 where the shell maps vary fastest.
    """
    def value(r, z):
        th = np.clip(np.asarray(U.theta(r), dtype=float), 0.0, 1.0)
        m = (1.0 - th) / (1.0 + th)
        m = np.where(m > 1.0 - 1e-6, 1.0, m)[:, None, None]
        wv = eval_product(U.w, z)[None, :, :]
        return np.where(m >= 1.0, np.ones_like(wv), (wv + m) / (1.0 + m * wv))

    nodes = _grid_nodes(U.eps, _unwinding_rule_angles(U.w))
    return _fd_energy(value, *nodes)


# ---------------------------------------------------------------------------
# sweeps


def epsilon_sweep(product: BlaschkeProduct, family: str = "zero_pull",
                  delta: float = 1.0 / 3.0,
                  eps_values: tuple[float, ...] = (0.05, 0.1, 0.2)) -> tuple[FamilyReport, ...]:
    """Family reports across collar widths with the stock eased profiles.

    For "zero_pull" the product is the (d-1)-factor base and delta the
    terminal pull value; for "unwinding" the product is the full d-factor map
    and delta is ignored.
    """
    if family not in ("zero_pull", "unwinding"):
        raise InvalidArgument("family must be 'zero_pull' or 'unwinding'")
    reports = []
    for eps in eps_values:
        if family == "zero_pull":
            reports.append(zero_pull_family_energy(product, zero_pull_profile(delta, eps), eps))
        else:
            reports.append(unwinding_family_energy(
                UnwindingFamily(product, unwinding_profile(eps), eps)))
    return tuple(reports)
