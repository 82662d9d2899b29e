"""Nonlocal 1/2-Dirichlet energies, Poisson-kernel extensions, and identities.

The central objects: the plane/circle nonlocal energies with kernel
|x-y|^-(n+1), the half-space Poisson extension u^e realizing half of the
Dirichlet energy, the half-ball Dirichlet energy of 0-homogeneous fields,
the half-Laplacian pairing, and the density E(B_r+)/r along radii.

Each quantity is computed on one fixed rule, stated in its docstring; the
only rule a caller chooses is the ray rule (n_omega, n_gl) of the Poisson
extensions and of the half-space oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .blaschke import BlaschkeProduct, CircleSample, homogeneous_extension
from .errors import (
    DomainViolation,
    InvalidArgument,
    PreconditionViolation,
    Undersampled,
)
from .quadrature import _check_count, _panel_rule, disc_rule, hemisphere_rule

__all__ = [
    "gamma_n",
    "GAMMA_1",
    "GAMMA_2",
    "PlaneMap",
    "bump_map",
    "vortex_map",
    "closed_xstar_ext",
    "poisson_extend",
    "poisson_extend_gradient",
    "circle_energy_numeric",
    "FracEnergyReport",
    "frac_energy_plane",
    "half_laplacian_pairing",
    "dirichlet_energy_halfball",
    "hemisphere_tangential_energy",
    "halfspace_dirichlet_oracle",
    "MonotoneReport",
    "monotone_density",
]


def gamma_n(n: int) -> float:
    """Normalization constant of the nonlocal energy kernel in dimension n:
    pi^(-(n+1)/2) * Gamma((n+1)/2); 1/pi on the line, 1/(2 pi) in the plane."""
    if n not in (1, 2):
        raise InvalidArgument("supported dimensions are 1 and 2")
    return math.pi ** (-(n + 1) / 2.0) * math.gamma((n + 1) / 2.0)


GAMMA_1 = gamma_n(1)
GAMMA_2 = gamma_n(2)


# ----------------------------------------------------------------- plane maps


@dataclass(frozen=True)
class PlaneMap:
    """A bounded map of the plane, evaluable away from a finite singular set.

    `func` is vectorized over complex arrays and must not keep its argument,
    because the half-space routes reuse their sample arrays from block to
    block.  Calling the map returns func's output as the complex, C-ordered
    array of z's shape that both routes read; only a scalar, a real or a
    not C-ordered output is converted.  Outside the disc of radius
    `far_radius` the map is identically zero (far_field "zero") or
    0-homogeneous, so tails of nonlocal integrals close analytically.  A map
    that tends to a constant c is c plus a compact map; pass the compact
    map: the energies see only u(x) - u(y), and the Poisson extension of
    c + u is c plus that of u.

    Both half-space routes take far_field == "zero" at its word: neither
    builds the samples of a ray that misses that disc, and the Poisson rays
    skip the samples outside the radial band where they can meet it.  Every
    other sample is evaluated, so the map decides its own zeros there.  A
    map that is not identically zero outside the disc gets a wrong value,
    with no error.
    """

    func: Callable[[np.ndarray], np.ndarray]
    bound: float
    singular_points: tuple[complex, ...] = ()
    far_field: str = "zero"
    far_radius: float = 1.0

    def __post_init__(self) -> None:
        if self.far_field not in ("zero", "homogeneous"):
            raise InvalidArgument("far_field must be zero|homogeneous")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise InvalidArgument("declare a finite positive bound")
        if not (math.isfinite(self.far_radius) and self.far_radius >= 0):
            raise InvalidArgument("far_radius must be finite and non-negative")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(self.func(z), dtype=complex, order="C")
        return out if out.shape == z.shape else np.broadcast_to(out, z.shape).copy()

    def far_value(self, direction):
        """Complex limit values along rays with the given unit direction(s)."""
        if self.far_field == "zero":
            return np.zeros(np.shape(direction), dtype=complex)
        big = 1e8 * max(1.0, self.far_radius)
        return self(np.asarray(direction, dtype=complex) * big)


def bump_map(center: complex = 0.0j, radius: float = 1.0, amplitude=1.0 + 0.0j) -> PlaneMap:
    """Smooth compactly supported bump: amplitude * exp(1 - 1/(1 - |(z-c)/r|^2)).

    Raises InvalidArgument unless the centre is finite and the radius finite
    and positive: the support is the disc |z - c| < r.
    """
    c, r = complex(center), float(radius)
    if not (np.isfinite(c) and math.isfinite(r) and r > 0):
        raise InvalidArgument("a bump needs a finite centre and a finite positive radius")

    def f(z):
        # numpy divides a complex by the real r as a product with 1/r, so
        # the in-place scaling gives the bits of |(z - c)/r|^2
        d = z - c
        d *= 1.0 / r
        s2 = np.abs(d)
        del d
        s2 *= s2
        inside = s2 < 1.0
        # exp(1 - 1/(1 - s2)) in place: each block of the half-space routes
        # calls this, so every temporary saved is heap traffic saved
        v = s2[inside]
        del s2
        np.subtract(1.0, v, out=v)
        np.divide(1.0, v, out=v)
        np.subtract(1.0, v, out=v)
        np.exp(v, out=v)
        out = np.zeros(z.shape, dtype=complex)
        out[inside] = amplitude * v
        return out

    return PlaneMap(func=f, bound=abs(amplitude), far_field="zero",
                    far_radius=abs(c) + r)


def vortex_map() -> PlaneMap:
    """The unit vortex x/|x|, 0-homogeneous with one degree-1 singular point."""

    def f(z):
        az = np.abs(z)
        return np.where(az > 0, z / np.where(az > 0, az, 1.0), 1.0 + 0.0j)

    return PlaneMap(func=f, bound=1.0, singular_points=(0.0 + 0.0j,),
                    far_field="homogeneous", far_radius=0.0)


def closed_xstar_ext(X):
    """Closed-form harmonic extension of the vortex: (x1 + i x2)/(|X| + x3)."""
    Xa = np.asarray(X, dtype=float)
    if Xa.shape[-1] != 3:
        raise DomainViolation("expected 3-vectors")
    norm = np.sqrt(np.sum(Xa * Xa, axis=-1))
    if np.any(norm == 0.0):
        raise DomainViolation("the extension is singular at the origin")
    out = (Xa[..., 0] + 1j * Xa[..., 1]) / (norm + Xa[..., 2])
    return complex(out) if out.ndim == 0 else out


# ----------------------------------------------------- half-space Poisson kernel

# After substituting y = x + (x3 t) w into the Poisson integral, the radial
# kernel is t (1+t^2)^(-3/2) with unit mass; its tail mass past T is
# (1+T^2)^(-1/2).  Panels are dyadic in t so compact supports close exactly.


def _kernel_panels(t_stop: float, extra_breaks, n_gl: int):
    """GL nodes/weights covering [0, t_stop] with dyadic panels and extra breaks."""
    edges = [0.0, 1.0, 3.0]
    while edges[-1] < t_stop:
        edges.append(edges[-1] * 2.0)
    edges = sorted(set(e for e in edges if e < t_stop) | {t_stop} | set(
        b for b in extra_breaks if 0.0 < b < t_stop))
    return _panel_rule(edges, n_gl)


def _poisson_tail_mass(T: float) -> float:
    return 1.0 / math.sqrt(1.0 + T * T)


def _halfspace_point(X) -> tuple[complex, float]:
    Xa = np.asarray(X, dtype=float)
    if Xa.shape != (3,):
        raise DomainViolation("expected one 3-vector")
    if not np.all(np.isfinite(Xa)):
        raise DomainViolation("the half-space point must be finite")
    if Xa[2] <= 0.0:
        raise DomainViolation("the half-space extension needs x3 > 0")
    return complex(Xa[0], Xa[1]), float(Xa[2])


def _check_ray_rule(n_omega, n_gl) -> tuple[int, int]:
    """The ray rule (directions, Gauss nodes per panel) of the half-space
    routes: both integers >= 1."""
    return _check_count(n_omega, "n_omega"), _check_count(n_gl, "n_gl")


def _check_domain_radius(R) -> None:
    if not math.isfinite(R) or R <= 0:
        raise InvalidArgument(f"the domain radius R must be finite and > 0, got {R!r}")


def _ray_inputs(u: PlaneMap, centers: np.ndarray, h: float) -> tuple:
    """Every input of _ray_setup for the Poisson rays from plane points of
    one radius at height h: (point radius, whether u is compact, u's
    far_radius, the radii of u's singular points seen from each point,
    scaled by 1/h)."""
    rad = float(abs(centers.flat[0])) if centers.size else 0.0
    breaks = tuple(abs(s_pt - c) / h for s_pt in u.singular_points for c in centers.flat)
    return rad, u.far_field == "zero", u.far_radius, breaks


def _ray_setup(rad: float, compact: bool, far_radius: float, breaks, h: float, n_gl: int):
    """Radial panels (t, wt, t_stop) shared by the Poisson rays from plane
    points of radius rad at height h, and the slice `band` of t whose rays
    can meet the support disc: max(0, rad - far_radius)/h <= t <=
    (rad + far_radius)/h.  Outside it a compact map is exactly zero, so its
    samples there are never built; inside it every sample is evaluated.
    For a 0-homogeneous map the band is all of t.  The arguments before h
    are those of _ray_inputs.
    """
    if compact:
        t_stop = (rad + far_radius) / h + 3.0
    else:
        t_stop = max(3.0 * 2.0**12, 16.0 * (rad / h + 1.0))
    breaks = list(breaks)
    t_in = max(0.0, rad - far_radius) / h
    t_out = (rad + far_radius) / h
    if compact and far_radius > 0:
        # rays enter/leave the far-field disc in this radial band; panel
        # edges there keep the Gauss panels clear of the support boundary
        breaks += [t_in, t_out, math.hypot(rad, far_radius) / h]
    t, wt = _kernel_panels(t_stop, extra_breaks=breaks, n_gl=n_gl)
    band = slice(None)
    if compact:
        band = slice(np.searchsorted(t, t_in), np.searchsorted(t, t_out, "right"))
    return t, wt, t_stop, band


def _meets_disc(x, w, radius: float) -> np.ndarray:
    """Whether the ray x + s w, s >= 0, from plane points x along unit
    directions w can meet the disc |y| <= radius.

    With z = conj(w) x the ray is |z + s| from the origin: from outside the
    disc it comes closest at s = -Re z, |Im z| away, when Re z < 0, and
    otherwise at its start.  The margin of 1e-9 |x| sits far above the
    rounding of z and of the samples x + s w, so a dropped ray has no
    sample that rounds into the disc.  This whole-ray test is the only
    support test of the pair form; the Poisson rays also keep only the
    radial band of _ray_setup.  Neither tests single samples.
    """
    z = np.conj(w) * x
    margin = 1e-9 * np.abs(x)
    return (np.abs(x) <= radius + margin) | (
        (z.real < margin) & (np.abs(z.imag) <= radius + margin))


# complex samples per ray block of _ray_blocks.  7,680 samples are 120 KB:
# every working array of a block stays under glibc's default 128 KB mmap
# threshold and comes from the heap, and a block's arrays fit a core's L2
# cache.  On a 2-vCPU Xeon, blocks of 16k samples took 15-20% longer over the
# benchmark oracle, and blocks of 34k 30-40% longer over the pair form's
# calls.  Changing it moves pinned values in their last bits.  It also bounds
# the leaves of _pairwise_leaf_sum (the half-ball pass) and the node chunks of
# hemisphere_tangential_energy, whose values it does not move.
_BLOCK_SAMPLES = 7680


def _ray_blocks(origins: np.ndarray, dirs: np.ndarray, offsets: np.ndarray):
    """The ray samples origins[i] + dirs[i] * offsets[j] in blocks of at most
    _BLOCK_SAMPLES, the one loop that blocks them: yields (rows, cols, pts),
    slices of i and j and pts = origins[rows, None] + dirs[rows, None] * offsets[None, cols].

    Whole rows share a block while they fit; a longer row is cut into equal
    column chunks.  Every pts is a view of one workspace allocated per call,
    which the caller may overwrite before the next block: glibc hands free
    memory above 128 KB at the top of its heap back to the kernel, so arrays
    made afresh in every block were faulted back in block after block.
    """
    n_rows, n_cols = origins.size, offsets.size
    per_block = max(1, _BLOCK_SAMPLES // max(n_cols, 1))
    chunks = max(1, -(-n_cols // _BLOCK_SAMPLES))
    cuts = [n_cols * j // chunks for j in range(chunks + 1)]
    work = np.empty(min(per_block, n_rows) * -(-n_cols // chunks), dtype=complex)
    for start in range(0, n_rows, per_block):
        rows = slice(start, min(start + per_block, n_rows))
        m = rows.stop - start
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pts = work[:m * (hi - lo)].reshape(m, hi - lo)
            np.multiply(dirs[rows, None], offsets[None, lo:hi], out=pts)
            pts += origins[rows, None]
            yield rows, slice(lo, hi), pts


def _pairwise_leaf_sum(leaf, start: int, stop: int):
    """The sum of leaf(lo, hi) over leaves [lo, hi) of [start, stop) of at
    most _BLOCK_SAMPLES entries, cut and added up the tree of numpy's
    pairwise float sum: a run of n > _BLOCK_SAMPLES entries splits after
    n//2 - (n//2) % 8 of them.  numpy splits every run longer than 128 the
    same way, so when leaf(lo, hi) is np.sum(a[lo:hi]) of one contiguous
    float64 array a, the result is np.sum(a[start:stop]) bit for bit; leaf
    may return an array of such sums, one per output.
    """
    n = stop - start
    if n <= _BLOCK_SAMPLES:
        return leaf(start, stop)
    mid = start + n // 2 - (n // 2) % 8
    return _pairwise_leaf_sum(leaf, start, mid) + _pairwise_leaf_sum(leaf, mid, stop)


def _kernel_pairs(kernels: np.ndarray) -> np.ndarray:
    """The kernels (t, k) as the real matrix that _ray_sums contracts with
    the (re, im) pairs of the samples: sample t contributes Re u *
    kernels[t, k] to the real column and Im u * kernels[t, k] to the
    imaginary column of kernel k."""
    n_t, n_k = kernels.shape
    pairs = np.zeros((n_t, 2, n_k, 2))
    pairs[:, 0, :, 0] = kernels
    pairs[:, 1, :, 1] = kernels
    return pairs.reshape(2 * n_t, 2 * n_k)


def _ray_sums(u: PlaneMap, centers: np.ndarray, h: float, t, what, pairs) -> np.ndarray:
    """Kernel sums along the Poisson rays: sum over the nodes t of
    u(x + h t w) * kernels[t, j] for every plane point x in centers and
    direction w in what, shape (centers, directions, kernels), with the
    kernels given as _kernel_pairs(kernels).

    The one contraction of the Poisson rays, over the (point, direction)
    rows of _ray_blocks.  Each block's samples, viewed as (re, im) pairs of
    doubles, meet the pairs in one real matrix product whose columns come
    out as the (re, im) pairs of the sums.  That product runs on the calling
    thread: no BLAS worker thread starts, and the sums do not depend on the
    BLAS thread count.

    For a far_field == "zero" map only the rows whose ray can meet the
    support disc (_meets_disc) go to _ray_blocks; the sums of the others
    are exact zeros, and none of their samples is built.  Every sample of a
    kept row goes to u, which returns its own zeros outside its support, as
    in _pair_form; u's values are written over the block's samples.  The
    kept rows share blocks differently, and a row left alone in its block
    takes numpy's matrix-vector path, which can move that row's last bit.
    """
    centers = centers.ravel()
    if u.far_field == "zero":
        meets = _meets_disc(centers[:, None], what[None, :], u.far_radius)
    else:
        meets = np.ones((centers.size, what.size), dtype=bool)
    kept_points, kept_dirs = np.nonzero(meets)
    origins, dirs = centers[kept_points], what[kept_dirs]
    n_k = pairs.shape[1] // 2
    sums = np.zeros((origins.size, n_k), dtype=complex)
    for rows, cols, pts in _ray_blocks(origins, dirs, h * t):
        pts[...] = u(pts)
        sums[rows] += (pts.view(float) @ pairs[2 * cols.start:2 * cols.stop]).view(complex)
    out = np.zeros((centers.size, what.size, n_k), dtype=complex)
    out[meets] = sums
    return out


def poisson_extend(u: PlaneMap, X, n_omega: int = 256, n_gl: int = 24):
    """Half-space Poisson extension of u at X = (x1, x2, x3), x3 > 0.

    The angular integral is a uniform circle rule; the radial integral uses
    dyadic Gauss panels in the scaled variable t = rho/x3 (extra panel breaks
    at each declared singular point's radius).  The numeric kernel mass is
    renormalized to 1, so |output| <= sup|u| holds exactly.
    """
    x, h = _halfspace_point(X)
    n_omega, n_gl = _check_ray_rule(n_omega, n_gl)
    return complex(_extension_value_ring(u, np.array([x]), h, n_omega, n_gl)[0])


# ------------------------------------------------------------- circle energy


def _spectral_derivative(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freqs[n // 2] = 0.0  # symmetric convention for the unpaired mode
    return np.fft.ifft(1j * freqs * np.fft.fft(values))


def circle_energy_numeric(g: CircleSample) -> float:
    """Nonlocal circle energy (gamma_1/4) * double integral of
    |g(x)-g(y)|^2 / chordal^2, with the diagonal band replaced by its
    removable limit |g'|^2 (computed spectrally).

    Exact for pure winding maps; refuses when the spectral tail (modes above
    n/4) holds more than 1e-6 of the power, i.e. the sampling is too coarse.
    """
    v = g.values
    n = g.n
    spec = np.fft.fft(v) / n
    power = np.abs(spec) ** 2
    modes = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    tail = power[modes > n / 4].sum()
    total = power[modes > 0].sum()
    if total > 0 and tail > 1e-6 * total:
        raise Undersampled("spectral tail indicates the circle map is under-resolved")

    # sum_k |v_k - v_{k+j}|^2 for every offset j, via circular correlation
    corr = np.fft.ifft(np.abs(np.fft.fft(v)) ** 2).real
    sq = float(np.sum(np.abs(v) ** 2))
    diffs = 2.0 * sq - 2.0 * corr  # index j
    j = np.arange(1, n)
    chord_sq = 4.0 * np.sin(np.pi * j / n) ** 2
    offdiag = float(np.sum(diffs[1:] / chord_sq))
    diag = float(np.sum(np.abs(_spectral_derivative(v)) ** 2))
    return (GAMMA_1 / 4.0) * (2.0 * np.pi / n) ** 2 * (offdiag + diag)


# --------------------------------------------------- pair-energy (polar rays)

# For convex Omega = D_R, the pair integral over (R^2 x R^2) \ (Oc x Oc)
# reduces per outer point x and direction w to
#   int_0^exit q + 2 int_exit^inf q,   q(rho) = <du, dphi>(x, x+rho w)/rho^2,
# where exit is the ray's exit radius from D_R.  Outside the far-field disc
# the integrand is constant-in-u, so the infinite tail closes analytically.

_XI_EDGES = (0.0, 0.02, 0.06, 0.14, 0.3, 0.55, 1.0)


def _xi_nodes(n_gl: int):
    return _panel_rule(_XI_EDGES, n_gl)


def _ray_exit(x: complex, what: np.ndarray, radius: float) -> np.ndarray:
    b = np.real(np.conj(x) * what)
    disc = b * b + radius * radius - abs(x) ** 2
    return -b + np.sqrt(np.maximum(disc, 0.0))


def _pair_form(u: PlaneMap, phi: PlaneMap | None, R: float,
               n_x_r: int, n_x_t: int, n_gl: int):
    """(1/4) * pair integral of <du, dphi>/|x-y|^3 over (R^2)^2 minus
    (complement x complement), without the gamma_2 normalization.

    phi = None or phi = u means the quadratic energy of u, which evaluates u
    once per sample.  Returns (value, tail_bound).

    The outer rule is the n_x_r x n_x_t disc rule and the ray directions are
    its n_x_t outer angles.  The outer point at angle 2 pi k/n and the ray
    direction (k + m) mod n then see the geometry of the point at angle 0 and
    direction m, rotated by e^(2 pi i k/n): each ring builds its ray nodes and
    weights once, at angle 0, and its outer points are the rows of
    _ray_blocks.  Each block is one map call and one real matrix-vector
    product; OpenBLAS runs those of blocks above 4,608 samples on its worker
    threads, with the same bits.

    When both maps are far_field == "zero" and R reaches past both support
    discs (no second leg), a ring outside the larger disc keeps only the
    relative directions whose ray from the angle-0 point meets that disc:
    the others add 0 at every sample, so neither their samples nor their
    map values are formed.  Their zero columns are then missing from each
    outer point's dot product, which can move its last bit.
    """
    sym = phi is None or phi is u
    pmap = u if sym else phi
    hom = u.far_field == "homogeneous" or pmap.far_field == "homogeneous"
    R_big = max(R, u.far_radius, pmap.far_radius)
    if hom:
        # a 0-homogeneous map approaches its angular limit only like
        # |x|/rho, so the analytic closure must start far out: integrate
        # the middle leg numerically and correct the tail to first order
        R_big = max(R_big, 12.0 * R)
    support = max(u.far_radius, pmap.far_radius)
    compact = u.far_field == pmap.far_field == "zero" and R_big == R
    n = n_x_t
    outer = disc_rule(n_x_r, n)
    rings = (R * outer.nodes).reshape(n_x_r, n)
    ring_w = (R * R * outer.weights).reshape(n_x_r, n) * (2 * np.pi / n)
    what = np.exp(2j * np.pi * np.arange(n) / n)
    xi, wxi = _xi_nodes(n_gl)

    far_u = u.far_value(what)
    far_p = far_u if sym else pmap.far_value(what)
    # the tails of outer point k run along the absolute directions (k + m) mod n
    absolute = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    if hom:
        dfar_u = _spectral_derivative(far_u)[absolute]
        dfar_p = dfar_u if sym else _spectral_derivative(far_p)[absolute]
    far_u = far_u[absolute]
    far_p = far_u if sym else far_p[absolute]

    total = 0.0
    tail_bound = 0.0
    for xs, wx in zip(rings, ring_w):
        x0 = xs[0]
        # rays from x0 along what: q(rho) = <du, dphi>/rho^2 integrated over
        # [0, exit] and, twice, over [exit, exit2]; one weight per sample
        exit1 = _ray_exit(x0, what, R)
        rho_far = exit1
        # a ray that misses the larger support disc starts outside it, so
        # both maps are 0 at the ray's start and at each of its samples; by
        # the rotation the test at x0 serves every point of the ring
        keep = _meets_disc(x0, what, support) if compact else slice(None)
        rho = exit1[keep] * xi[:, None]
        offsets, weights = [rho * what[keep]], [wxi[:, None] / (rho * rho) * exit1[keep]]
        if R_big > R + 1e-15:
            rho_far = _ray_exit(x0, what, R_big)
            span = rho_far - exit1
            rho = exit1 + span * xi[:, None]
            offsets.append(rho * what)
            weights.append(2.0 * wxi[:, None] / (rho * rho) * span)
        offsets = np.concatenate(offsets, axis=None)
        # the samples are contracted as (re, im) pairs of doubles
        weights = np.repeat(np.concatenate(weights, axis=None), 2)

        ux = u(xs)
        px = ux if sym else pmap(xs)
        segs = np.zeros(n)
        for k, cols, pts in _ray_blocks(xs, what, offsets):
            du = u(pts) - ux[k, None]
            dp = du if sym else pmap(pts) - px[k, None]
            prod = du.view(float)
            prod *= dp.view(float)
            segs[k] += prod @ weights[2 * cols.start:2 * cols.stop]

        dtail_u = ux[:, None] - far_u
        dtail_p = dtail_u if sym else px[:, None] - far_p
        tail = np.real(dtail_u * np.conj(dtail_p)) / rho_far
        if hom:
            # first-order angular drift: the direction of x + rho*w differs
            # from w by Im(x conj(w))/rho, so u - far ~ -far' * beta / rho;
            # integrating rho^-2 times the cross terms refines the closure
            beta = np.imag(x0 * np.conj(what))
            tail_bound += float(np.sum(wx)) * float(
                np.sum(8.0 * u.bound * pmap.bound * (abs(x0) / rho_far) ** 2 / rho_far))
            cross = (np.real(dtail_u * np.conj(dfar_p)) + np.real(dfar_u * np.conj(dtail_p)))
            quad_t = np.real(dfar_u * np.conj(dfar_p))
            tail = (tail - cross * beta / (2.0 * rho_far ** 2)
                    + quad_t * beta ** 2 / (3.0 * rho_far ** 3))
        total += float(wx @ (segs + 2.0 * np.sum(tail, axis=1)))
    return 0.25 * total, 0.25 * tail_bound


@dataclass(frozen=True)
class FracEnergyReport:
    """Value of the localized nonlocal energy with its refinement history."""

    value: float
    tail_bound: float
    converged: bool
    divergent: bool
    ladder: tuple[float, ...] = field(default_factory=tuple)

    def __float__(self) -> float:
        return float(self.value)


def frac_energy_plane(u: PlaneMap, R: float = 1.0) -> FracEnergyReport:
    """Localized 1/2-Dirichlet energy of u on the disc D_R.

    Runs the pair quadrature on a ladder of four refinements: the outer rule
    (16 radii x 48 angles; the ray directions are the outer angles) and the
    Gauss nodes per ray panel (8) grow by ~1.4 per level, and the ladder stops
    once two levels agree to 2e-4 relative.  If the increments between levels
    fail to contract, the value is growing without bound under refinement and
    the report is flagged divergent rather than trusted.  u's singular
    points are not read: the ladder resolves one inside D_R, such as the
    vortex's centre, or flags its growth.
    """
    _check_domain_radius(R)
    ladder = []
    tail_last = 0.0
    for lev in range(4):
        f = 1.4**lev
        val, tail_last = _pair_form(u, None, R, n_x_r=int(16 * f), n_x_t=int(48 * f),
                                    n_gl=int(8 * f))
        ladder.append(GAMMA_2 * val)
        if lev >= 1:
            inc = abs(ladder[-1] - ladder[-2])
            if inc <= max(1e-12, 2e-4 * abs(ladder[-1])):
                return FracEnergyReport(ladder[-1], GAMMA_2 * tail_last, True, False, tuple(ladder))
    inc = np.abs(np.diff(ladder))
    # judge growth on the last rungs only: the coarsest rule can wildly
    # overshoot structure it cannot resolve, and that artifact must not
    # mask genuine (e.g. logarithmic) growth under refinement; net growth
    # across two refinements tolerates level-to-level quadrature noise
    growing = ladder[-1] > ladder[-3]
    contracting = all(b <= 0.7 * a + 1e-15 for a, b in zip(inc[:-1], inc[1:]))
    tail_contracting = inc[-1] <= 0.7 * inc[-2] + 1e-15
    divergent = bool(growing and not tail_contracting
                     and inc[-1] > 1e-6 * abs(ladder[-1]))
    return FracEnergyReport(float(ladder[-1]), float(GAMMA_2 * tail_last),
                            not divergent and bool(contracting),
                            divergent, tuple(float(v) for v in ladder))


def half_laplacian_pairing(u: PlaneMap, phi: PlaneMap, R: float = 1.0) -> float:
    """Weak pairing (gamma_2/2) * pair integral of <du, dphi>/|x-y|^3 over
    (R^2 x R^2) minus (complement x complement); phi must vanish outside D_R.

    One pair quadrature: 28 x 72 outer points, the 72 outer angles as ray
    directions, 10 Gauss nodes per ray panel.  phi = u evaluates u once per
    sample."""
    _check_domain_radius(R)
    if phi.far_field != "zero":
        raise PreconditionViolation("test maps must be compactly supported")
    if phi.far_radius > R + 1e-12:
        raise PreconditionViolation("test map support must sit inside the domain disc")
    val, _ = _pair_form(u, phi, R, 28, 72, 10)
    return 2.0 * GAMMA_2 * val


# ------------------------------------------------- half-ball Dirichlet energy


def _tangent_frames(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pairs at unit vectors p, shape (n, 3) each."""
    a = np.zeros_like(p)
    use_e1 = np.abs(p[:, 0]) < 0.9
    a[use_e1, 0] = 1.0
    a[~use_e1, 1] = 1.0
    t1 = a - (np.sum(a * p, axis=1))[:, None] * p
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(p, t1)
    return t1, t2


# step of the tangential central differences on the unit sphere
_SPHERE_STEP = 1e-5


def _sphere_difference(v, p: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Central difference of v at unit vectors p along tangents tau, with
    both displaced points renormalized back onto the unit sphere."""
    plus = p + _SPHERE_STEP * tau
    minus = p - _SPHERE_STEP * tau
    plus /= np.linalg.norm(plus, axis=1)[:, None]
    minus /= np.linalg.norm(minus, axis=1)[:, None]
    return (np.asarray(v(plus)) - np.asarray(v(minus))) / (2.0 * _SPHERE_STEP)


def _complex_gradient(v, X: np.ndarray, h) -> list[np.ndarray]:
    """Cartesian central differences (d1 v, d2 v, d3 v) at points X (m, 3),
    with step h: one float, or an (m,) array of one step per point."""
    grads = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        step = np.multiply.outer(h, e)
        plus = np.asarray(v(X + step)).reshape(-1)
        minus = np.asarray(v(X - step)).reshape(-1)
        grads.append((plus - minus) / (2.0 * h))
    return grads


def hemisphere_tangential_energy(v) -> float:
    """(1/2) * integral over the upper unit hemisphere of |grad_tau v|^2,
    with tangential derivatives by central differences along the sphere,
    on the 128 x 256 hemisphere rule.

    The density is filled in chunks of _BLOCK_SAMPLES nodes, four calls of
    v per chunk.  It is then weighted node by node and added in node order
    by numpy's pairwise sum over all nodes, on the calling thread: no BLAS
    worker thread starts, the value does not depend on the BLAS thread
    count, and chunking the sum would move its rounding.
    """
    rule = hemisphere_rule(128, 256)
    dens = np.empty(rule.weights.size)
    for lo in range(0, dens.size, _BLOCK_SAMPLES):
        chunk = slice(lo, lo + _BLOCK_SAMPLES)
        p = rule.nodes[chunk]
        t1, t2 = _tangent_frames(p)
        dens[chunk] = (np.abs(_sphere_difference(v, p, t1)) ** 2
                       + np.abs(_sphere_difference(v, p, t2)) ** 2)
    dens *= rule.weights
    return 0.5 * float(np.sum(dens))


def dirichlet_energy_halfball(v, r: float = 1.0) -> float:
    """(1/2) * integral of |grad v|^2 over the upper half-ball of radius r,
    for analytic 0-homogeneous fields: r times the hemisphere surface energy.

    v may be a BlaschkeProduct (its homogeneous extension is used) or a
    callable field on unit 3-vectors.
    """
    if not (0.0 < r <= 1.0):
        raise DomainViolation("radius must lie in (0, 1]")
    if isinstance(v, BlaschkeProduct):
        B = v
        field = lambda P: homogeneous_extension(B, P)
    else:
        field = v
    return r * hemisphere_tangential_energy(field)


@dataclass(frozen=True)
class MonotoneReport:
    """Density E(B_r+)/r along radii, with its limit estimate."""

    radii: tuple[float, ...]
    densities: tuple[float, ...]
    theta_limit: float


def monotone_density(B: BlaschkeProduct, radii) -> MonotoneReport:
    """E(extension, B_r+)/r for each radius, by genuine 3-D integration
    in spherical shells (12 Gauss radii, a 48 x 96 hemisphere rule) with
    central-difference gradients of the extension, of step 1e-5 times the
    shell radius."""
    radii = tuple(float(r) for r in radii)
    if not all(0.0 < r <= 1.0 for r in radii):
        raise DomainViolation("radii must lie in (0, 1]")
    rule = hemisphere_rule(48, 96)
    p = rule.nodes

    def shell_density(s: float) -> float:
        """integral over the hemisphere of |grad v|^2 at radius s."""
        grads = _complex_gradient(lambda X: homogeneous_extension(B, X), s * p, 1e-5 * s)
        return float(sum(np.abs(g) ** 2 for g in grads) @ rule.weights)

    out = []
    for r in radii:
        s_nodes, s_weights = _panel_rule((0.0, r), 12)
        E = 0.5 * sum(w * s * s * shell_density(s) for s, w in zip(s_nodes, s_weights))
        out.append(E / r)
    theta = out[-1] if out else 0.0
    return MonotoneReport(radii, tuple(out), theta)


# --------------------------------------------------------- extension oracles


def _first_panel_rule(edges, n_first: int, n_rest: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule with n_first nodes on the first panel and
    n_rest on each of the others."""
    first = _panel_rule(edges[:2], n_first)
    rest = _panel_rule(edges[1:], n_rest)
    return np.concatenate([first[0], rest[0]]), np.concatenate([first[1], rest[1]])


def halfspace_dirichlet_oracle(u: PlaneMap, n_omega: int = 128, n_gl: int = 16) -> float:
    """(1/2) * integral of |grad u^e|^2 over the half-ball B_R+ with
    R = 6 max(1, far_radius), plus the analytic dipole tail, for compactly
    supported u.

    The gradient of the extension is computed from analytic kernel
    derivatives, so this is an independent route to the nonlocal energy.
    n_omega and n_gl are the ray rule of every extension gradient.  Each
    ring's angular rule starts at 16 points and refines by doubling until
    converged, so maps with fine angular detail stay accurate.  The first
    two levels, which every ring runs, are one _gradient_ring_density call
    of 32 points, and each later level is one call on its new points.
    Their rays are contracted by _ray_sums in the blocks of _ray_blocks: no
    BLAS worker thread starts, and the value does not depend on the BLAS
    thread count.
    Rays that cannot meet the support disc are never sampled, nor are the
    t outside the radial band where a ray can meet it; their sums are exact
    zeros.  Every other sample is evaluated by u itself.
    """
    if u.far_field != "zero":
        raise PreconditionViolation("the truncated oracle needs compact support")
    n_omega, n_gl = _check_ray_rule(n_omega, n_gl)
    R = 6.0 * max(1.0, u.far_radius)
    # the energy density has structure at the support scale and smooth decay
    # beyond it, so the radial rule uses panels split at that scale; a single
    # Gauss rule across the break converges slowly with oscillating sign
    s = u.far_radius if u.far_radius > 0 else 1.0
    r_edges = [0.0, s, 2.0 * s, R]
    rads, wrads = _first_panel_rule(r_edges, 14, 8)
    # the energy density climbs steeply toward the plane (its trace there is
    # the boundary Dirichlet density), on a height scale set by the map's
    # features; geometric panels toward theta = pi/2 resolve every scale
    half_pi = 0.5 * np.pi
    t_edges = [0.0, half_pi - 0.7]
    wall = 0.7
    while wall > 3e-3:
        wall *= 0.3
        t_edges.append(half_pi - wall)
    t_edges.append(half_pi)
    thetas, wthetas = _first_panel_rule(t_edges, 10, 4)

    total = 0.0
    for rad, w_r in zip(rads, wrads):
        for th, w_t in zip(thetas, wthetas):
            x3 = rad * math.cos(th)
            ring_mean = _ring_mean_density(u, rad * math.sin(th), x3, n_omega, n_gl)
            total += (w_r * w_t * 2.0 * np.pi
                      * (rad * rad * math.sin(th)) * ring_mean)
    # dipole tail: u^e ~ gamma_2 M x3 / |X|^3, whose half-space Dirichlet
    # integral beyond radius R is (gamma_2 |M|)^2 * (4 pi / 3) / R^3
    rule = disc_rule(48, 64)
    M = complex(np.sum(u(u.far_radius * rule.nodes) * rule.weights) * u.far_radius**2)
    tail = (GAMMA_2 * abs(M)) ** 2 * (4.0 * np.pi / 3.0) / R**3
    return 0.5 * total + 0.5 * tail


def _extension_value_ring(u: PlaneMap, centers, h: float, n_omega: int, n_gl: int):
    """Poisson extension values for a ring of plane points at one height.

    All ring points share the plane radius so the radial panels are built
    once.  The kernel mass is renormalized over all panels; the values are
    summed over the support band only, by _ray_sums.
    """
    centers = np.asarray(centers, dtype=complex)
    t, wt, t_stop, band = _ray_setup(*_ray_inputs(u, centers, h), h, n_gl)
    kern_w = t * (1.0 + t * t) ** -1.5 * wt
    what = np.exp(2j * np.pi * np.arange(n_omega) / n_omega)
    sums = _ray_sums(u, centers, h, t[band], what, _kernel_pairs(kern_w[band, None]))[:, :, 0]
    tail_mass = _poisson_tail_mass(t_stop)
    num = np.mean(sums, axis=1) + tail_mass * np.mean(u.far_value(what))
    total_mass = float(np.sum(kern_w)) + tail_mass
    return num / total_mass


# The unit points of the oracle's ring levels: 16 uniform points and the 16
# odd points 2 pi (k + 1/2)/16 between them, sampled together; then the odd
# points that refine a rule of n points to 2n, for n = 32 and 64.
_RING_FIRST = np.concatenate([np.exp(1j * (2.0 * np.pi * np.arange(16) / 16)),
                              np.exp(1j * (2.0 * np.pi * (np.arange(16) + 0.5) / 16))])
_RING_LATER = tuple(np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.5) / n)) for n in (32, 64))
for _unit in (_RING_FIRST, *_RING_LATER):
    _unit.setflags(write=False)
del _unit


def _ring_mean_density(u: PlaneMap, r_plane: float, h: float,
                       n_omega: int, n_gl: int) -> float:
    """Angular mean of |grad extension|^2 on one ring, refined by doubling.

    Uniform angular rules interleave under doubling, so every sample is
    reused; rings whose angular structure is finer than the starting rule
    of 16 points escalate until two consecutive levels agree to 2e-5
    relative, or the rule reaches 128 points.  Consecutive levels can agree
    by aliasing accident while both are still wrong, so the stop test only
    counts from 32 points on: every ring runs the first two levels, and
    they are one _gradient_ring_density call of 32 points, the 16 of the
    first level then its 16 odd points.  Each later level is one call on
    its new points only.
    """
    dens = _gradient_ring_density(u, r_plane * _RING_FIRST, h, n_omega, n_gl)
    mean, new = float(np.mean(dens[:16])), dens[16:]
    for unit in _RING_LATER:
        mean2 = 0.5 * (mean + float(np.mean(new)))
        done = abs(mean2 - mean) <= 2e-5 * max(abs(mean2), 1e-30)
        mean = mean2
        if done:
            return mean
        new = _gradient_ring_density(u, r_plane * unit, h, n_omega, n_gl)
    return 0.5 * (mean + float(np.mean(new)))


@lru_cache(maxsize=4)
def _gradient_rule(rad: float, compact: bool, far_radius: float, breaks: tuple,
                   h: float, n_omega: int, n_gl: int):
    """The radial nodes of the support band, the ray directions and the
    _kernel_pairs of both gradient kernels, for the rays of _gradient_ring:
    read-only arrays (t, what, pairs).

    The first four arguments are _ray_inputs, so a rule is reused only
    when every input of _ray_setup is equal, and then it is the same rule
    bit for bit: on these keys == is bit equality, but for a far_radius of
    -0.0, which builds the rule of 0.0, and a NaN, which never matches.
    The later levels of one oracle ring reuse the rule of its first call
    (its first two levels); a level whose first point's radius rounds an
    ulp away builds its own.
    """
    t, wt, _, band = _ray_setup(rad, compact, far_radius, breaks, h, n_gl)
    t, wt = t[band], wt[band]
    what = np.exp(2j * np.pi * np.arange(n_omega) / n_omega)
    base = (1.0 + t * t) ** -2.5
    pairs = _kernel_pairs(np.stack([(3.0 * t * t * base) * wt,
                                    ((t * t - 2.0) * t * base) * wt], axis=1))
    for a in (t, what, pairs):
        a.setflags(write=False)
    return t, what, pairs


def _gradient_ring(u: PlaneMap, centers: np.ndarray, h: float, n_omega: int, n_gl: int):
    """x3 times the gradient (d1, d2, d3) of the extension at plane points of
    one radius and height h, as three arrays over the points.

    In the scaled radial variable t = rho/x3 the kernels are
    3 t^2 (1+t^2)^(-5/2) times the direction component horizontally and
    (t^2 - 2) t (1+t^2)^(-5/2) vertically; both have zero total mass, so
    compactly supported maps need no tail terms once the rays leave the
    support.  All points share the plane radius, so the radial panels are
    built once (_gradient_rule) and both kernels are summed over the
    support band in one pass of _ray_sums.
    """
    t, what, pairs = _gradient_rule(*_ray_inputs(u, centers, h), h, n_omega, n_gl)
    sums = _ray_sums(u, centers, h, t, what, pairs)
    proj_h = sums[:, :, 0]
    # np.mean's own sum and division, without its Python wrapper
    return ((proj_h * what.real).sum(axis=1) / n_omega,
            (proj_h * what.imag).sum(axis=1) / n_omega,
            sums[:, :, 1].sum(axis=1) / n_omega)


def _gradient_ring_density(u: PlaneMap, centers, h: float, n_omega: int, n_gl: int):
    """|grad of the extension|^2 for a ring of plane points at one height."""
    gh, gh2, gv = _gradient_ring(u, np.asarray(centers, dtype=complex), h, n_omega, n_gl)
    return (np.abs(gh) ** 2 + np.abs(gh2) ** 2 + np.abs(gv) ** 2) / (h * h)


def poisson_extend_gradient(u: PlaneMap, X, n_omega: int = 128, n_gl: int = 16):
    """(d1, d2, d3) of the Poisson extension at X via analytic kernel derivatives."""
    x, h = _halfspace_point(X)
    n_omega, n_gl = _check_ray_rule(n_omega, n_gl)
    return tuple(complex(g[0] / h) for g in _gradient_ring(u, np.array([x]), h, n_omega, n_gl))
