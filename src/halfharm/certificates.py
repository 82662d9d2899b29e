"""Numerical certificates behind the minimality analysis.

Every closed-form integral identity used by the energy comparisons is paired
here with an independent quadrature oracle, and the three decisive numerical
verdicts are computed with explicit error control:

* the zero-radius certificate (a radial rewinding budget strictly below 1),
* the higher-degree energy deficit (a competitor-energy integral strictly
  below 2),
* the destabilization margin for tangentially degenerate profiles into
  higher-dimensional spheres (a sharp Hardy constant strictly below 4*pi*d).

Each comparison is packaged as a :class:`CertificateReport`; the full
deterministic battery is assembled by :func:`standard_certificates`, with
per-grid-point detail available from :func:`certificate_tables`.

A note on one denominator: the disc integral certified by
:func:`I_oracle` circulates in two variants, with the quadratic factor
``1 - 2*gamma*z1 + gamma**2*|z|**2`` appearing either to the first power or
squared.  Only the squared variant matches the logarithmic closed form
``pi * F_closed(gamma**2)`` (the first-power variant misses it by up to 2.8),
so the squared variant is canonical here and the adjudication is recorded in
the certificate notes rather than silently resolved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .conformal import cayley_inv
from .errors import DomainViolation, InvalidArgument, NumericalFailure
from .quadrature import (
    IntegrationResult,
    Tolerance,
    _panel_rule,
    adaptive_integrate,
    adaptive_integrate_many,
    circle_rule,
    disc_rule,
    ensure_converged,
    integrate_halfline,
    integrate_line,
)

__all__ = [
    "CertificateReport",
    "F_closed",
    "I_oracle",
    "M_closed",
    "M_oracle",
    "N_closed",
    "N_oracle",
    "A_closed",
    "A_oracle",
    "P_closed",
    "V_closed",
    "V_oracle",
    "U_closed",
    "U_oracle",
    "ratint_closed",
    "ratint_oracle",
    "J_closed",
    "J_oracle",
    "delta_certificate",
    "F1_closed_or_quad",
    "F2_certificate",
    "hardy_constant",
    "sphere_destabilization_margin",
    "standard_certificates",
    "certificate_tables",
]


def _check_range(x: float, name: str, lo: float, hi: float, *, open_lo: bool = False, open_hi: bool = True) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainViolation(f"{name} must be finite, got {x!r}")
    below = x <= lo if open_lo else x < lo
    above = x >= hi if open_hi else x > hi
    if below or above:
        lo_b = "(" if open_lo else "["
        hi_b = ")" if open_hi else "]"
        raise DomainViolation(f"{name} must lie in {lo_b}{lo:g}, {hi:g}{hi_b}, got {x:g}")
    return x


# ---------------------------------------------------------------------------
# report type


@dataclass(frozen=True)
class CertificateReport:
    """One closed-form-versus-oracle comparison with a pass/fail verdict.

    The verdict is "pass" exactly when ``abs_diff <= tolerance``; failing
    reports always carry a non-empty note explaining the discrepancy.
    """

    name: str
    closed_value: float
    oracle_value: float
    abs_diff: float
    tolerance: float
    verdict: str
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidArgument("certificate name must be non-empty")
        for field_name in ("closed_value", "oracle_value", "abs_diff", "tolerance"):
            if not math.isfinite(getattr(self, field_name)):
                raise InvalidArgument(f"{field_name} must be finite")
        if self.tolerance < 0:
            raise InvalidArgument("tolerance must be nonnegative")
        expected = abs(self.closed_value - self.oracle_value)
        if not math.isclose(self.abs_diff, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise InvalidArgument("abs_diff must equal |closed_value - oracle_value|")
        if self.verdict != ("pass" if self.abs_diff <= self.tolerance else "fail"):
            raise InvalidArgument("verdict must be 'pass' iff abs_diff <= tolerance")
        if self.verdict == "fail" and not self.notes:
            raise InvalidArgument("failing certificates must carry a note")

    @classmethod
    def from_values(
        cls, name: str, closed_value: float, oracle_value: float, tolerance: float, notes: str = ""
    ) -> "CertificateReport":
        closed_value = float(closed_value)
        oracle_value = float(oracle_value)
        abs_diff = abs(closed_value - oracle_value)
        verdict = "pass" if abs_diff <= tolerance else "fail"
        if verdict == "fail" and not notes:
            notes = f"closed value deviates from oracle by {abs_diff:.3e} (tolerance {tolerance:.3e})"
        return cls(name, closed_value, oracle_value, abs_diff, float(tolerance), verdict, notes)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# logarithmic disc-integral closed form


def _F_arr(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return ((t * t - 10.0 * t + 1.0) / (1.0 + t) ** 4) * np.log((1.0 - t) ** 2 / 4.0) - (
        t * t + 11.0 * t - 2.0
    ) / (1.0 + t) ** 3


def F_closed(t: float) -> float:
    """Closed form of the normalized disc integral certified by I_oracle.

    ``F(t) = ((t^2-10t+1)/(1+t)^4) * log((1-t)^2/4) - (t^2+11t-2)/(1+t)^3``
    on [0, 1); increasing, with ``F(0) = 2 - 2*log(2)`` and a logarithmic
    divergence at 1.
    """
    t = _check_range(t, "t", 0.0, 1.0)
    return float(_F_arr(t))


# Escalating tensor rules used by the disc-integral oracles.  Gauss radial x
# trapezoid angular converges geometrically for these integrands; the ladder
# stops as soon as two consecutive rules agree to near machine precision.
_DISC_LADDER = ((40, 160), (64, 256), (96, 384), (128, 512))


def _disc_escalate(f, gamma: float) -> float:
    ladder = list(_DISC_LADDER)
    if gamma > 0.9:
        # the integrand peaks near z = 1 with angular width ~ (1 - gamma)
        n_t = int(36.0 / (1.0 - gamma))
        ladder.append((160, max(768, n_t)))
        ladder.append((192, max(1024, 2 * n_t)))
    prev = None
    val = 0.0
    for n_r, n_t in ladder:
        rule = disc_rule(n_r, n_t)
        val = float(np.sum(rule.weights * f(rule.nodes)))
        if prev is not None and abs(val - prev) <= 1e-12 * max(1.0, abs(val)):
            return val
        prev = val
    return val


def I_oracle(gamma: float, squared: bool = True) -> float:
    """Disc quadrature of ((1+|z|^2)^2 - 4 z1^2) / (q(z)^2 (1+|z|^2)^2).

    Here ``q(z) = 1 - 2*gamma*z1 + gamma^2*|z|^2``.  The squared-denominator
    variant (default) is canonical: it equals ``pi * F_closed(gamma**2)`` to
    quadrature precision.  ``squared=False`` evaluates the first-power
    variant, kept only so the adjudication between the two circulating forms
    stays on the record; it does not match the closed form.
    """
    gamma = _check_range(gamma, "gamma", 0.0, 1.0)
    power = 2 if squared else 1

    def integrand(z: np.ndarray) -> np.ndarray:
        x1 = z.real
        r2 = np.abs(z) ** 2
        q = 1.0 - 2.0 * gamma * x1 + gamma * gamma * r2
        return ((1.0 + r2) ** 2 - 4.0 * x1 * x1) / (q**power * (1.0 + r2) ** 2)

    return _disc_escalate(integrand, gamma)


# ---------------------------------------------------------------------------
# angular moments of the squared Poisson-type kernel


def M_closed(a: float) -> float:
    """Closed form of the full-circle moment: 2*pi*(1+a^2)/(1-a^2)^3."""
    a = _check_range(a, "a", 0.0, 1.0)
    return 2.0 * math.pi * (1.0 + a * a) / (1.0 - a * a) ** 3


def N_closed(a: float) -> float:
    """Closed form of the cos^2-weighted moment of the same squared kernel."""
    a = _check_range(a, "a", 0.0, 1.0)
    return 2.0 * math.pi * ((1.0 + a * a) / (1.0 - a * a) ** 3 - 1.0 / (2.0 * (1.0 - a * a)))


# Nodes of the circle rule of the angular-moment and kernel-average oracles.
_CIRCLE_NODES = 4096


def _angular_moment(a: float, weight) -> float:
    rule = circle_rule(_CIRCLE_NODES)
    theta = rule.nodes
    den = (1.0 - 2.0 * a * np.cos(theta) + a * a) ** 2
    return float(np.sum(rule.weights * weight(theta) / den))


def M_oracle(a: float) -> float:
    """Circle-rule quadrature (4096 nodes) of the defining integral of M_closed."""
    a = _check_range(a, "a", 0.0, 1.0)
    return _angular_moment(a, lambda theta: 1.0)


def N_oracle(a: float) -> float:
    """Circle-rule quadrature (4096 nodes) of the defining integral of N_closed."""
    a = _check_range(a, "a", 0.0, 1.0)
    return _angular_moment(a, lambda theta: np.cos(theta) ** 2)


# ---------------------------------------------------------------------------
# disc mass of the squared kernel and the radial building blocks


def A_closed(gamma: float) -> float:
    """Disc mass of the squared kernel: pi/(1-gamma^2)^2."""
    gamma = _check_range(gamma, "gamma", 0.0, 1.0)
    return math.pi / (1.0 - gamma * gamma) ** 2


def A_oracle(gamma: float) -> float:
    """Disc quadrature of 1/q(z)^2 with q as in I_oracle."""
    gamma = _check_range(gamma, "gamma", 0.0, 1.0)

    def integrand(z: np.ndarray) -> np.ndarray:
        x1 = z.real
        r2 = np.abs(z) ** 2
        q = 1.0 - 2.0 * gamma * x1 + gamma * gamma * r2
        return 1.0 / (q * q)

    return _disc_escalate(integrand, gamma)


def P_closed(t: float) -> float:
    """Rational remainder collecting the non-logarithmic radial terms.

    Satisfies the partial-fraction identity
    ``P(t) + 1/(4(1+t)) = (t^2 + 11t - 2)/(4(1+t)^3)`` on [0, 1).
    """
    t = _check_range(t, "t", 0.0, 1.0)
    return (
        1.0 / (4.0 * (1.0 - t))
        + 1.0 / (4.0 * (1.0 + t))
        - 3.0 / (4.0 * (1.0 + t) ** 2)
        + (t * t + 2.0 * t) / ((1.0 + t) ** 2 * (1.0 - t))
        - t / ((1.0 + t) * (1.0 - t))
        - 4.0 * t * t / ((1.0 + t) ** 3 * (1.0 - t))
        - (1.0 - t) / (2.0 * (1.0 + t) ** 3)
    )


def V_closed(t: float) -> float:
    """Closed form of the first-power radial integral of r^3/((1-t r^2)(1+r^2)^2)."""
    t = _check_range(t, "t", 0.0, 1.0)
    return (1.0 / (2.0 * (1.0 + t) ** 2)) * math.log(2.0 / (1.0 - t)) - 1.0 / (4.0 * (1.0 + t))


def U_closed(t: float) -> float:
    """Closed form of the cubed-power radial integral of (1+t r^2) r^3/((1-t r^2)^3 (1+r^2)^2)."""
    t = _check_range(t, "t", 0.0, 1.0)
    return (
        ((t * t - 4.0 * t + 1.0) / (2.0 * (1.0 + t) ** 4)) * math.log(2.0 / (1.0 - t))
        + 1.0 / (8.0 * (1.0 - t) ** 2)
        + 0.5 * P_closed(t)
    )


def V_oracle(t: float) -> float:
    """Adaptive radial quadrature of the defining integral of V_closed."""
    t = _check_range(t, "t", 0.0, 1.0)
    res = adaptive_integrate(
        lambda r: r**3 / ((1.0 - t * r * r) * (1.0 + r * r) ** 2), 0.0, 1.0, singular=(1.0,)
    )
    return ensure_converged(res, f"V_oracle({t!r})")


def U_oracle(t: float) -> float:
    """Adaptive radial quadrature of the defining integral of U_closed."""
    t = _check_range(t, "t", 0.0, 1.0)
    res = adaptive_integrate(
        lambda r: (1.0 + t * r * r) * r**3 / ((1.0 - t * r * r) ** 3 * (1.0 + r * r) ** 2),
        0.0,
        1.0,
        singular=(1.0,),
    )
    return ensure_converged(res, f"U_oracle({t!r})")


# ---------------------------------------------------------------------------
# rational line integral


def _ratint_args(A: float, B: float) -> tuple[float, float]:
    A, B = float(A), float(B)
    for name, x in (("A", A), ("B", B)):
        if not (math.isfinite(x) and x > 0.0):
            raise DomainViolation(f"{name} must be positive, got {x!r}")
    return A, B


def ratint_closed(A: float, B: float) -> float:
    """Closed form of (1/pi) * int_R (x^4+Bx^2+1)/((1+x^2)(x^2+A^2)^2) dx.

    Equals ``(1+A^2)/(2A^3) + (B-2)/(2A(A+1)^2)`` for A, B > 0; collapses to
    1 at (A, B) = (1, 2), where the integrand reduces to 1/(1+x^2).
    """
    A, B = _ratint_args(A, B)
    return (1.0 + A * A) / (2.0 * A**3) + (B - 2.0) / (2.0 * A * (A + 1.0) ** 2)


def ratint_oracle(A: float, B: float) -> float:
    """Tan-substitution line quadrature of the integral behind ratint_closed."""
    A, B = _ratint_args(A, B)

    def integrand(x: np.ndarray) -> np.ndarray:
        x2 = x * x
        return (x2 * x2 + B * x2 + 1.0) / ((1.0 + x2) * (x2 + A * A) ** 2) / math.pi

    return ensure_converged(integrate_line(integrand), f"ratint_oracle({A!r}, {B!r})")


# ---------------------------------------------------------------------------
# circle average of the transplanted Mobius kernel


def _kernel_numerator(u, v):
    """(2t^2+1)t^2 x^3 - (6t^2-1)x^2 + t^2 x + 1 in the variables u=1-x, v=1-t^2.

    The direct polynomial cancels catastrophically near (x, t) = (1, 1);
    this exact rearrangement is a sum of well-scaled terms, so it stays
    accurate uniformly over 0 <= u, v <= 1.
    """
    return (
        2.0 * v * v
        + 2.0 * u * v * (2.0 - 3.0 * v)
        + u * u * (4.0 - 9.0 * v + 6.0 * v * v)
        - u**3 * (1.0 - v) * (3.0 - 2.0 * v)
    )


def _J_params(a: float) -> tuple[float, float]:
    """Scale (1+t)^4/16 and v = 1 - t^2 of J_closed at a, where t = (1-a)/(1+a)."""
    t = (1.0 - a) / (1.0 + a)
    return (1.0 + t) ** 4 / 16.0, 4.0 * a / (1.0 + a) ** 2


def _J_scaled(scale: float, u, v):
    den = u + v - u * v  # equals 1 - lam^2 t^2, positive on the admissible range
    return scale * _kernel_numerator(u, v) / den**3


def J_closed(a: float, lam: float) -> float:
    """Closed form of the circle average of the kernel in J_oracle.

    With ``t = (1-a)/(1+a)``:
    ``J(a, lam) = ((1+t)^4/16) * ((2t^2+1)t^2 lam^6 - (6t^2-1) lam^4 + t^2 lam^2 + 1) / (1 - lam^2 t^2)^3``,
    evaluated through a cancellation-free rearrangement so it stays accurate
    up to lam = 1.  Strictly increasing in lam; ``J(a, 0) = 1/(1+a)^4``.
    """
    a = _check_range(a, "a", 0.0, 1.0, open_lo=True, open_hi=False)
    lam = _check_range(lam, "lam", 0.0, 1.0, open_hi=False)
    t = (1.0 - a) / (1.0 + a)
    if lam * t >= 1.0:
        raise DomainViolation(f"need lam*t < 1, got lam*t = {lam * t!r}")
    u = (1.0 - lam) * (1.0 + lam)
    v = 4.0 * a / (1.0 + a) ** 2  # exact form of 1 - t^2
    return float(_J_scaled(_J_params(a)[0], u, v))


def J_oracle(a: float, lam: float) -> float:
    """Circle-rule (4096 nodes) average of K_a(lam*sigma) over the unit circle.

    ``K_a(z) = |m(z)|^2 / (a^2 + 2a*Im(m(z)) + |m(z)|^2)^2`` with ``m`` the
    inverse Cayley map of the disc onto the upper half-plane.  At lam = 1 the
    point z = 1 is a pole of ``m``; when a node lands there the whole rule is
    shifted by half a step, which keeps the rule deterministic and leaves the
    (continuously extended, zero) integrand value unsampled.
    """
    a = _check_range(a, "a", 0.0, 1.0, open_lo=True, open_hi=False)
    lam = _check_range(lam, "lam", 0.0, 1.0, open_hi=False)
    rule = circle_rule(_CIRCLE_NODES)
    theta = rule.nodes
    z = lam * np.exp(1j * theta)
    if np.any(z == 1.0 + 0.0j):
        theta = theta + math.pi / _CIRCLE_NODES
        z = lam * np.exp(1j * theta)
    w = cayley_inv(z)
    mod2 = np.abs(w) ** 2
    kernel = mod2 / (a * a + 2.0 * a * w.imag + mod2) ** 2
    return float(np.sum(rule.weights * kernel)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# zero-radius certificate


def delta_certificate(delta: float) -> float:
    """Radial rewinding budget sqrt(2) * int_delta^1 sqrt(F_closed(t^2)) dt.

    If a minimizing boundary field held an interior zero of modulus delta,
    the budget at that delta would have to be at least 1; the value at
    delta = 1/3 is about 0.971 < 1, which pins every zero inside radius 1/3.
    The integrand diverges like sqrt(-log(1-t)) at 1 and is handled by a
    geometric panel grading toward that endpoint.  The right endpoint
    delta = 1 is accepted and gives the empty-interval value 0.
    """
    delta = _check_range(delta, "delta", 0.0, 1.0, open_hi=False)
    if delta == 1.0:
        return 0.0
    res = adaptive_integrate(lambda s: np.sqrt(_F_arr(s * s)), delta, 1.0, singular=(1.0,))
    return math.sqrt(2.0) * ensure_converged(res, f"rewinding budget at delta={delta!r}")


# ---------------------------------------------------------------------------
# competitor-energy profile and deficit


_INNER_TOL = Tolerance(abs_tol=1e-11, rel_tol=1e-11, max_refinements=120)
_OUTER_TOL = Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_refinements=400)


def _f1_integrand(s, scale, v):
    """Integrand of F1 at J_closed's (scale, v) in s = 1 - r; at scale 1 and
    v = 1 - t^2 it is the integrand of F2 (see _f2_profile).

    Both have a boundary layer of width ~v at r = 1.  Formed through 1 - r,
    it carries rounding of ~1e-16 absolute, so they are integrated in s,
    where 1 - lam = 8s(2-s)/(4-s)^2 is exact up to relative rounding.
    """
    om = 8.0 * s * (2.0 - s) / (4.0 - s) ** 2
    r = 1.0 - s
    return _J_scaled(scale, om * (2.0 - om), v) * r / (1.0 + r * r) ** 2


def F1_closed_or_quad(a: float) -> float:
    """Radial quadrature int_0^1 J_closed(a, ((3r+1)/(r+3))^2) r/(1+r^2)^2 dr.

    The closed-form kernel average is integrated against the squared envelope
    of a doubly-wound boundary modulus; decreasing in a, with a logarithmic
    divergence as a -> 0 coming from the kernel's mass at lam = 1.
    """
    a = _check_range(a, "a", 0.0, 1.0, open_lo=True, open_hi=False)
    return ensure_converged(_f1_many([a])[0], f"F1 radial integral at a={a!r}")


def _f1_gauss(a: float) -> float:
    """Fixed-rule (400-point Gauss-Legendre) evaluation of the F1 integral, as a cross-rule check."""
    s, w = _panel_rule((0.0, 1.0), 400)
    return float(np.sum(w * _f1_integrand(s, *_J_params(a))))


def _f2_profile(t: float) -> float:
    """Inner integral of the degree-two competitor-energy bound at parameter t.

    The printed integrand is the rational bracket with numerator
    ``(2t^2+1)t^2 p^12 - (6t^2-1) p^8 q^4 + t^2 p^4 q^8 + q^12`` over
    ``(q^4 - p^4 t^2)^3`` (p = 3r+1, q = r+3), times r/(1+r^2)^2.  Dividing
    through by q^12 turns the bracket into exactly the kernel quotient of
    J_closed, which is evaluated here in its cancellation-free form; the two
    agree to machine precision away from the ill-conditioned (r, t) = (1, 1)
    corner of the direct evaluation.
    """
    return ensure_converged(_f2_many([t])[0], f"F2 inner integral at t={t!r}")


def _f2_many(ts) -> list[IntegrationResult]:
    """The F2 inner integral at every t of ts, batched."""
    return adaptive_integrate_many(lambda s, v: _f1_integrand(s, 1.0, v),
                                   [(1.0 - t) * (1.0 + t) for t in ts], 0.0, 1.0,
                                   _INNER_TOL, singular=(0.0,))


def _f1_many(avals) -> list[IntegrationResult]:
    """The F1 radial integral at every a of avals in (0, 1], batched."""
    return adaptive_integrate_many(lambda s, p: _f1_integrand(s, p[:, 0], p[:, 1]),
                                   [_J_params(a) for a in avals], 0.0, 1.0,
                                   _INNER_TOL, singular=(0.0,))


class _InnerIntegrals:
    """Vectorized outer integrand whose values are inner integrals, each
    computed once per distinct node: the nodes of one call are batched.
    An inner integral that fails ensure_converged raises NumericalFailure."""

    def __init__(self, integrate_many, what: str) -> None:
        self._integrate_many = integrate_many
        self._what = what
        self.results: dict[float, IntegrationResult] = {}

    def __call__(self, nodes) -> np.ndarray:
        keys = np.asarray(nodes, dtype=float).ravel().tolist()
        todo = [x for x in dict.fromkeys(keys) if x not in self.results]
        for x, res in zip(todo, self._integrate_many(todo)):
            ensure_converged(res, f"{self._what}={x!r}")
            self.results[x] = res
        return np.array([self.results[x].value for x in keys])

    def errors(self, nodes) -> np.ndarray:
        return np.array([self.results[x].error for x in np.asarray(nodes, dtype=float).tolist()])


@dataclass(frozen=True)
class _F2Block:
    """The three outer integrals behind the deficit verdict, with what the
    nested inner integrals contributed to the error of the first."""

    main: IntegrationResult  # int_0^1 F2
    sqrt_f1: IntegrationResult  # int_0^1 sqrt(F1)
    sqrt_f2: IntegrationResult  # int_0^1 sqrt(F2)
    nested_error: float  # inner error estimates of F2 under the outer weights of main


@lru_cache(maxsize=1)
def _f2_block() -> _F2Block:
    """Outer quadratures shared by F2_certificate and the substitution check.

    int F2 and int sqrt(F2) share one set of inner integrals; F1 has its own.
    Every inner integral must converge: one that fails
    quadrature.ensure_converged raises NumericalFailure.
    """
    f2 = _InnerIntegrals(_f2_many, "F2 inner integral at t")
    f1 = _InnerIntegrals(_f1_many, "F1 radial integral at a")
    main = adaptive_integrate(f2, 0.0, 1.0, _OUTER_TOL, singular=(1.0,))
    sqrt_f2 = adaptive_integrate(lambda t: np.sqrt(f2(t)), 0.0, 1.0, _OUTER_TOL,
                                 singular=(1.0,))
    sqrt_f1 = adaptive_integrate(lambda a: np.sqrt(f1(a)), 0.0, 1.0, _OUTER_TOL,
                                 singular=(0.0,))
    # the outer rule on its seed panels, applied to the inner error estimates;
    # these are main's weights as long as main converged without bisecting
    nested = adaptive_integrate_many(lambda t, _: f2.errors(t), [0.0], 0.0, 1.0,
                                     Tolerance(max_refinements=0), singular=(1.0,))[0]
    if nested.panels != main.panels:
        raise NumericalFailure("int F2 bisected its seed panels, so the inner error "
                               "estimates cannot be weighted into its error bar")
    return _F2Block(main, sqrt_f1, sqrt_f2, nested.value)


def F2_certificate() -> CertificateReport:
    """Certify the strict energy deficit of doubly-wound homogeneous competitors.

    Computes ``4 * int_0^1 F2(t) dt`` by nested adaptive quadrature (target
    about 1.93, verdict band +/- 0.03, which keeps the value strictly below
    the critical threshold 2 even at the upper error bar), cross-checks the
    substitution identity ``4 int sqrt(F1) = 2 int sqrt(F2)`` to 1e-4, and
    records the concavity chain ``2 int sqrt(F2) <= 2 sqrt(int F2)``.
    The upper error bar adds to the outer error estimate the inner error
    estimates under the outer weights.  Every inner and outer quadrature
    must converge: NumericalFailure is raised if one fails
    quadrature.ensure_converged, or if the cross-checks disagree.
    """
    block = _f2_block()
    value = 4.0 * ensure_converged(block.main, "int F2")
    err = 4.0 * (block.main.error + block.nested_error)
    lhs = 4.0 * ensure_converged(block.sqrt_f1, "int sqrt(F1)")
    rhs = 2.0 * ensure_converged(block.sqrt_f2, "int sqrt(F2)")
    sub_diff = abs(lhs - rhs)
    if sub_diff > 1e-4:
        raise NumericalFailure(
            f"substitution cross-check failed: |4*int sqrt(F1) - 2*int sqrt(F2)| = {sub_diff:.3e}"
        )
    cs_rhs = 2.0 * math.sqrt(block.main.value)
    if rhs > cs_rhs + 1e-12:
        raise NumericalFailure("concavity chain violated by the computed averages")
    notes = (
        f"upper error bar {value + err:.9f} stays below 2; "
        f"substitution cross-check |4*int sqrt(F1) - 2*int sqrt(F2)| = {sub_diff:.2e}; "
        f"concavity chain 2*int sqrt(F2) = {rhs:.8f} <= 2*sqrt(int F2) = {cs_rhs:.8f}"
    )
    return CertificateReport.from_values("higher-degree-energy-deficit", value, 1.93, 0.03, notes)


# ---------------------------------------------------------------------------
# Hardy constant and destabilization margin

# Reference values of the gamma function at the quarter-integers, frozen from
# standard tables; math.gamma is checked against them (they satisfy the exact
# reflection product gamma(1/4)*gamma(3/4) = pi*sqrt(2)).
_GAMMA_QUARTER = 3.6256099082219083
_GAMMA_THREE_QUARTER = 1.2254167024651776


def hardy_constant() -> float:
    """Sharp constant 8*pi*(gamma(3/4)/gamma(1/4))^2 of the planar half-order Hardy inequality."""
    return 8.0 * math.pi * (math.gamma(0.75) / math.gamma(0.25)) ** 2


def sphere_destabilization_margin(d: int) -> float:
    """4*pi*d minus the sharp Hardy constant, for integer degree d >= 1.

    The second variation of a degree-d equatorial profile in a sphere of
    dimension at least 3 is bounded below by a Hardy quotient; positivity of
    this margin shows the required stability inequality fails for every
    d >= 1, so only constants minimize there.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise DomainViolation(f"d must be an integer, got {d!r}")
    if d < 1:
        raise DomainViolation(f"d must be at least 1, got {d}")
    return 4.0 * math.pi * float(d) - hardy_constant()


# ---------------------------------------------------------------------------
# polar resolvent identity


def _polar_oracle(c: float) -> float:
    """Half-line quadrature of int_0^inf rho (1 - 2 rho c + rho^2)^(-3/2) drho."""
    res = integrate_halfline(lambda rho: rho * (1.0 - 2.0 * rho * c + rho * rho) ** -1.5)
    return ensure_converged(res, f"polar resolvent integral at c={c!r}")


# ---------------------------------------------------------------------------
# the standard battery


_GAMMA_GRID = tuple(round(0.1 * k, 10) for k in range(10))
_RATINT_A_GRID = tuple(float(x) for x in np.linspace(0.25, 3.0, 10))
_RATINT_B_GRID = tuple(float(x) for x in np.linspace(0.25, 10.0, 10))
_KERNEL_A_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))
_POLAR_GRID = tuple(round(-0.9 + 0.2 * k, 10) for k in range(10))


def _paired_rows(points, label: str, closed, oracle):
    """(argument, closed, oracle, |closed - oracle|) rows, closed first at each point.

    A point is one argument or a tuple of arguments; label names them,
    comma-separated.
    """
    names = label.split(",")
    rows = []
    for point in points:
        args = point if isinstance(point, tuple) else (point,)
        c = closed(*args)
        o = oracle(*args)
        rows.append((",".join(f"{n}={x:g}" for n, x in zip(names, args)), c, o, abs(c - o)))
    return tuple(rows)


@lru_cache(maxsize=1)
def _disc_rows():
    return _paired_rows(_GAMMA_GRID, "gamma", lambda g: math.pi * F_closed(g * g), I_oracle)


@lru_cache(maxsize=1)
def _mass_rows():
    return _paired_rows(_GAMMA_GRID, "gamma", A_closed, A_oracle)


@lru_cache(maxsize=1)
def _m_rows():
    return _paired_rows(_GAMMA_GRID, "a", M_closed, M_oracle)


@lru_cache(maxsize=1)
def _n_rows():
    return _paired_rows(_GAMMA_GRID, "a", N_closed, N_oracle)


@lru_cache(maxsize=1)
def _v_rows():
    return _paired_rows(_GAMMA_GRID, "t", V_closed, V_oracle)


@lru_cache(maxsize=1)
def _u_rows():
    return _paired_rows(_GAMMA_GRID, "t", U_closed, U_oracle)


@lru_cache(maxsize=1)
def _partial_fraction_rows():
    return _paired_rows(tuple(float(t) for t in np.linspace(0.0, 0.95, 20)), "t",
                        lambda t: P_closed(t) + 1.0 / (4.0 * (1.0 + t)),
                        lambda t: (t * t + 11.0 * t - 2.0) / (4.0 * (1.0 + t) ** 3))


@lru_cache(maxsize=1)
def _ratint_rows():
    return _paired_rows(tuple(itertools.product(_RATINT_A_GRID, _RATINT_B_GRID)), "A,B",
                        ratint_closed, ratint_oracle)


@lru_cache(maxsize=1)
def _kernel_rows():
    return _paired_rows(tuple(itertools.product(_KERNEL_A_GRID, _GAMMA_GRID)), "a,lam",
                        J_closed, J_oracle)


@lru_cache(maxsize=1)
def _kernel_rim_rows():
    return _paired_rows(tuple((a, 1.0) for a in (0.1, 0.3, 0.5, 1.0)), "a,lam", J_closed, J_oracle)


@lru_cache(maxsize=1)
def _f1_rows():
    return _paired_rows(_KERNEL_A_GRID, "a", F1_closed_or_quad, _f1_gauss)


@lru_cache(maxsize=1)
def _polar_rows():
    return _paired_rows(_POLAR_GRID, "c", lambda c: 1.0 / (1.0 - c), _polar_oracle)


# Every family of closed-form-versus-oracle rows: its certificate_tables()
# key -> (report name, rows, tolerance, note).  The battery reports the
# family's worst row.
_FAMILIES = {
    "disc_integral": ("disc-integral-closed-form", _disc_rows, 1e-7,
                      f"worst point of a {len(_GAMMA_GRID)}-point gamma grid"),
    "disc_kernel_mass": ("disc-kernel-mass", _mass_rows, 1e-7, ""),
    "angular_moment_flat": ("angular-moment-flat", _m_rows, 1e-9, ""),
    "angular_moment_cos2": ("angular-moment-cos2", _n_rows, 1e-9, ""),
    "radial_log_first_power": ("radial-log-first-power", _v_rows, 1e-9, ""),
    "radial_log_cubed": ("radial-log-cubed", _u_rows, 1e-9, ""),
    "partial_fraction_identity": (
        "partial-fraction-identity", _partial_fraction_rows, 1e-12,
        "rational identity for the non-logarithmic remainder, 20-point grid"),
    "rational_line_integral": (
        "rational-line-integral", _ratint_rows, 1e-9,
        f"worst point of a {len(_RATINT_A_GRID)}x{len(_RATINT_B_GRID)} (A, B) grid"),
    "mobius_kernel_average": (
        "mobius-kernel-average", _kernel_rows, 1e-8,
        f"worst point of a {len(_KERNEL_A_GRID)}x{len(_GAMMA_GRID)} (a, lam) grid"),
    "mobius_kernel_rim": (
        "mobius-kernel-rim", _kernel_rim_rows, 1e-8,
        "lam=1 column; quadrature nodes shifted half a step off the rim pole"),
    "unwound_kernel_profile": (
        "unwound-kernel-profile", _f1_rows, 1e-9,
        "adaptive quadrature cross-checked against a fixed 400-point Gauss rule"),
    "radial_resolvent_identity": (
        "radial-resolvent-identity", _polar_rows, 1e-8,
        f"worst point of a {len(_POLAR_GRID)}-point grid on (-1, 1)"),
}


def certificate_tables() -> dict[str, list[tuple[str, float, float, float]]]:
    """Per-grid-point (argument, closed, oracle, diff) rows for every family.

    This is the detail behind standard_certificates(), intended for CSV dumps
    and plots; each family covers at least ten points per scalar parameter.
    """
    return {key: list(rows()) for key, (_name, rows, _tol, _notes) in _FAMILIES.items()}


def _worst(key: str) -> CertificateReport:
    name, rows, tolerance, notes = _FAMILIES[key]
    arg, closed, oracle, _diff = max(rows(), key=lambda row: row[3])
    return CertificateReport.from_values(f"{name}[{arg}]", closed, oracle, tolerance, notes)


def _adjudication() -> CertificateReport:
    closed = math.pi * F_closed(0.25)
    squared = I_oracle(0.5, squared=True)
    first = I_oracle(0.5, squared=False)
    notes = (
        f"at gamma=0.5 the squared-denominator variant deviates by {abs(squared - closed):.2e} "
        f"and the first-power variant by {abs(first - closed):.2e}; the squared variant is the "
        "one matching pi*F_closed(gamma^2) and is canonical"
    )
    return CertificateReport.from_values("quadratic-power-adjudication", closed, squared,
                                         _FAMILIES["disc_integral"][2], notes)


def _zero_radius() -> CertificateReport:
    value = delta_certificate(1.0 / 3.0)
    notes = f"value {value:.9f} < 1 certifies that minimizing fields keep interior zeros inside radius 1/3"
    return CertificateReport.from_values("zero-radius-certificate", value, 0.971, 0.005, notes)


def _deficit() -> list[CertificateReport]:
    main_report = F2_certificate()
    block = _f2_block()
    substitution = CertificateReport.from_values(
        "substitution-identity",
        4.0 * block.sqrt_f1.value,
        2.0 * block.sqrt_f2.value,
        1e-4,
        "the two parameterizations of the competitor-energy profile integrate identically",
    )
    return [main_report, substitution]


def _hardy() -> list[CertificateReport]:
    frozen = 8.0 * math.pi * (_GAMMA_THREE_QUARTER / _GAMMA_QUARTER) ** 2
    value = hardy_constant()
    return [
        CertificateReport.from_values("hardy-sharp-constant", value, frozen, 1e-10,
                                      f"ratio to 4*pi is {value / (4.0 * math.pi):.6f} < 1"),
        *(CertificateReport.from_values(
            f"destabilization-margin[d={d}]", sphere_destabilization_margin(d),
            4.0 * math.pi * d - frozen, 1e-10,
            f"positive margin rules out degree-{d} homogeneous minimizers into higher spheres")
          for d in (1, 2, 3)),
    ]


def standard_certificates() -> list[CertificateReport]:
    """Run the full deterministic certificate battery.

    Every closed form is compared with its independent oracle on its
    published grid (the worst grid point is reported; per-point rows are in
    certificate_tables()), and the three decisive verdicts are included.
    The reports are built in this fixed order, in the calling thread.
    """
    return [
        _worst("disc_integral"),
        _adjudication(),
        _worst("disc_kernel_mass"),
        _worst("angular_moment_flat"),
        _worst("angular_moment_cos2"),
        _worst("radial_log_first_power"),
        _worst("radial_log_cubed"),
        _worst("partial_fraction_identity"),
        _worst("rational_line_integral"),
        _worst("mobius_kernel_average"),
        _worst("mobius_kernel_rim"),
        _zero_radius(),
        _worst("unwound_kernel_profile"),
        *_deficit(),
        *_hardy(),
        _worst("radial_resolvent_identity"),
    ]
