"""Deterministic quadrature rules.

Everything here is plain numerics shared by the rest of the package: one
composite Gauss-Legendre builder for intervals (_panel_rule), tensor rules
on the circle / disc / upper hemisphere, and a
deterministic adaptive integrator (embedded 7/15-point
Gauss pair, worst-panel-first bisection, geometric grading toward declared
singular points) with the package's one convergence check, ensure_converged.

The adaptive integrator is one engine with two entry points.
adaptive_integrate runs one integral; adaptive_integrate_many runs a family
f(x, p) of them in lockstep, sampling every in-flight integral's next panels
in one integrand call, so nested integrals cost one vectorized call per
round rather than one per outer node.  Each integral keeps its panels in a
heap ordered worst-first (the QUADPACK QAG worklist; Piessens et al., 1983,
and Gander & Gautschi, BIT 2000) with running sums whose rounding is bounded;
the stop decision and the returned sums are exact math.fsum results, and the
weights are contracted one integral at a time, so with an integrand that
acts elementwise a batched integral returns exactly what it returns alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conformal import stereo, stereo_density
from .errors import InvalidArgument, NumericalFailure

__all__ = [
    "QuadRule",
    "Tolerance",
    "IntegrationResult",
    "ensure_converged",
    "circle_rule",
    "disc_rule",
    "hemisphere_rule",
    "integrate",
    "adaptive_integrate",
    "adaptive_integrate_many",
    "integrate_line",
    "integrate_halfline",
]


# --------------------------------------------------------------------------- rules


@dataclass(frozen=True)
class QuadRule:
    """Nodes and positive weights of a rule on one of three domains.

    circle_rule's nodes are angles in [0,2pi), disc_rule's are complex
    points of the open unit disc, and hemisphere_rule's are unit 3-vectors
    (rows) with third coordinate > 0.  Weights sum to the domain measure
    (2pi, pi, 2pi).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.weights <= 0):
            raise InvalidArgument("quadrature weights must be positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for adaptive integration: finite tolerances >= 0 with
    a positive sum, and an integer max_refinements >= 0 (bools refused)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_refinements: int = 40

    def __post_init__(self) -> None:
        if not (all(math.isfinite(t) and t >= 0 for t in (self.abs_tol, self.rel_tol))
                and self.abs_tol + self.rel_tol > 0):
            raise InvalidArgument("need abs_tol + rel_tol > 0, both finite and nonnegative")
        m = self.max_refinements
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
            raise InvalidArgument(f"max_refinements must be an integer >= 0, got {m!r}")

    def target(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


def _check_count(n, name: str) -> int:
    """n as an int, if it is an integer >= 1 (bools refused); a rule size."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgument(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def circle_rule(n: int) -> QuadRule:
    """Uniform n-point rule on the circle; nodes are angles 2*pi*k/n.

    Raises InvalidArgument unless n is an integer >= 2."""
    if _check_count(n, "circle_rule's n") < 2:
        raise InvalidArgument("circle_rule needs n >= 2")
    angles = 2.0 * np.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * np.pi / n)
    return QuadRule(angles, weights)


def _panel_rule(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite n-point Gauss-Legendre rule on the panels between
    consecutive edges, as flat (nodes, weights) in panel order."""
    x, w = _leggauss(int(n))
    lo = np.array(edges[:-1], dtype=float)
    hi = np.array(edges[1:], dtype=float)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def disc_rule(n_r: int, n_t: int) -> QuadRule:
    """Tensor polar rule on the unit disc (radial Gauss x uniform angles).

    The polar Jacobian r is folded into the weights, so integrate() sums
    plain integrand values at the complex nodes.  Raises InvalidArgument
    unless n_r is an integer >= 1 and n_t an integer >= 2.
    """
    n_r = _check_count(n_r, "disc_rule's n_r")
    if _check_count(n_t, "disc_rule's n_t") < 2:
        raise InvalidArgument("disc_rule needs n_t >= 2")
    r, wr = _panel_rule((0.0, 1.0), n_r)
    angles = 2.0 * np.pi * np.arange(n_t) / n_t
    z = (r[:, None] * np.exp(1j * angles)[None, :]).ravel()
    w = ((wr * r)[:, None] * np.full(n_t, 2.0 * np.pi / n_t)[None, :]).ravel()
    return QuadRule(z, w)


def hemisphere_rule(n_r: int, n_t: int) -> QuadRule:
    """Rule on the upper unit hemisphere, pulled back through the conformal
    disc chart with area density 4/(1+|z|^2)^2; weights sum to 2*pi."""
    base = disc_rule(n_r, n_t)
    return QuadRule(stereo(base.nodes), base.weights * stereo_density(base.nodes))


def integrate(rule: QuadRule, f) -> float | complex:
    """Apply a rule to a vectorized integrand: f(rule.nodes) returns one
    real or complex value per node, and the weighted sum is returned."""
    return np.asarray(f(rule.nodes)) @ rule.weights


# --------------------------------------------------------------------------- adaptive


@dataclass(frozen=True)
class IntegrationResult:
    """Value with an error estimate; unpacks as (value, error)."""

    value: float
    error: float
    converged: bool = True
    panels: int = 0

    def __iter__(self):
        yield self.value
        yield self.error


def ensure_converged(result: IntegrationResult, what: str) -> float:
    """The value of an adaptive result.

    Raises NumericalFailure unless the result converged or its error
    estimate is within 1e-6 of max(1, |value|): a refinement budget spent
    just short of a tight tolerance is accepted, nothing looser.
    """
    if not result.converged and result.error > 1e-6 * max(1.0, abs(result.value)):
        raise NumericalFailure(
            f"{what} did not converge: value {result.value!r}, error estimate {result.error!r}"
        )
    return float(result.value)


# At most this many integrals of one adaptive_integrate_many call hold panels
# at once.  The seed panels of every newly admitted integral are sampled in a
# single integrand call, so the cap bounds the integrand's temporaries as well
# as the panel heaps.  On the certificate battery (x86-64, numpy 2.4) 32 keeps
# the peak resident memory at that of one-at-a-time integration, where 64
# adds ~1.5 MB and 96 ~4 MB, at a small cost in time.
_MAX_IN_FLIGHT = 32

_UNIT_ROUNDOFF = 2.0**-53


def _sample(f, x: np.ndarray, p) -> np.ndarray:
    """f at the nodes x (one row per panel); p holds each panel's parameters."""
    if p is None:
        return np.asarray(f(x.ravel()), dtype=float)
    return np.asarray(f(x.ravel(), np.repeat(p, x.shape[1], axis=0)), dtype=float)


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray, p, blocks) -> tuple[np.ndarray, np.ndarray]:
    """15-point value and |15-point - 7-point| discrepancy per panel.

    All panels are sampled in one integrand call per rule.  The contraction
    with the weights runs separately on each (start, stop) row block, one
    block per integral, because a BLAS matrix-vector product may round a row
    differently depending on where it sits in a larger matrix: contracted
    alone, an integral's rows round as they do when it is integrated alone.
    """
    x7, w7 = _leggauss(7)
    x15, w15 = _leggauss(15)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    y15 = _sample(f, mid + half * x15[None, :], p).reshape(len(lo), 15)
    y7 = _sample(f, mid + half * x7[None, :], p).reshape(len(lo), 7)
    s15 = np.empty(len(lo))
    s7 = np.empty(len(lo))
    for start, stop in blocks:
        np.matmul(y15[start:stop], w15, out=s15[start:stop])
        np.matmul(y7[start:stop], w7, out=s7[start:stop])
    half = half[:, 0]
    v15 = s15 * half
    return v15, np.abs(v15 - s7 * half)


def _seed_panels(a: float, b: float, singular, grade_levels: int) -> list[tuple[float, float]]:
    """Split [a,b] at declared singular points, grading geometrically toward each."""
    pts = sorted(p for p in singular if a <= p <= b)
    cuts = [a] + [p for p in pts if a < p < b] + [b]
    panels: list[tuple[float, float]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sing_lo = any(lo == p for p in pts)
        sing_hi = any(hi == p for p in pts)
        span = hi - lo
        if span <= 0:
            continue
        # fractional edges of the sub-span, graded with ratio 1/2 toward each
        # singular endpoint; mild uniform seeding otherwise
        if not sing_lo and not sing_hi:
            fracs = [k / 8 for k in range(9)]
        elif sing_lo and sing_hi:
            left = [0.0] + [0.5 * 2.0 ** (-k) for k in range(grade_levels, -1, -1)]
            right = [1.0 - 0.5 * 2.0 ** (-k) for k in range(1, grade_levels + 1)] + [1.0]
            fracs = left + right
        elif sing_lo:
            fracs = [0.0] + [2.0 ** (-k) for k in range(grade_levels, -1, -1)]
        else:
            fracs = [1.0 - 2.0 ** (-k) for k in range(grade_levels + 1)] + [1.0]
        edges = [lo + span * e for e in fracs]
        panels.extend((e0, e1) for e0, e1 in zip(edges[:-1], edges[1:]) if e1 > e0)
    return panels


class _Worklist:
    """Panels of one integral: a heap ordered worst-first by (largest error,
    smallest lo), the panels frozen at machine resolution, and running sums
    of the values and errors with a bound on their rounding."""

    __slots__ = ("heap", "frozen", "value", "error", "abs_value", "abs_error", "ops", "splits",
                 "pending", "result")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray, errs: np.ndarray) -> None:
        self.heap = list(zip((-errs).tolist(), lo.tolist(), hi.tolist(), vals.tolist()))
        heapq.heapify(self.heap)
        self.frozen: list[tuple[float, float, float, float]] = []
        self.value = math.fsum(vals)
        self.error = math.fsum(errs)
        self.abs_value = math.fsum(np.abs(vals).tolist())
        self.abs_error = self.error
        self.ops = 0  # running-sum updates since the sums were last exact
        self.splits = 0
        self.pending: tuple[float, float, float, float, float] | None = None
        self.result: IntegrationResult | None = None

    def _totals(self) -> tuple[float, float]:
        panels = self.heap + self.frozen
        return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)

    def _converged(self, tol: Tolerance) -> bool:
        """The stop test on the exact (correctly rounded) sums.

        The running sums are off by at most ops * u * (sum of |terms| ever
        added); they may only rule convergence out, with twice that slack.
        Any other case is decided by math.fsum over the panels.
        """
        slack = 2.0 * (self.ops + 1) * _UNIT_ROUNDOFF
        floor = self.error - slack * self.abs_error
        if floor > (1.0 + 1e-12) * tol.target(abs(self.value) + slack * self.abs_value):
            return False
        self.value, self.error = self._totals()
        self.abs_value = math.fsum(abs(p[3]) for p in self.heap + self.frozen)
        self.abs_error = self.error
        self.ops = 0
        return self.error <= tol.target(self.value)

    def advance(self, tol: Tolerance) -> bool:
        """Pick the next panel to bisect into self.pending; False once the
        integral is finished and self.result is set."""
        while self.splits < tol.max_refinements:
            if self._converged(tol):
                self.result = IntegrationResult(self.value, self.error, True, len(self.heap) + len(self.frozen))
                return False
            if not self.heap:
                break
            neg_err, lo, hi, val = heapq.heappop(self.heap)
            mid = 0.5 * (lo + hi)
            # splitting below ~1e-12 of the endpoint magnitude risks rounding a
            # quadrature node onto a singular endpoint; freeze such panels instead
            if not (lo < mid < hi) or (hi - lo) <= 1e-12 * max(abs(lo), abs(hi)):
                self.frozen.append((neg_err, lo, hi, val))
                continue
            self.pending = (neg_err, lo, mid, hi, val)
            return True
        value, error = self._totals()
        self.result = IntegrationResult(value, error, error <= tol.target(value), len(self.heap) + len(self.frozen))
        return False

    def split(self, v0: float, v1: float, e0: float, e1: float) -> None:
        """Replace the pending panel by its halves, of values v0, v1 and errors e0, e1."""
        neg_err, lo, mid, hi, val = self.pending
        if not all(map(math.isfinite, (v0, v1, e0, e1))):
            raise NumericalFailure(f"non-finite integrand samples in refined panel [{lo}, {hi}]")
        heapq.heappush(self.heap, (-e0, lo, mid, v0))
        heapq.heappush(self.heap, (-e1, mid, hi, v1))
        self.value += v0 + v1 - val
        self.error += e0 + e1 + neg_err
        self.abs_value += abs(v0) + abs(v1) + abs(val)
        self.abs_error += e0 + e1 - neg_err
        self.ops += 3
        self.splits += 1
        self.pending = None


def _check_seed(vals, errs, lo, hi, singular) -> None:
    bad_mask = ~(np.isfinite(vals) & np.isfinite(errs))
    if not bad_mask.any():
        return
    bad = int(np.argmax(bad_mask))
    near_sing = any(min(abs(lo[bad] - s), abs(hi[bad] - s)) <= (hi[bad] - lo[bad]) for s in singular)
    raise NumericalFailure(
        "non-finite integrand samples "
        + ("adjacent to a declared singular point" if near_sing else "off the declared singular set")
        + f" in panel [{lo[bad]}, {hi[bad]}]"
    )


def _integrate(f, params, a: float, b: float, tol: Tolerance | None, singular, grade_levels: int):
    """The adaptive engine: integrals of f over [a,b], one per row of params
    (a single integral of f(x) when params is None), advanced in lockstep."""
    tol = tol or Tolerance()
    if not b > a:
        raise InvalidArgument("need b > a")
    seed = _seed_panels(a, b, singular, grade_levels)
    seed_lo = np.array([p[0] for p in seed])
    seed_hi = np.array([p[1] for p in seed])
    n_seed = len(seed)
    count = 1 if params is None else len(params)
    results: list[IntegrationResult | None] = [None] * count
    admitted = 0
    active: list[tuple[int, _Worklist]] = []
    while admitted < count or active:
        fresh = range(admitted, min(count, admitted + _MAX_IN_FLIGHT - len(active)))
        admitted = fresh.stop
        split_lo: list[float] = []
        split_hi: list[float] = []
        for _, work in active:
            _, lo, mid, hi, _ = work.pending
            split_lo += (lo, mid)
            split_hi += (mid, hi)
        lo = np.concatenate([np.tile(seed_lo, len(fresh)), split_lo])
        hi = np.concatenate([np.tile(seed_hi, len(fresh)), split_hi])
        base = n_seed * len(fresh)
        blocks = [(n_seed * i, n_seed * (i + 1)) for i in range(len(fresh))]
        blocks += [(base + 2 * j, base + 2 * j + 2) for j in range(len(active))]
        p = None
        if params is not None:
            owners = np.concatenate([np.repeat(np.arange(fresh.start, fresh.stop), n_seed),
                                     np.repeat([k for k, _ in active], 2)]).astype(int)
            p = params[owners]
        vals, errs = _panel_estimates(f, lo, hi, p, blocks)
        works = []
        for k, (start, stop) in zip(fresh, blocks):
            _check_seed(vals[start:stop], errs[start:stop], seed_lo, seed_hi, singular)
            works.append((k, _Worklist(seed_lo, seed_hi, vals[start:stop], errs[start:stop])))
        split_vals = vals[base:].tolist()
        split_errs = errs[base:].tolist()
        for j, (k, work) in enumerate(active):
            work.split(split_vals[2 * j], split_vals[2 * j + 1], split_errs[2 * j], split_errs[2 * j + 1])
            works.append((k, work))
        active = []
        for k, work in works:
            if work.advance(tol):
                active.append((k, work))
            else:
                results[k] = work.result
    return results


def adaptive_integrate(
    f,
    a: float,
    b: float,
    tol: Tolerance | None = None,
    singular: tuple[float, ...] = (),
    grade_levels: int = 40,
) -> IntegrationResult:
    """Integrate a vectorized f over [a,b] with deterministic adaptive bisection.

    Singular points (where f may be unbounded but integrable) must be declared;
    panels are pre-graded toward them and nodes never touch them.  Non-finite
    samples raise NumericalFailure.

    The worklist is the QUADPACK QAG design (Piessens et al., 1983): panels
    sit in a heap ordered by largest error estimate, then smallest left end,
    and the worst one is bisected until the summed error meets tol, the
    refinement budget is spent or every panel is frozen at machine
    resolution.  Running sums of the values and errors keep each step cheap
    but decide nothing by themselves: they may rule convergence out only by
    more than a rigorous bound on their rounding, every other stop test is
    made on math.fsum over the panels, and the returned value and error are
    such sums.  fsum is correctly rounded, so the result does not depend on
    the order in which panels were split or summed.

    This is adaptive_integrate_many with a single integral.
    """
    return _integrate(f, None, a, b, tol, singular, grade_levels)[0]


def adaptive_integrate_many(
    f,
    params,
    a: float,
    b: float,
    tol: Tolerance | None = None,
    singular: tuple[float, ...] = (),
    grade_levels: int = 40,
) -> list[IntegrationResult]:
    """Integrate f(x, p) over [a,b] for every row p of params, in lockstep.

    f receives the nodes and, aligned with them, the parameter row of the
    integral each node belongs to.  Each round samples the panels that every
    integral in flight bisects, or its seed panels if it was just admitted,
    in one call of f; at most a fixed number of integrals is in flight.
    The weights are contracted one integral at a time, so for an f that
    acts elementwise each result equals adaptive_integrate on
    ``lambda x: f(x, p)`` bit for bit.
    """
    return _integrate(f, np.asarray(params, dtype=float), a, b, tol, singular, grade_levels)


def _tan_substituted(f):
    """The integrand in s of the substitution x = tan(s): f(x) * dx/ds."""

    def g(s):
        x = np.tan(s)
        return np.asarray(f(x)) * (1.0 + x * x)

    return g


def integrate_line(f, singular: tuple[float, ...] = ()) -> IntegrationResult:
    """Integrate f over the whole real line via x = tan(s), s in (-pi/2, pi/2),
    to the default Tolerance.

    Suitable for integrands decaying at least like x^-2; the substituted
    integrand is bounded near the endpoints, which are graded anyway.
    """
    sing = tuple(math.atan(p) for p in singular) + (-math.pi / 2, math.pi / 2)
    return adaptive_integrate(_tan_substituted(f), -math.pi / 2, math.pi / 2,
                              singular=sing, grade_levels=44)


def integrate_halfline(f, singular: tuple[float, ...] = ()) -> IntegrationResult:
    """Integrate f over (0, infinity) via x = tan(s), s in (0, pi/2), to the
    default Tolerance."""
    sing = tuple(math.atan(p) for p in singular if p > 0)
    if any(p == 0 for p in singular):
        sing = sing + (0.0,)
    return adaptive_integrate(_tan_substituted(f), 0.0, math.pi / 2,
                              singular=sing + (math.pi / 2,), grade_levels=44)
