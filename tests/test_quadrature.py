"""Tests for the quadrature core: rules and adaptive integration."""

import ast
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfharm import quadrature

from halfharm.errors import InvalidArgument, NumericalFailure
from halfharm.quadrature import (
    IntegrationResult,
    Tolerance,
    adaptive_integrate,
    adaptive_integrate_many,
    circle_rule,
    disc_rule,
    hemisphere_rule,
    integrate,
    integrate_halfline,
    integrate_line,
)

# ---------------------------------------------------------------- rule measures


def test_rules_integrate_constant_to_measure():
    one = lambda x: np.ones(np.shape(x)[0] if np.ndim(x) > 1 else np.shape(x) or 1)
    _, w = quadrature._panel_rule((-1.0, 1.0), 5)
    assert abs(np.sum(w) - 2.0) <= 1e-12
    assert abs(integrate(circle_rule(16), lambda t: np.ones_like(t)) - 2 * np.pi) <= 1e-12
    assert abs(integrate(disc_rule(8, 16), lambda z: np.ones(len(z))) - np.pi) <= 1e-12
    assert abs(integrate(hemisphere_rule(64, 32), one) - 2 * np.pi) <= 1e-12


def test_gauss_legendre_exactness_on_monomials():
    for n in (*range(1, 11), 128, 400):
        x, w = quadrature._panel_rule((-1.0, 1.0), n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = x**k @ w
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (n, k)


@pytest.mark.parametrize("n", [8.5, True, 0, -3], ids=repr)
def test_panel_rule_rejects_sizes_that_are_not_counts(n):
    # 8.5 used to build an 8-point rule, True a 1-point rule; the cached
    # 1-point rule must not answer for True
    quadrature._leggauss(1)
    with pytest.raises(InvalidArgument, match="must be an integer >= 1"):
        quadrature._panel_rule((0.0, 1.0), n)


def test_gauss_legendre_newton_settles_up_to_1000():
    for n in (*range(1, 65), 96, 255, 256, 400, 511, 512, 999, 1000):
        x, w = quadrature._leggauss.__wrapped__(n)
        assert len(x) == n and np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0, n
        assert np.all(w > 0), n


def test_gauss_legendre_newton_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_STEPS", 2)
    with pytest.raises(NumericalFailure, match="did not settle"):
        quadrature._leggauss.__wrapped__(48)


def _mp_gauss_legendre(n, x):
    """40-digit nodes and weights of the n-point rule from two Newton steps
    on the Legendre recurrence, started at the float nodes x (each within
    1e-15 of a root)."""

    def legendre(t):
        p0, p1 = mpmath.mpf(1), t
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - t * p1) / (1 - t * t)

    nodes, weights = [], []
    with mpmath.workdps(40):
        for t in map(mpmath.mpf, x):
            for _ in range(2):
                p, dp = legendre(t)
                t -= p / dp
            _, dp = legendre(t)
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 15, 16, 48, 128, 400])
def test_gauss_legendre_matches_mpmath(n):
    # numpy's Golub-Welsch rule misses the weight bound from n = 48 on
    # (relative errors 1.3e-12, 1.4e-11 and 5.7e-10 at 48, 128 and 400)
    x, w = quadrature._leggauss(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # the nodes are distinct and P_n has n roots, so each reference node is
    # the root its float started next to
    assert np.all(np.diff(x) > 0)
    half = slice(n // 2, n)
    nodes, weights = _mp_gauss_legendre(n, x[half])
    with mpmath.workdps(40):
        node_err = max(abs(mpmath.mpf(a) - b) for a, b in zip(x[half], nodes))
        weight_err = max(abs(mpmath.mpf(a) / b - 1) for a, b in zip(w[half], weights))
    assert node_err <= 1e-16, node_err
    assert weight_err <= 2e-16 * n * n, weight_err
    assert abs(math.fsum(w) - 2.0) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 8, 96, 128, 400])
def test_gauss_legendre_makes_no_lapack_call(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("Gauss-Legendre rule built through LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    x, w = quadrature._leggauss.__wrapped__(n)
    cached = quadrature._leggauss(n)
    assert np.array_equal(x, cached[0]) and np.array_equal(w, cached[1])


def _lapack_rule_lines(source: str) -> list[int]:
    """Lines of source that name leggauss or an eig* routine of a linalg
    module, as an attribute, a name or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            linalg = (node.module or "").endswith("linalg")
            if any(a.name == "leggauss" or (linalg and a.name.startswith("eig"))
                   for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.endswith(".leggauss") for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "leggauss":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute):
            owner = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(
                node.value, "id", "")
            if node.attr == "leggauss" or (owner == "linalg" and node.attr.startswith("eig")):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "x, w = np.polynomial.legendre.leggauss(8)",
    "from numpy.polynomial.legendre import leggauss",
    "from numpy.polynomial import legendre\nlegendre.leggauss(8)",
    "x = np.linalg.eigvalsh(m)",
    "from numpy.linalg import eigh",
    "from numpy import linalg\nlinalg.eig(m)",
])
def test_lapack_rule_guard_sees_each_form(source):
    assert _lapack_rule_lines(source)


def test_no_module_builds_rules_through_lapack():
    # every rule comes from quadrature._leggauss's recurrence (or its literal
    # engine pair); an eigenvalue-built rule wakes an OpenBLAS worker
    src = Path(quadrature.__file__).resolve().parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _lapack_rule_lines(path.read_text()))}
    assert not found, f"LAPACK-built rules (file: lines): {found}"


def test_rules_reject_bad_sizes():
    with pytest.raises(InvalidArgument):
        circle_rule(1)
    with pytest.raises(InvalidArgument):
        disc_rule(4, 1)


@pytest.mark.parametrize("rule, sizes", [
    (circle_rule, (3.0,)),
    (circle_rule, (2.5,)),
    (circle_rule, (True,)),
    (circle_rule, (np.float64(8),)),
    (disc_rule, (2.5, 4)),
    (disc_rule, (True, 4)),
    (disc_rule, ("4", 4)),
    (disc_rule, (4, 2.5)),
    (disc_rule, (4, True)),
    (hemisphere_rule, (2.5, 4)),
    (hemisphere_rule, (4, 8.0)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_rules_reject_sizes_that_are_not_integers(rule, sizes):
    with pytest.raises(InvalidArgument, match="must be an integer"):
        rule(*sizes)


def test_rules_accept_numpy_integer_sizes():
    for rule, sizes in ((circle_rule, (16,)), (disc_rule, (8, 16)), (hemisphere_rule, (8, 16))):
        plain, wide = rule(*sizes), rule(*(np.int64(n) for n in sizes))
        assert np.array_equal(plain.nodes, wide.nodes)
        assert np.array_equal(plain.weights, wide.weights)


def test_disc_rule_polynomial_moments():
    rule = disc_rule(8, 16)
    # frozen moments of the unit disc: area pi, int |z|^2 = pi/2, int x^2 = pi/4
    assert abs(integrate(rule, lambda z: np.abs(z) ** 2) - np.pi / 2) <= 1e-13
    assert abs(integrate(rule, lambda z: np.real(z) ** 2) - np.pi / 4) <= 1e-13
    assert abs(integrate(rule, lambda z: 1.0 - np.abs(z) ** 2) - np.pi / 2) <= 1e-13


def test_hemisphere_rule_height_moment():
    # frozen: integral of the height coordinate over the upper unit hemisphere is pi
    rule = hemisphere_rule(64, 32)
    assert np.all(rule.nodes[:, 2] > 0)
    assert np.allclose(np.sum(rule.nodes**2, axis=1), 1.0, atol=1e-14)
    assert abs(integrate(rule, lambda p: p[:, 2]) - np.pi) <= 1e-12


def _spherical_direct(f, n_theta=80, n_phi=160):
    """Independent oracle: latitude-longitude rule on the upper hemisphere."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.pi / 4 * (x + 1.0)
    wt = np.pi / 4 * w * np.sin(theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    pts = np.stack(
        [
            (np.sin(theta)[:, None] * np.cos(phi)[None, :]),
            (np.sin(theta)[:, None] * np.sin(phi)[None, :]),
            (np.cos(theta)[:, None] * np.ones(n_phi)[None, :]),
        ],
        axis=-1,
    ).reshape(-1, 3)
    W = (wt[:, None] * np.full(n_phi, 2 * np.pi / n_phi)[None, :]).ravel()
    return float(np.asarray(f(pts)) @ W)


def test_hemisphere_rule_matches_spherical_oracle_on_random_smooth():
    rng = np.random.default_rng(7)
    rule = hemisphere_rule(72, 144)
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        c = rng.uniform(-1, 1)

        def f(p):
            return np.exp(0.7 * (p @ a)) + np.cos(p @ b + c)

        assert abs(integrate(rule, f) - _spherical_direct(f)) <= 1e-8


# ---------------------------------------------------------------------- gamma


def test_gamma_matches_integral_oracle():
    for x in (1.5, 2.5, 4.2):
        val, _ = integrate_halfline(lambda t: t ** (x - 1.0) * np.exp(-t))
        assert abs(val - math.gamma(x)) <= 1e-10 * math.gamma(x)


# -------------------------------------------------------------------- adaptive


def test_adaptive_polynomial_is_exact():
    res = adaptive_integrate(lambda x: x**6, -1.0, 1.0)
    assert isinstance(res, IntegrationResult)
    v, e = res  # unpacks as a (value, error) pair
    assert abs(v - 2.0 / 7.0) <= 1e-13
    assert res.converged


def test_adaptive_integrable_endpoint_singularity():
    v, e = adaptive_integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular=(0.0,))
    assert abs(v - 2.0) <= 1e-8
    v, e = adaptive_integrate(np.log, 0.0, 1.0, singular=(0.0,))
    assert abs(v - (-1.0)) <= 1e-8


def test_adaptive_interior_singularity():
    v, _ = adaptive_integrate(
        lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, singular=(0.3,)
    )
    exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    assert abs(v - exact) <= 1e-7


def test_adaptive_raises_on_nonfinite_off_singular_set():
    def f(x):
        return np.where(x < 0.3, 1.0, np.nan)

    with pytest.raises(NumericalFailure):
        adaptive_integrate(f, 0.0, 1.0)


def test_adaptive_respects_tolerance_object():
    tol = Tolerance(abs_tol=1e-6, rel_tol=0.0, max_refinements=5)
    res = adaptive_integrate(lambda x: np.sin(3 * x) ** 2, 0.0, 2.0, tol=tol)
    exact = 1.0 - math.sin(12.0) / 12.0
    assert abs(res.value - exact) <= 1e-6


def test_tolerance_validation():
    with pytest.raises(InvalidArgument):
        Tolerance(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(InvalidArgument):
        Tolerance(abs_tol=-1e-3)


@pytest.mark.parametrize("kwargs", [{"abs_tol": math.nan}, {"rel_tol": math.nan},
                                    {"abs_tol": math.inf}, {"rel_tol": math.inf},
                                    {"max_refinements": -1}, {"max_refinements": 2.5},
                                    {"max_refinements": 40.0}, {"max_refinements": True}],
                         ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
def test_tolerance_rejects_values_that_switch_checks_off(kwargs):
    # a NaN abs_tol used to be accepted: no panel then converges, and the
    # integration spends its whole refinement budget
    with pytest.raises(InvalidArgument):
        Tolerance(**kwargs)


def test_tolerance_accepts_zero_and_numpy_integer_refinements():
    assert Tolerance(max_refinements=0).max_refinements == 0
    tol = Tolerance(abs_tol=1e-6, rel_tol=0.0, max_refinements=np.int64(5))
    res = adaptive_integrate(lambda x: np.sin(3 * x) ** 2, 0.0, 2.0, tol=tol)
    assert res == adaptive_integrate(lambda x: np.sin(3 * x) ** 2, 0.0, 2.0,
                                     tol=Tolerance(abs_tol=1e-6, rel_tol=0.0, max_refinements=5))


def test_line_integrals_by_tangent_substitution():
    v, _ = integrate_line(lambda x: 1.0 / (1.0 + x * x))
    assert abs(v - math.pi) <= 1e-10
    v, _ = integrate_line(lambda x: np.exp(-(x**2)))
    assert abs(v - math.sqrt(math.pi)) <= 1e-10
    v, _ = integrate_halfline(lambda x: np.exp(-x))
    assert abs(v - 1.0) <= 1e-10


def test_halfline_polar_kernel_identity():
    # frozen: int_0^inf rho (1 - 2 rho c + rho^2)^(-3/2) drho = 1/(1-c) for |c| < 1
    for c in (0.0, 0.3, -0.45, 0.8):
        v, _ = integrate_halfline(lambda r: r * (1.0 - 2.0 * r * c + r * r) ** -1.5)
        assert abs(v - 1.0 / (1.0 - c)) <= 1e-9 / (1.0 - c)


# ---------------------------------------------------------------- engine pins

# (value, error, converged, panels) of each case, recorded from the adaptive
# engine as it was before the heap worklist replaced re-sorting every panel
# on every split; the rewrite must reproduce them exactly.
ENGINE_PINS = {
    "smooth": (2.5693643843610996, 5.412337245047638e-15, True, 8),
    "endpoint_sqrt": (1.9999999998520177, 1.6648588708585718e-10, True, 58),
    "endpoint_log": (-0.9999999999999976, 2.02942538159695e-12, True, 41),
    "interior": (2.7687651184391924, 5.5965218642233306e-08, False, 122),
    "exhausted": (0.9986285921353346, 0.0025113009154481766, False, 13),
    "frozen": (0.6666666666666629, 1.0390073853139286e-14, False, 208),
    "tie": (1.0, 1.1102230246251565e-16, False, 20),
    "line": (1.7724538509055159, 1.3610429873404456e-10, True, 95),
    "halfline": (1.3293403881788628, 9.304636068477424e-11, True, 53),
}

ENGINE_CASES = {
    "smooth": lambda: adaptive_integrate(lambda x: np.exp(np.sin(3.0 * x)), 0.0, 2.0),
    "endpoint_sqrt": lambda: adaptive_integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular=(0.0,)),
    "endpoint_log": lambda: adaptive_integrate(np.log, 0.0, 1.0, singular=(0.0,)),
    # 40 refinements do not reach the tolerance here
    "interior": lambda: adaptive_integrate(
        lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, singular=(0.3,)
    ),
    "exhausted": lambda: adaptive_integrate(
        lambda x: np.sin(40.0 * x) ** 2, 0.0, 2.0, Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_refinements=5)
    ),
    # an undeclared jump: its panel is bisected until frozen at machine resolution
    "frozen": lambda: adaptive_integrate(
        lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0,
        Tolerance(abs_tol=1e-20, rel_tol=1e-20, max_refinements=200),
    ),
    # all eight seed panels carry the same error; ties go to the smallest lo
    "tie": lambda: adaptive_integrate(
        lambda x: np.ones_like(x), 0.0, 1.0, Tolerance(abs_tol=1e-30, rel_tol=1e-30, max_refinements=12)
    ),
    "line": lambda: integrate_line(lambda x: np.exp(-(x**2))),
    "halfline": lambda: integrate_halfline(lambda x: x**1.5 * np.exp(-x)),
}


@pytest.mark.parametrize("case", sorted(ENGINE_PINS))
def test_adaptive_engine_pins(case):
    res = ENGINE_CASES[case]()
    assert (res.value, res.error, res.converged, res.panels) == ENGINE_PINS[case]


def test_adaptive_raises_on_nonfinite_in_refined_panel():
    # finite on the seed panels; the kink at 0.3 draws bisection into the hole
    def f(x):
        return np.where(np.abs(x - 0.3) < 1e-5, np.nan, np.abs(x - 0.3))

    with pytest.raises(NumericalFailure, match="refined panel"):
        adaptive_integrate(f, 0.0, 1.0)
    with pytest.raises(NumericalFailure, match="refined panel"):
        adaptive_integrate_many(lambda x, p: p * f(x), [1.0, 2.0], 0.0, 1.0)


def _peaked(x, p):
    """Elementwise integrand with a parameterised near-singular peak."""
    return p[:, 0] / ((x - p[:, 1]) ** 2 + p[:, 2] ** 2) + np.sqrt(x * p[:, 3])


@settings(max_examples=40, deadline=None)
@given(
    params=st.lists(
        st.tuples(
            st.floats(-2.0, 2.0),
            st.floats(0.0, 1.0),
            st.floats(1e-4, 1.0),
            st.floats(0.0, 3.0),
        ),
        min_size=1,
        max_size=9,
    ),
    in_flight=st.integers(1, 10),
    max_refinements=st.integers(0, 60),
)
def test_batched_results_equal_single_runs(params, in_flight, max_refinements):
    tol = Tolerance(abs_tol=1e-11, rel_tol=1e-11, max_refinements=max_refinements)
    with mock.patch.object(quadrature, "_MAX_IN_FLIGHT", in_flight):
        batched = adaptive_integrate_many(_peaked, params, 0.0, 1.0, tol, singular=(0.0,))
    assert len(batched) == len(params)
    for p, got in zip(params, batched):
        row = np.array([p])
        alone = adaptive_integrate(lambda x: _peaked(x, np.broadcast_to(row, (len(x), 4))), 0.0, 1.0, tol,
                                   singular=(0.0,))
        assert got == alone


def test_ensure_converged_allows_only_a_near_miss():
    assert quadrature.ensure_converged(IntegrationResult(2.5, 1.0, True), "x") == 2.5
    # unconverged, but within 1e-6 of max(1, |value|): accepted
    assert quadrature.ensure_converged(IntegrationResult(3.0, 2.9e-6, False), "x") == 3.0
    assert quadrature.ensure_converged(IntegrationResult(1e-3, 1e-6, False), "x") == 1e-3
    for res in (IntegrationResult(3.0, 3.1e-6, False), IntegrationResult(1e-3, 1.1e-6, False)):
        with pytest.raises(NumericalFailure, match="x did not converge"):
            quadrature.ensure_converged(res, "x")
