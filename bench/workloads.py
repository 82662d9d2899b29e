"""The benchmark's workloads: inputs made from a seed, the calls that are
timed, and the checks that decide whether each output is correct.

Every output is checked by an independent route (or, for the fixed
certificate battery, also against values recorded in
``battery_reference.json``), so the checks hold for any seed.  An operation
is one checked output.  It fails if the call producing it raises, if its
verdict is "fail", or if it drifts beyond the tolerance stated here.

Why each workload exists:

* ``battery`` -- one cold ``standard_certificates()``; the seed is ignored
  because the paper fixes the input.  Nearly all its time is the nested
  F2 quadrature, so the adaptive-quadrature engine dominates.
* ``fields`` -- the half-space and half-ball parts, in one repetition:

  - seeded compactly supported bumps through both independent routes to
    the nonlocal energy: the half-space Dirichlet oracle
    (Poisson-extension rings; no adaptive quadrature at all) and the
    pair-form quadrature (``frac_energy_plane``/``half_laplacian_pairing``);
  - a seeded atom measure through ``jacobian_report``, seeded Blaschke
    products through both competitor families, and a seeded zero-radius
    delta-scan: many short adaptive integrals, the opposite use of the
    quadrature engine from ``battery``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Timed calls go through the module objects, so that a traced run's
# wrappers (installed by rebinding module attributes) see them.
from halfharm import blaschke, certificates, competitors, energy, jacobian
from halfharm.blaschke import BlaschkeProduct
from halfharm.energy import PlaneMap, bump_map
from halfharm.jacobian import AtomMeasure, distance_test, product_vortex_field

WORKLOADS = ("battery", "fields")

REFERENCE_PATH = Path(__file__).with_name("battery_reference.json")

# Drift allowed between a certificate value and its recorded reference:
# 1e-8 relative (one decade above the battery's outer quadrature target of
# 1e-9), never looser than the certificate's own tolerance.
DRIFT_REL = 1e-8

# Independent-route tolerances, each the bound the repository's tests use
# for the same identity, or (delta-scan) a bound fixed from the documented
# representation error of the optimal profile.
ORACLE_VS_PAIR_REL = 1e-3  # oracle energy vs pair-form energy
POLARIZATION_REL = 2e-3  # E(u1+u2) - E(u1) - E(u2) vs the pairing
SELF_PAIRING_REL = 1e-3  # pairing(u, u) vs 2 E(u)
VOLUME_SURFACE_REL = 1e-3  # volume vs surface charge pairing, per unit 2*pi*sum|d|
BCL_ABS = 1e-6  # sharp unit-degree bound vs pi
BALANCE_REL = 1e-9  # balance vector of a rotated one-zero product vs the rotated vector
HALFBALL_ENERGY_REL = 1e-6  # half-ball Dirichlet energy vs pi * degree
CHAIN_REL = 1e-6  # unwinding radial energy vs 8*eps*chain value
PROFILE_ENERGY_REL = 1e-5  # profile_energy vs 2 (G(1) - G(delta))^2
DELTA_CERT_REL = 1e-9  # delta_certificate vs sqrt(2) (G(1) - G(delta))

# Sizes.  The oracle runs at a quarter of its default angular kernel rule
# and half its radial one: it still agrees with the pair form to about 1e-4
# (as at the defaults) in about a tenth of the time, which lets a run hold
# several repetitions.  In fields no part takes more than half of the time.
ORACLE_RULES = {"n_omega": 32, "n_gl": 8}
N_DELTAS = 100


class Ledger:
    """Attempted and failed operations of one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self, op: str, n_checks: int, fn) -> None:
        """Run fn() -> [(label, ok, detail), ...] with exactly n_checks entries.

        If fn raises, all n_checks outputs it would have produced fail.
        """
        try:
            checks = list(fn())
        except Exception as exc:  # any raise is a failed operation, not a crash
            self.attempted += n_checks
            self.failures.extend([f"{op}: raised {type(exc).__name__}: {exc}"] * n_checks)
            return
        if len(checks) != n_checks:
            raise RuntimeError(f"{op} produced {len(checks)} checks, expected {n_checks}")
        for label, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{op}/{label}: {detail}")


def _close(label: str, got: float, want: float, bound: float):
    err = abs(got - want)
    return (label, bool(err <= bound), f"got {got!r}, want {want!r}, |diff| {err:.3e} > {bound:.3e}")


def _rel_check(label: str, got: float, want: float, rel: float):
    return _close(label, got, want, rel * abs(want))


# ---------------------------------------------------------------- battery


def load_reference(path: Path = REFERENCE_PATH) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["certificates"]


def check_battery(reports, reference: list[dict]) -> list[tuple[str, bool, str]]:
    """One check per recorded certificate: present, verdict "pass", and
    closed and oracle values within the stated drift of the record."""
    by_name = {r.name: r for r in reports}
    checks = []
    for ref in reference:
        rep = by_name.get(ref["name"])
        if rep is None:
            checks.append((ref["name"], False, "certificate missing from the battery"))
            continue
        problems = []
        if rep.verdict != "pass":
            problems.append(f"verdict {rep.verdict}: {rep.notes}")
        for field in ("closed", "oracle"):
            got = getattr(rep, f"{field}_value")
            tol = min(ref[f"{field}_tol"], rep.tolerance)
            if not abs(got - ref[field]) <= tol:
                problems.append(f"{field} {got!r} drifted from {ref[field]!r} by more than {tol:.1e}")
        checks.append((ref["name"], not problems, "; ".join(problems)))
    return checks


def run_battery(inputs, ledger: Ledger) -> None:
    reference = inputs["reference"]
    ledger.attempt("standard_certificates", len(reference),
                   lambda: check_battery(certificates.standard_certificates(), reference))


# ---------------------------------------------------------------- halfspace


def _sum_map(u1: PlaneMap, u2: PlaneMap) -> PlaneMap:
    return PlaneMap(func=lambda z: u1(z) + u2(z), bound=u1.bound + u2.bound,
                    far_field="zero", far_radius=max(u1.far_radius, u2.far_radius))


def halfspace_inputs(seed: int) -> dict:
    """Two bumps of fixed centres and radii, scaled by one seeded complex
    amplitude.

    The oracle's ring refinement and the pair form's refinement ladder
    depend on the shape of the maps but not on their scale: the seed varies
    the values (and so every energy) while each seed asks for the same work.
    """
    rng = np.random.default_rng(seed)
    amplitude = complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    u1 = bump_map(center=0.15 + 0.0j, radius=0.6, amplitude=amplitude)
    u2 = bump_map(center=-0.2 + 0.15j, radius=0.5, amplitude=0.7 * amplitude)
    s = _sum_map(u1, u2)
    return {"u1": u1, "u2": u2, "sum": s, "R": s.far_radius + 0.4}


def run_halfspace(inputs, ledger: Ledger) -> None:
    u1, u2, s, R = inputs["u1"], inputs["u2"], inputs["sum"], inputs["R"]
    got: dict = {}

    def converged(label, rep):
        return (label, bool(rep.converged and not rep.divergent), f"report {rep}")

    def oracle_route():
        got["e1"] = energy.frac_energy_plane(u1, R=R)
        oracle = energy.halfspace_dirichlet_oracle(u1, **ORACLE_RULES)
        return [converged("pair_form_u1", got["e1"]),
                _rel_check("oracle_vs_pair_form", float(got["e1"].value), oracle,
                           ORACLE_VS_PAIR_REL)]

    def polarization():
        e_sum = energy.frac_energy_plane(s, R=R)
        e2 = energy.frac_energy_plane(u2, R=R)
        pair = energy.half_laplacian_pairing(u1, u2, R=R)
        lhs = float(e_sum.value) - float(got["e1"].value) - float(e2.value)
        return [converged("pair_form_sum", e_sum), converged("pair_form_u2", e2),
                _close("polarization", lhs, pair,
                       POLARIZATION_REL * max(abs(float(e_sum.value)), 1.0))]

    def self_pairing():
        pair = energy.half_laplacian_pairing(u1, u1, R=R)
        return [_rel_check("self_pairing", pair, 2.0 * float(got["e1"].value), SELF_PAIRING_REL)]

    ledger.attempt("oracle_route", 2, oracle_route)
    ledger.attempt("polarization", 3, polarization)
    ledger.attempt("self_pairing", 1, self_pairing)


# ---------------------------------------------------------------- halfball


def _disc_point(rng, r_lo: float, r_hi: float) -> complex:
    return complex(rng.uniform(r_lo, r_hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def halfball_inputs(seed: int) -> dict:
    """A unit-degree atom at a seeded point (so the sharp bound is evaluated)
    with a seeded distance test, a one-zero base product for the
    zero-pulling family, a two-zero product for the unwinding family, and
    N_DELTAS radii delta."""
    rng = np.random.default_rng(seed)
    field, extension = product_vortex_field(AtomMeasure(((_disc_point(rng, 0.1, 0.5), 1),)))
    phi = distance_test(_disc_point(rng, 0.0, 0.5))
    base = BlaschkeProduct(theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                           zeros=(_disc_point(rng, 0.1, 0.4),))
    full = BlaschkeProduct(theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                           zeros=(_disc_point(rng, 0.1, 0.4), _disc_point(rng, 0.1, 0.4)))
    deltas = np.sort(rng.uniform(0.05, 0.95, N_DELTAS))
    return {"field": field, "extension": extension, "phi": phi, "base": base, "full": full,
            "deltas": [float(d) for d in deltas]}


def _jacobian_checks(field, extension, phi):
    report = jacobian.jacobian_report(field, extension, phi)
    bound = VOLUME_SURFACE_REL * 2.0 * math.pi * sum(abs(d) for d in field.atoms.degrees)
    return [_close("volume_vs_surface", report["pairing_volume"], report["pairing_surface"], bound),
            _close("bcl_is_pi", report["bcl_bound"], math.pi, BCL_ABS)]


def _zero_pull_checks(base: BlaschkeProduct):
    checks = []
    for rep in competitors.epsilon_sweep(base, "zero_pull"):
        d = rep.degree
        ok = (rep.bound_satisfied
              and rep.radial_total <= rep.radial_bound
              and d == base.zero_count + 1
              and math.isclose(rep.tangential_total, math.pi * (d - rep.epsilon), rel_tol=1e-12)
              and math.isclose(rep.total, rep.tangential_total + rep.radial_total, rel_tol=1e-12))
        checks.append((f"zero_pull[eps={rep.epsilon}]", bool(ok),
                       f"radial {rep.radial_total!r} vs bound {rep.radial_bound!r}, total {rep.total!r}"))
    return checks


def _unwinding_checks(full: BlaschkeProduct):
    checks = []
    for rep in competitors.epsilon_sweep(full, "unwinding"):
        chain = 8.0 * rep.epsilon * rep.chain_value
        label, ok, detail = _rel_check(f"unwinding[eps={rep.epsilon}]", chain, rep.radial_total, CHAIN_REL)
        ok = ok and rep.degree == full.zero_count and math.isclose(
            rep.total, rep.tangential_total + rep.radial_total, rel_tol=1e-12)
        checks.append((label, bool(ok), detail))
    return checks


def _delta_checks(delta: float):
    gap = competitors.G_of(1.0) - competitors.G_of(delta)
    value = competitors.profile_energy(competitors.optimal_profile(delta))
    return [_rel_check("profile_energy", value, 2.0 * gap * gap, PROFILE_ENERGY_REL),
            _rel_check("delta_certificate", certificates.delta_certificate(delta), math.sqrt(2.0) * gap,
                       DELTA_CERT_REL)]


def _balance_checks(base: BlaschkeProduct):
    """A one-zero product's balance vector turns with its zero: b(a) = (a/|a|) b(|a|)."""
    (a,) = base.zeros
    turned = blaschke.balance_vector(base)
    on_axis = blaschke.balance_vector(BlaschkeProduct(theta=base.theta, zeros=(complex(abs(a)),)))
    return [_rel_check("balance_turns_with_zero", turned, a / abs(a) * on_axis, BALANCE_REL)]


def run_halfball(inputs, ledger: Ledger) -> None:
    ledger.attempt("jacobian_report", 2,
                   lambda: _jacobian_checks(inputs["field"], inputs["extension"], inputs["phi"]))
    base, full = inputs["base"], inputs["full"]
    ledger.attempt("epsilon_sweep[zero_pull]", 3, lambda: _zero_pull_checks(base))
    ledger.attempt("balance_vector", 1, lambda: _balance_checks(base))
    ledger.attempt("epsilon_sweep[unwinding]", 3, lambda: _unwinding_checks(full))
    ledger.attempt("dirichlet_energy_halfball", 1, lambda: [_rel_check(
        "pi_times_degree", energy.dirichlet_energy_halfball(full), math.pi * full.zero_count,
        HALFBALL_ENERGY_REL)])
    for delta in inputs["deltas"]:
        ledger.attempt(f"delta_scan[{delta:.6f}]", 2, lambda: _delta_checks(delta))


# ---------------------------------------------------------------- dispatch


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "battery":
        return {"reference": load_reference()}
    if workload == "fields":
        return {**halfspace_inputs(seed), **halfball_inputs(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def run_fields(inputs, ledger: Ledger) -> None:
    run_halfspace(inputs, ledger)
    run_halfball(inputs, ledger)


RUNNERS = {"battery": run_battery, "fields": run_fields}
